"""Tape-compiled, group-batched execution backend for the SIMT interpreter.

The reference path (:mod:`repro.runtime.interpreter`) vectorises over the
*lane* axis but re-runs the block scheduler and per-instruction
``isinstance`` dispatch for every work-group.  All eleven paper apps have
group-uniform control flow, so that per-group cost is pure overhead.
This backend removes it in three moves:

1. **Pilot**: the first picked group runs on the ordinary scheduler
   while a :class:`_RecordingExecutor` records the ``(block, mask)``
   schedule — plus each ``CondBr``'s condition row and each terminator's
   successor masks — as a straight-line tape of :class:`_Step`\\ s.
2. **Compile**: each unique ``(block, mask-pattern)`` is compiled once
   into a list of argument-free Python closures with operand getters,
   dtypes and builtin handlers pre-resolved.  Loop iterations share the
   same closure list; only dynamic state (barrier phase, retired
   instructions, the private-arena cursor) lives on the replayer.
3. **Replay**: the remaining groups execute in batches with a new
   leading *group* axis — every value is ``(G, n_lanes)`` (or
   ``(G, n, k)`` for vectors; group-uniform values stay ``(n,)`` and
   broadcast) — so one numpy op covers the whole batch.  Batched
   ``__local``/private storage lives in per-batch scratch buffers with
   out-of-band ids (``_SCRATCH_BASE``), and batched memory events are
   split back into bit-identical per-group :class:`GroupTrace`\\ s.

Correctness never depends on uniformity: a **divergence guard** after
every taped ``CondBr`` compares each group's condition row (on the
step's active lanes) against the pilot's, and the load/store closures
check that every group resolves the access to the pilot's buffer.  Any
group that disagrees is *evicted*: its partial trace is split out, the
scheduler's pending-dict is reconstructed from the tape prefix, and the
group finishes on the reference scalar path via
:meth:`GroupExecutor.resume_block` — starting at the exact instruction
that diverged, so no side effect is re-applied.

Like the sharded parallel engine (DESIGN.md §9), batching reorders the
side effects of *different* groups; results are bit-identical to serial
execution for kernels whose work-groups are independent — the OpenCL
execution model's own requirement, enforced by the differential suite.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    ExtractElement,
    FCmp,
    GEP,
    ICmp,
    InsertElement,
    Load,
    Opcode,
    Select,
    Store,
)
from repro.ir.types import (
    AddressSpace,
    ArrayType,
    BoolType,
    VectorType,
)
from repro.ir.values import Argument, Constant, LocalArray, Value
from repro.runtime.buffers import OFFSET_BITS, OFFSET_MASK, Buffer, Memory
from repro.runtime.builtins import WorkItemContext, eval_builtin
from repro.runtime.errors import RuntimeLaunchError
from repro.runtime.interpreter import GroupExecutor, _np_type
from repro.runtime.trace import GroupTrace, MemEvent, TraceSpillStore, split_records
from repro.session import events

#: scratch (batch-local) buffer ids start here — far above any id the
#: ordinary allocator hands out, and small enough that ``id << 40``
#: still fits an int64 pointer.  Scratch buffers are registered into
#: ``Memory.buffers`` directly and removed at batch end, so
#: ``Memory._next_id`` is exactly where a serial launch leaves it.
_SCRATCH_BASE = 1 << 22


class _Step:
    """One executed (block, mask) of the pilot's schedule."""

    __slots__ = (
        "bb", "mask", "succ", "cond", "alive_before", "alive_after",
        "weight", "ops", "op_pos", "guard",
    )

    def __init__(self, bb: BasicBlock, mask: np.ndarray) -> None:
        self.bb = bb
        self.mask = mask
        self.succ: List[Tuple[BasicBlock, np.ndarray]] = []
        self.cond: Optional[np.ndarray] = None
        self.alive_before: Optional[np.ndarray] = None
        self.alive_after: Optional[np.ndarray] = None
        self.weight = 0
        self.ops: List = []
        #: instruction index within the block -> position in ``ops``
        self.op_pos: Dict[int, int] = {}
        self.guard = None


class _RecordingExecutor(GroupExecutor):
    """The pilot: the reference executor, plus a schedule tape."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps: List[_Step] = []
        self.emit_group_executed = False

    def exec_block(self, bb: BasicBlock, mask: np.ndarray):
        step = _Step(bb, mask.copy())
        self.steps.append(step)
        out = super().exec_block(bb, mask)
        term = bb.instructions[-1]
        if isinstance(term, CondBr):
            step.cond = self.get(term.cond).copy()
        step.succ = [(succ, m.copy()) for succ, m in out]
        step.alive_after = self.alive.copy()
        return out


class _BatchedContext:
    """Mirror of :class:`WorkItemContext` with a leading group axis.

    Group-invariant queries (local ids, sizes) return the same ``(n,)``
    arrays the serial context returns — they broadcast against batched
    operands; per-group queries return ``(G, n)`` int64 arrays.
    """

    def __init__(
        self,
        slot_gids: List[Tuple[int, ...]],
        local_size: Tuple[int, ...],
        global_size: Tuple[int, ...],
    ) -> None:
        ndim = len(local_size)
        self.ndim = ndim
        self.local_size = local_size
        self.global_size = global_size
        self.num_groups = tuple(
            global_size[d] // local_size[d] for d in range(ndim)
        )
        n = int(np.prod(local_size))
        self.n_lanes = n
        flat = np.arange(n, dtype=np.int64)
        self.local_ids: List[np.ndarray] = []
        stride = 1
        for d in range(ndim):
            self.local_ids.append((flat // stride) % local_size[d])
            stride *= local_size[d]
        #: per dimension, the batch's group coordinates, shape (G,)
        self.gcols = [
            np.array([gid[d] for gid in slot_gids], dtype=np.int64)
            for d in range(ndim)
        ]
        self.global_ids = [
            self.local_ids[d][None, :] + self.gcols[d][:, None] * local_size[d]
            for d in range(ndim)
        ]

    def compact(self, keep: np.ndarray) -> None:
        self.gcols = [c[keep] for c in self.gcols]
        self.global_ids = [g[keep] for g in self.global_ids]

    def _dim(self, args: List[np.ndarray]) -> int:
        return int(np.asarray(args[0]).ravel()[0])

    def query(self, name: str, args: List[np.ndarray], n: int) -> np.ndarray:
        ones = np.ones(n, dtype=np.int64)
        if name == "get_global_id":
            d = self._dim(args)
            return self.global_ids[d] if d < self.ndim else 0 * ones
        if name == "get_local_id":
            d = self._dim(args)
            return self.local_ids[d] if d < self.ndim else 0 * ones
        if name == "get_group_id":
            d = self._dim(args)
            if d < self.ndim:
                return self.gcols[d][:, None] * ones
            return 0 * ones
        if name == "get_local_size":
            d = self._dim(args)
            return (self.local_size[d] if d < self.ndim else 1) * ones
        if name == "get_global_size":
            d = self._dim(args)
            return (self.global_size[d] if d < self.ndim else 1) * ones
        if name == "get_num_groups":
            d = self._dim(args)
            return (self.num_groups[d] if d < self.ndim else 1) * ones
        if name == "get_global_offset":
            return 0 * ones
        if name == "get_work_dim":
            return np.full(n, self.ndim, dtype=np.uint32)
        raise KeyError(name)


def _expected_ndim(v: Value) -> int:
    """The batched rank of a value: 3 for vectors, 2 otherwise.

    A smaller observed rank means the value is group-uniform (a plain
    ``(n,)``/``(n, k)`` array shared by every group) — those are never
    compacted and are copied whole into an evicted group's executor.
    """
    return 3 if isinstance(v.type, VectorType) else 2


class TapeExecutor:
    """Compiles the pilot tape and replays it over group batches."""

    def __init__(
        self,
        fn: Function,
        lsize: Tuple[int, ...],
        gsize: Tuple[int, ...],
        arg_values: Dict[Argument, object],
        local_buffers: Dict[LocalArray, Buffer],
        local_arg_buffers: Dict[Argument, Buffer],
        memory: Memory,
        private_arena: List[Buffer],
        collect_trace: bool,
        pilot: _RecordingExecutor,
        compile_closures: bool = True,
    ) -> None:
        self.fn = fn
        self.lsize = lsize
        self.gsize = gsize
        self.arg_values = arg_values
        self.local_buffers = local_buffers
        self.local_arg_buffers = local_arg_buffers
        self.memory = memory
        self.private_arena = private_arena
        self.collect_trace = collect_trace
        self.steps = pilot.steps
        self.n = pilot.n
        self._lane_ids = np.arange(self.n, dtype=np.int64)
        self.pilot_inst_count = pilot.trace.inst_count if pilot.trace else 0
        self.pilot_barriers = pilot.trace.barriers if pilot.trace else 0
        self.pilot_arena_len = pilot._arena_next

        # -- dynamic (per-batch) state, read by the shared closures ------
        self.env: Dict[Value, Optional[np.ndarray]] = {}
        self.slots: Dict[Alloca, np.ndarray] = {}
        #: original batch slot index of each surviving row, ascending
        self.live: np.ndarray = np.empty(0, np.int64)
        self.phase = 0
        self.barriers = 0
        self.inst_count = 0
        self.arena_next = 0
        self.step_idx = 0
        self.records: List[tuple] = []
        self.bctx: Optional[_BatchedContext] = None
        self.slot_gids: List[Tuple[int, ...]] = []
        #: scratch buffer id -> (serial buffer id, per-group byte stride)
        self.scratch_map: Dict[int, Tuple[int, int]] = {}
        self._scratch: List[Buffer] = []
        self._scratch_next = _SCRATCH_BASE
        self._private_slabs: List[Tuple[Buffer, int]] = []
        self._batch_size = 0
        self._done: Dict[int, Optional[GroupTrace]] = {}
        self.evicted = 0

        self._consts: Dict[Constant, np.ndarray] = {}
        self.n_closures = 0
        self._closures_ready = False
        if not getattr(pilot, "steps_annotated", False):
            self._annotate_steps()
        if compile_closures:
            self._compile_closures()

    # -- compilation -------------------------------------------------------
    def _annotate_steps(self) -> None:
        """Static per-step facts: alive masks and instruction weights.

        Cheap and closure-free — the codegen tier needs these to fold
        instruction-count prefixes into generated source without paying
        for closures it only compiles on a divergence handoff.
        """
        alive = np.ones(self.n, dtype=bool)
        weight = {
            bb: sum(
                0 if isinstance(i, (Cast, GEP, Alloca)) else 1
                for i in bb.instructions
            )
            for bb in self.fn.blocks
        }
        for step in self.steps:
            step.alive_before = alive
            alive = step.alive_after
            step.weight = weight[step.bb] * int(step.mask.sum())

    def _compile_closures(self) -> None:
        """Compile each unique (block, mask) into its closure list."""
        if self._closures_ready:
            return
        self._closures_ready = True
        cache: Dict[Tuple[BasicBlock, bytes], Tuple[List, Dict[int, int]]] = {}
        for step in self.steps:
            key = (step.bb, step.mask.tobytes())
            entry = cache.get(key)
            if entry is None:
                entry = cache[key] = self._compile_block(step.bb, step.mask)
                self.n_closures += len(entry[0])
            step.ops, step.op_pos = entry
            term = step.bb.instructions[-1]
            if isinstance(term, CondBr):
                step.guard = (
                    self._getter(term.cond),
                    step.cond[step.mask].copy(),
                    len(step.bb.instructions) - 1,
                )

    def _getter(self, v: Value):
        if isinstance(v, Constant):
            arr = self._consts.get(v)
            if arr is None:
                ty = v.type
                if isinstance(ty, BoolType):
                    arr = np.full(self.n, bool(v.value))
                else:
                    arr = np.full(self.n, v.value, dtype=_np_type(ty))
                arr.setflags(write=False)
                self._consts[v] = arr
            return lambda: arr
        env = self.env
        return lambda: env[v]

    def _compile_block(
        self, bb: BasicBlock, mask: np.ndarray
    ) -> Tuple[List, Dict[int, int]]:
        ops: List = []
        op_pos: Dict[int, int] = {}
        for idx, inst in enumerate(bb.instructions):
            if inst.is_terminator:
                break
            op_pos[idx] = len(ops)
            op = self._compile_inst(inst, mask, bb, idx)
            if op is not None:
                ops.append(op)
        return ops, op_pos

    def _compile_inst(self, inst, mask: np.ndarray, bb: BasicBlock, idx: int):
        env = self.env
        if isinstance(inst, BinOp):
            f = _BINOPS_FACTORY(inst)
            ga, gb = self._getter(inst.lhs), self._getter(inst.rhs)

            def run_binop():
                env[inst] = f(ga(), gb())
            return run_binop
        if isinstance(inst, (ICmp, FCmp)):
            return self._compile_cmp(inst)
        if isinstance(inst, Load):
            return self._compile_load(inst, mask, bb, idx)
        if isinstance(inst, Store):
            return self._compile_store(inst, mask, bb, idx)
        if isinstance(inst, GEP):
            gb_ = self._getter(inst.base)
            pairs = [
                (self._getter(i), s)
                for i, s in zip(inst.indices, inst.strides())
            ]

            def run_gep():
                out = gb_().astype(np.int64)
                for g, s in pairs:
                    out = out + g().astype(np.int64) * s
                env[inst] = out
            return run_gep
        if isinstance(inst, Call):
            return self._compile_call(inst)
        if isinstance(inst, Cast):
            return self._compile_cast(inst)
        if isinstance(inst, Select):
            gc_, gt_, gf_ = (self._getter(o) for o in inst.operands)
            vec = isinstance(inst.type, VectorType)

            def run_select():
                c = gc_()
                if vec:
                    c = c[..., None]
                env[inst] = np.where(c, gt_(), gf_())
            return run_select
        if isinstance(inst, Alloca):
            return self._compile_alloca(inst)
        if isinstance(inst, ExtractElement):
            return self._compile_extract(inst)
        if isinstance(inst, InsertElement):
            return self._compile_insert(inst)
        raise RuntimeLaunchError(
            f"tape backend cannot compile {type(inst).__name__}"
        )  # pragma: no cover

    def _compile_cmp(self, inst):
        env = self.env
        ga = self._getter(inst.operands[0])
        gb = self._getter(inst.operands[1])
        pred = inst.pred
        unsigned = pred in (CmpPred.ULT, CmpPred.ULE, CmpPred.UGT, CmpPred.UGE)
        if pred in (CmpPred.EQ, CmpPred.OEQ):
            f = lambda a, b: a == b  # noqa: E731
        elif pred in (CmpPred.NE, CmpPred.ONE):
            f = lambda a, b: a != b  # noqa: E731
        elif pred in (CmpPred.SLT, CmpPred.ULT, CmpPred.OLT):
            f = lambda a, b: a < b  # noqa: E731
        elif pred in (CmpPred.SLE, CmpPred.ULE, CmpPred.OLE):
            f = lambda a, b: a <= b  # noqa: E731
        elif pred in (CmpPred.SGT, CmpPred.UGT, CmpPred.OGT):
            f = lambda a, b: a > b  # noqa: E731
        elif pred in (CmpPred.SGE, CmpPred.UGE, CmpPred.OGE):
            f = lambda a, b: a >= b  # noqa: E731
        else:  # pragma: no cover
            raise RuntimeLaunchError(f"unknown predicate {pred}")

        def run_cmp():
            a, b = ga(), gb()
            if unsigned:
                udt = np.dtype(f"u{a.dtype.itemsize}")
                a = a.view(udt)
                b = b.view(udt)
            env[inst] = f(a, b)
        return run_cmp

    def _compile_cast(self, inst: Cast):
        env = self.env
        gv = self._getter(inst.value)
        kind = inst.kind
        ty = inst.type
        from repro.ir.types import IntType, PointerType

        if kind == CastKind.BITCAST:
            if isinstance(ty, PointerType):
                def run_bc_ptr():
                    env[inst] = gv()
                return run_bc_ptr
            dt = _np_type(ty)

            def run_bc():
                v = gv()
                env[inst] = v.view(dt) if v.dtype.itemsize == dt.itemsize else v.astype(dt)
            return run_bc
        if kind in (CastKind.TRUNC, CastKind.SEXT, CastKind.ZEXT):
            dt = _np_type(ty)
            src_ty = inst.value.type
            reinterp = (
                kind == CastKind.ZEXT
                and isinstance(src_ty, IntType)
                and src_ty.signed
            )

            def run_intcast():
                v = gv()
                if reinterp:
                    v = v.view(np.dtype(f"u{v.dtype.itemsize}"))
                env[inst] = v.astype(dt)
            return run_intcast
        if kind in (
            CastKind.SITOFP, CastKind.UITOFP, CastKind.FPEXT, CastKind.FPTRUNC
        ):
            dt = _np_type(ty)

            def run_fpcast():
                env[inst] = gv().astype(dt)
            return run_fpcast
        if kind in (CastKind.FPTOSI, CastKind.FPTOUI):
            dt = _np_type(ty)

            def run_fptoint():
                env[inst] = np.trunc(gv()).astype(dt)
            return run_fptoint
        if kind == CastKind.BOOL_TO_INT:
            dt = _np_type(ty)

            def run_b2i():
                env[inst] = gv().astype(dt)
            return run_b2i
        if kind == CastKind.INT_TO_BOOL:
            def run_i2b():
                env[inst] = gv() != 0
            return run_i2b
        raise RuntimeLaunchError(f"unknown cast {kind}")  # pragma: no cover

    def _compile_alloca(self, inst: Alloca):
        env = self.env
        slots = self.slots
        ty = inst.allocated_type
        n = self.n
        if isinstance(ty, ArrayType):
            size = ty.size
            nbytes = size * n
            lane_off = self._lane_ids * size

            def run_alloca_arr():
                k = self.arena_next
                self.arena_next += 1
                buf = self._private_slab(k, nbytes)
                env[inst] = (
                    buf.base_addr + self.live * nbytes
                )[:, None] + lane_off
            return run_alloca_arr
        if isinstance(ty, VectorType):
            dt = ty.element.numpy_dtype
            count = ty.count

            def run_alloca_vec():
                slots[inst] = np.zeros((len(self.live), n, count), dtype=dt)
            return run_alloca_vec
        dt = _np_type(ty)

        def run_alloca():
            slots[inst] = np.zeros((len(self.live), n), dtype=dt)
        return run_alloca

    def _private_slab(self, k: int, nbytes_per_group: int) -> Buffer:
        while k >= len(self._private_slabs):
            buf = self._new_scratch(self._batch_size * nbytes_per_group)
            self._private_slabs.append((buf, nbytes_per_group))
        buf, size = self._private_slabs[k]
        if size != nbytes_per_group:  # pragma: no cover - schedule-fixed
            raise RuntimeLaunchError("private slab size drifted from tape")
        return buf

    def _new_scratch(self, nbytes: int) -> Buffer:
        sid = self._scratch_next
        self._scratch_next += 1
        buf = Buffer(self.memory, sid, nbytes, "tape-scratch")
        self.memory.buffers[sid] = buf
        self._scratch.append(buf)
        return buf

    def _compile_call(self, inst: Call):
        env = self.env
        if inst.callee == "barrier":
            def run_barrier():
                self.phase += 1
                self.barriers += 1
            return run_barrier
        if inst.callee in ("mem_fence", "printf"):
            return None
        getters = [self._getter(a) for a in inst.args]

        def run_call():
            env[inst] = eval_builtin(inst, [g() for g in getters], self.bctx)
        return run_call

    def _compile_extract(self, inst: ExtractElement):
        env = self.env
        gv = self._getter(inst.vec)
        idx = inst.index
        if isinstance(idx, Constant):
            i = int(idx.value)

            def run_extract_c():
                env[inst] = gv()[..., i]
            return run_extract_c
        gi = self._getter(idx)

        def run_extract():
            vec, iv = gv(), gi()
            if iv.ndim + 1 > vec.ndim:
                vec = np.broadcast_to(vec, iv.shape + (vec.shape[-1],))
            elif iv.ndim + 1 < vec.ndim:
                iv = np.broadcast_to(iv, vec.shape[:-1])
            env[inst] = np.take_along_axis(vec, iv[..., None], axis=-1)[..., 0]
        return run_extract

    def _compile_insert(self, inst: InsertElement):
        env = self.env
        gv = self._getter(inst.vec)
        gval = self._getter(inst.value)
        idx = inst.index
        const_i = int(idx.value) if isinstance(idx, Constant) else None
        gi = None if const_i is not None else self._getter(idx)

        def run_insert():
            vec, val = gv(), gval()
            if val.ndim + 1 > vec.ndim:
                vec = np.broadcast_to(vec, val.shape + (vec.shape[-1],))
            vec = vec.copy()
            if const_i is not None:
                vec[..., const_i] = val
            else:
                iv = np.broadcast_to(gi(), vec.shape[:-1])
                np.put_along_axis(
                    vec, iv[..., None],
                    np.broadcast_to(val, vec.shape[:-1])[..., None], axis=-1,
                )
            env[inst] = vec
        return run_insert

    # -- batched loads/stores ---------------------------------------------
    def _batched_addrs(self, gp, G: int) -> np.ndarray:
        addrs = gp()
        if addrs.ndim == 1:
            addrs = np.broadcast_to(addrs, (G, self.n))
        return addrs

    def _compile_load(self, inst: Load, mask: np.ndarray, bb, idx: int):
        env = self.env
        slots = self.slots
        ptr = inst.ptr
        if isinstance(ptr, Alloca) and not isinstance(
            ptr.allocated_type, ArrayType
        ):
            def run_slot_load():
                env[inst] = slots[ptr].copy()
            return run_slot_load

        gp = self._getter(ptr)
        full = bool(mask.all())
        j0 = int(mask.argmax())
        ty = inst.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        lanes = self._lane_ids[mask]
        lanes.setflags(write=False)
        elem = ty.size
        vec = isinstance(ty, VectorType)
        if vec:
            el_dt = ty.element.numpy_dtype
            kel = el_dt.itemsize
            comp = np.arange(ty.count, dtype=np.int64)
        else:
            dt = _np_type(ty)
            isz = dt.itemsize

        def run_load():
            G = len(self.live)
            if not G:
                return
            addrs = self._batched_addrs(gp, G)
            am = addrs if full else addrs[:, mask]
            ids = am >> OFFSET_BITS
            id0 = int(ids.flat[0])
            bad = (ids != id0).any(axis=1)
            if bad.any():
                keep = self._evict(bad, bb, idx, "buffer mismatch")
                if not len(self.live):
                    return
                addrs = addrs[keep]
                am = am[keep]
                G = len(self.live)
            if full:
                offs = (addrs & OFFSET_MASK).astype(np.int64)
                offs_m = offs
            else:
                safe = np.where(mask, addrs, addrs[:, j0:j0 + 1])
                offs = (safe & OFFSET_MASK).astype(np.int64)
                offs_m = (am & OFFSET_MASK).astype(np.int64)
            if record:
                sid, stride = self.scratch_map.get(id0, (id0, 0))
                self.records.append((
                    space, False, sid, stride, offs_m, lanes, elem,
                    self.phase, inst.id, self.live,
                ))
            buf = self.memory.buffers[id0]
            if vec:
                bidx = (offs // kel)[..., None] + comp
                env[inst] = buf.view(el_dt)[bidx]
            else:
                env[inst] = buf.view(dt)[offs // isz]
        return run_load

    def _compile_store(self, inst: Store, mask: np.ndarray, bb, idx: int):
        slots = self.slots
        ptr = inst.ptr
        gval = self._getter(inst.value)
        n = self.n
        if isinstance(ptr, Alloca) and not isinstance(
            ptr.allocated_type, ArrayType
        ):
            vec_slot = isinstance(ptr.allocated_type, VectorType)
            val_is_vec = isinstance(inst.value.type, VectorType)

            def run_slot_store():
                slot = slots[ptr]
                v = gval()
                if vec_slot:
                    if val_is_vec:
                        v = np.broadcast_to(v, slot.shape)
                        slot[:, mask, :] = v[:, mask, :]
                    else:
                        v = np.broadcast_to(v, slot.shape[:2])
                        slot[:, mask, :] = v[:, mask, None]
                else:
                    v = np.broadcast_to(v, slot.shape)
                    slot[:, mask] = v[:, mask].astype(slot.dtype, copy=False)
            return run_slot_store

        gp = self._getter(ptr)
        ty = inst.value.type
        space = inst.addrspace
        record = self.collect_trace and space != AddressSpace.PRIVATE
        lanes = self._lane_ids[mask]
        lanes.setflags(write=False)
        elem = ty.size
        vec = isinstance(ty, VectorType)
        if vec:
            el_dt = ty.element.numpy_dtype
            kel = el_dt.itemsize
            comp = np.arange(ty.count, dtype=np.int64)
            kc = ty.count
        else:
            dt = _np_type(ty)
            to_u8 = dt == np.dtype(bool)
            if to_u8:
                dt = np.dtype(np.uint8)
            isz = dt.itemsize

        def run_store():
            G = len(self.live)
            if not G:
                return
            v = gval()
            addrs = self._batched_addrs(gp, G)
            am = addrs[:, mask]
            ids = am >> OFFSET_BITS
            id0 = int(ids.flat[0])
            bad = (ids != id0).any(axis=1)
            if bad.any():
                keep = self._evict(bad, bb, idx, "buffer mismatch")
                if not len(self.live):
                    return
                am = am[keep]
                if v.ndim >= 2 + int(vec):
                    v = v[keep]
                G = len(self.live)
            offs = (am & OFFSET_MASK).astype(np.int64)
            if record:
                sid, stride = self.scratch_map.get(id0, (id0, 0))
                self.records.append((
                    space, True, sid, stride, offs, lanes, elem,
                    self.phase, inst.id, self.live,
                ))
            buf = self.memory.buffers[id0]
            if vec:
                bidx = (offs // kel)[..., None] + comp
                v = np.broadcast_to(v, (G, n, kc))
                buf.view(el_dt)[bidx] = v[:, mask]
            else:
                if to_u8:
                    v = v.astype(np.uint8)
                v = np.broadcast_to(v, (G, n))
                buf.view(dt)[offs // isz] = v[:, mask].astype(dt, copy=False)
        return run_store

    # -- eviction ----------------------------------------------------------
    def _evict(
        self, bad: np.ndarray, bb: BasicBlock, inst_idx: int, reason: str
    ) -> np.ndarray:
        for r in np.flatnonzero(bad):
            self._evict_one(int(r), bb, inst_idx, reason)
        keep = ~bad
        self._compact(keep)
        return keep

    def _evict_one(
        self, row: int, bb: BasicBlock, inst_idx: int, reason: str
    ) -> None:
        self.evicted += 1
        slot = int(self.live[row])
        gid_t = self.slot_gids[slot]
        step = self.steps[self.step_idx]
        events.emit(
            "tape_evict",
            kernel=self.fn.name,
            group_id=list(gid_t),
            step=self.step_idx,
            reason=f"{reason} in {bb.name}[{inst_idx}]",
        )

        gt: Optional[GroupTrace] = None
        n_prefix = 0
        if self.collect_trace:
            gt = GroupTrace(gid_t, self.n)
            gt.inst_count = self.inst_count
            gt.barriers = self.barriers
            gt.events = self._split_events(slot)
            n_prefix = len(gt.events)

        # reconstruct the scheduler's pending-dict from the tape prefix
        pending: Dict[BasicBlock, np.ndarray] = {
            self.fn.entry: np.ones(self.n, dtype=bool)
        }
        for s in self.steps[: self.step_idx]:
            pending.pop(s.bb, None)
            for succ, m in s.succ:
                if succ in pending:
                    pending[succ] = pending[succ] | m
                elif m.any():
                    pending[succ] = m
        pending.pop(step.bb, None)

        ctx = WorkItemContext(gid_t, self.lsize, self.gsize)
        ex = GroupExecutor(
            self.fn, ctx, self.memory, self.arg_values,
            self.local_buffers, self.local_arg_buffers, gt,
            private_arena=self.private_arena,
        )
        ex.emit_group_executed = False
        ex.phase = self.phase
        ex.alive = step.alive_before.copy()
        ex._arena_next = self.arena_next
        for v, arr in self.env.items():
            if arr is None:
                continue
            ex.values[v] = (
                arr[row].copy() if arr.ndim == _expected_ndim(v) else arr.copy()
            )
        for a, arr in self.slots.items():
            ex.slots[a] = arr[row].copy()
        ex.resume_block(bb, inst_idx, step.mask.copy(), pending)

        if gt is not None:
            # the resume path traced through the scratch local buffers;
            # map those events back onto the serial arena ids
            for e in gt.events[n_prefix:]:
                m = self.scratch_map.get(e.buffer_id)
                if m is not None:
                    sid, stride = m
                    e.buffer_id = sid
                    e.offsets = e.offsets - slot * stride
        self._done[slot] = gt

    def _compact(self, keep: np.ndarray) -> None:
        for v, arr in self.env.items():
            if arr is not None and arr.ndim == _expected_ndim(v):
                self.env[v] = arr[keep]
        for a, arr in self.slots.items():
            self.slots[a] = arr[keep]
        self.live = self.live[keep]
        self.bctx.compact(keep)

    # -- trace splitting ---------------------------------------------------
    def _split_events(self, slot: int) -> List[MemEvent]:
        """Events of one group (the eviction path: records up to now).

        Consecutive records overwhelmingly share the same ``live``
        array object, so the slot's row index is recomputed only when
        the identity changes instead of per record.
        """
        out: List[MemEvent] = []
        last_ref = None
        pos = -1
        for (space, is_store, sid, stride, offs, lanes, elem,
             phase, inst_id, live_ref) in self.records:
            if live_ref is not last_ref:
                last_ref = live_ref
                p = int(np.searchsorted(live_ref, slot))
                pos = p if p < len(live_ref) and live_ref[p] == slot else -1
            if pos < 0:
                continue
            # codegen element-domain records defer the byte conversion
            # as a lazy ``(element indices, shift)`` pair
            if type(offs) is tuple:
                offs = offs[0] << offs[1]
            row = offs[pos]
            out.append(MemEvent(
                space, is_store, sid,
                row - slot * stride if stride else row,
                lanes, elem, phase, inst_id,
            ))
        return out

    def _split_surviving(self) -> None:
        """Split the batch's records into per-survivor GroupTraces.

        One record-outer pass: each record's rows are dealt to the
        groups named by its ``live`` array directly, so no per-group
        index search happens at all (the searchsorted-per-record cost
        of :meth:`_split_events` times the batch size was the single
        hottest part of replay).
        """
        slots = [int(s) for s in self.live]
        per_slot = split_records(self.records, slots)
        for slot in slots:
            gt = GroupTrace(self.slot_gids[slot], self.n)
            gt.inst_count = self.pilot_inst_count
            gt.barriers = self.pilot_barriers
            gt.events = per_slot[slot]
            self._done[slot] = gt

    # -- batched replay ----------------------------------------------------
    def _reset_batch(self, slot_gids: List[Tuple[int, ...]]) -> None:
        """Reset all per-batch state and bind entry values for the batch."""
        G0 = len(slot_gids)
        self.slot_gids = slot_gids
        self._batch_size = G0
        self.live = np.arange(G0, dtype=np.int64)
        self.env.clear()
        self.slots.clear()
        self.records = []
        self.phase = 0
        self.barriers = 0
        self.inst_count = 0
        self.arena_next = 0
        self._done = {}
        self.scratch_map = {}
        self._scratch = []
        self._scratch_next = _SCRATCH_BASE
        self._private_slabs = []
        self.bctx = _BatchedContext(slot_gids, self.lsize, self.gsize)
        n = self.n

        # argument bindings: group-uniform values stay (n,) exactly as
        # the serial executor builds them; per-group local bases get
        # the batch axis
        for arg, v in self.arg_values.items():
            if isinstance(v, Buffer):
                self.env[arg] = np.full(n, v.base_addr, dtype=np.int64)
            else:
                self.env[arg] = np.full(n, v, dtype=_np_type(arg.type))
        for owner, buf in list(self.local_buffers.items()) + list(
            self.local_arg_buffers.items()
        ):
            nbytes = buf.nbytes
            sbuf = self._new_scratch(G0 * nbytes)
            self.scratch_map[sbuf.id] = (buf.id, nbytes)
            bases = sbuf.base_addr + np.arange(G0, dtype=np.int64) * nbytes
            self.env[owner] = np.broadcast_to(bases[:, None], (G0, n))

    def _apply_guard(self, step: _Step) -> None:
        g = step.guard
        if g is None or not len(self.live):
            return
        getter, expected, term_idx = g
        c = getter()
        if c.ndim == 1:
            cm = np.broadcast_to(c, (len(self.live), self.n))[:, step.mask]
        else:
            cm = c[:, step.mask]
        bad = (cm != expected).any(axis=1)
        if bad.any():
            self._evict(bad, step.bb, term_idx, "branch divergence")

    def _run_steps(self, si0: int, op_start: int, count_first: bool) -> None:
        """Run the tape from step ``si0``, entering its op list at
        ``op_start`` (the codegen divert path re-enters mid-step; the
        diverged group's ``inst_count`` already includes that step when
        ``count_first`` is False)."""
        with np.errstate(all="ignore"):
            for si in range(si0, len(self.steps)):
                step = self.steps[si]
                if not len(self.live):
                    break
                self.step_idx = si
                if count_first or si > si0:
                    self.inst_count += step.weight
                ops = step.ops
                for oi in range(op_start if si == si0 else 0, len(ops)):
                    ops[oi]()
                self._apply_guard(step)

    def _finish_batch(self) -> Dict[int, Optional[GroupTrace]]:
        if self.collect_trace:
            self._split_surviving()
        else:
            for slot in self.live:
                self._done[int(slot)] = None
        return self._done

    def _cleanup_batch(self) -> None:
        for buf in self._scratch:
            self.memory.buffers.pop(buf.id, None)
        self._scratch = []
        self._private_slabs = []

    def release(self) -> None:
        """Drop the step and closure tables when the launch ends.

        The compiled closures capture this executor, whose ``arg_values``
        hold the launch's buffers: left in place, that cycle keeps every
        buffer alive until the cyclic collector next runs.  The steps
        may belong to a cached pilot schedule, so only the closures are
        cleared on them; a later executor recompiles its own.
        """
        for step in self.steps:
            step.ops = []
            step.op_pos = {}
            step.guard = None
        self.steps = []
        self._closures_ready = False

    def replay_batch(
        self, slot_gids: List[Tuple[int, ...]]
    ) -> Dict[int, Optional[GroupTrace]]:
        """Run one batch of groups through the tape; returns slot -> trace."""
        self._reset_batch(slot_gids)
        try:
            self._run_steps(0, 0, True)
            return self._finish_batch()
        finally:
            self._cleanup_batch()


def execute_tape(
    kernel: Function,
    picks: np.ndarray,
    groups_per_dim: Tuple[int, ...],
    gsize: Tuple[int, ...],
    lsize: Tuple[int, ...],
    arg_values: Dict[Argument, object],
    local_buffers: Dict[LocalArray, Buffer],
    local_arg_buffers: Dict[Argument, Buffer],
    memory: Memory,
    private_arena: List[Buffer],
    collect_trace: bool,
    tape_batch: int,
    store: Optional[TraceSpillStore] = None,
) -> Tuple[List[GroupTrace], int]:
    """Execute ``picks`` with the tape backend; the drop-in replacement
    for the serial group loop of :func:`repro.runtime.ndrange.launch`.

    Returns ``(group_traces, work_items)`` — traces in pick order when
    ``collect_trace`` — with buffer side effects equivalent to the
    serial loop for group-independent kernels.
    """
    ndim = len(gsize)

    def gid_of(flat: int) -> Tuple[int, ...]:
        gid = []
        rem = int(flat)
        for d in range(ndim):
            gid.append(rem % groups_per_dim[d])
            rem //= groups_per_dim[d]
        return tuple(gid)

    gids = [gid_of(p) for p in picks]

    # pilot: the reference scheduler + schedule recording, on the very
    # serial-arena buffers a reference launch uses (identical trace ids)
    t0 = time.perf_counter()
    ctx0 = WorkItemContext(gids[0], lsize, gsize)
    pilot_gt = GroupTrace(gids[0], ctx0.n_lanes)
    pilot = _RecordingExecutor(
        kernel, ctx0, memory, arg_values, local_buffers, local_arg_buffers,
        pilot_gt, private_arena=private_arena,
    )
    pilot.run()
    work_items = ctx0.n_lanes
    if store is not None and collect_trace:
        store.adopt(pilot_gt)
    traces: Dict[int, Optional[GroupTrace]] = {
        0: pilot_gt if collect_trace else None
    }

    if len(picks) > 1:
        tape = TapeExecutor(
            kernel, lsize, gsize, arg_values, local_buffers,
            local_arg_buffers, memory, private_arena, collect_trace, pilot,
        )
        events.emit(
            "tape_compile",
            kernel=kernel.name,
            steps=len(tape.steps),
            closures=tape.n_closures,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        t1 = time.perf_counter()
        rest = list(range(1, len(picks)))
        n_batches = 0
        try:
            for lo in range(0, len(rest), tape_batch):
                chunk = rest[lo:lo + tape_batch]
                n_batches += 1
                out = tape.replay_batch([gids[i] for i in chunk])
                if store is not None and collect_trace:
                    store.adopt_group_lists(out)
                for slot, gt in out.items():
                    traces[chunk[slot]] = gt
                work_items += ctx0.n_lanes * len(chunk)
        finally:
            tape.release()
        events.emit(
            "tape_replay",
            kernel=kernel.name,
            groups=len(rest),
            batches=n_batches,
            evicted=tape.evicted,
            wall_ms=(time.perf_counter() - t1) * 1e3,
        )

    for i in range(len(picks)):
        events.emit(
            "group_executed", group_id=list(gids[i]), work_items=ctx0.n_lanes
        )
    group_traces = (
        [traces[i] for i in range(len(picks))] if collect_trace else []
    )
    return group_traces, work_items


def _BINOPS_FACTORY(inst: BinOp):
    """Resolve a BinOp's opcode to a two-argument array function once."""
    op = inst.opcode
    ty = inst.type
    if op in (Opcode.ADD, Opcode.FADD):
        return lambda a, b: a + b
    if op in (Opcode.SUB, Opcode.FSUB):
        return lambda a, b: a - b
    if op in (Opcode.MUL, Opcode.FMUL):
        return lambda a, b: a * b
    if op == Opcode.FDIV:
        return lambda a, b: a / b
    if op in (Opcode.SDIV, Opcode.UDIV):
        return lambda a, b: GroupExecutor._int_div(a, b, ty)
    if op in (Opcode.SREM, Opcode.UREM):
        def rem(a, b):
            q = GroupExecutor._int_div(a, b, ty)
            return a - q * b
        return rem
    if op == Opcode.AND:
        return lambda a, b: a & b
    if op == Opcode.OR:
        return lambda a, b: a | b
    if op == Opcode.XOR:
        def xor(a, b):
            if a.dtype == bool:
                return a ^ b
            return a ^ b.astype(a.dtype)
        return xor
    if op == Opcode.SHL:
        return lambda a, b: a << (b & (a.dtype.itemsize * 8 - 1))
    if op == Opcode.ASHR:
        return lambda a, b: a >> (b & (a.dtype.itemsize * 8 - 1))
    if op == Opcode.LSHR:
        def lshr(a, b):
            udt = np.dtype(f"u{a.dtype.itemsize}")
            return (
                a.view(udt) >> (b & (a.dtype.itemsize * 8 - 1)).view(udt)
            ).view(a.dtype)
        return lshr
    raise RuntimeLaunchError(f"unknown opcode {op}")  # pragma: no cover
