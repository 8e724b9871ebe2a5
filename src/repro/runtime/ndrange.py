"""NDRange kernel launch: the host-side API of the runtime.

``launch(kernel, global_size, local_size, args=...)`` plays the role of
``clEnqueueNDRangeKernel``: it decomposes the index space into
work-groups, allocates ``__local`` memory per group, executes every group
through the SIMT interpreter, and (optionally) returns a
:class:`~repro.runtime.trace.KernelTrace` for the performance models.

``sample_groups`` limits tracing *and execution* to an evenly spread
subset of work-groups — used by the performance models, which extrapolate
from homogeneous groups (set it only when the output buffers don't
matter).

``workers=N`` shards the launch over N worker processes (contiguous
ranges of the canonical pick list, merged back in shard order); the
result is bit-identical to serial execution for kernels whose
work-groups are independent — the contract enforced by the
differential suite (see :mod:`repro.parallel` and DESIGN.md §9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ir.function import Function
from repro.session import events
from repro.ir.types import AddressSpace, PointerType
from repro.ir.values import Argument, LocalArray
from repro.parallel.engine import resolve_workers
from repro.parallel.sharding import select_groups
from repro.runtime.buffers import Buffer, Memory
from repro.runtime.builtins import WorkItemContext
from repro.runtime.errors import RuntimeLaunchError
from repro.runtime.interpreter import GroupExecutor
from repro.runtime.trace import GroupTrace, KernelTrace

ArgValue = Union[Buffer, int, float, bool]


@dataclass
class LaunchResult:
    trace: Optional[KernelTrace]
    groups_executed: int
    work_items: int


def _normalize(size: Sequence[int]) -> Tuple[int, ...]:
    t = tuple(int(s) for s in size)
    if not 1 <= len(t) <= 3 or any(s <= 0 for s in t):
        raise RuntimeLaunchError(f"bad NDRange size {size}")
    return t


def launch(
    kernel: Function,
    global_size: Sequence[int],
    local_size: Sequence[int],
    args: Dict[str, ArgValue],
    memory: Optional[Memory] = None,
    local_arg_sizes: Optional[Dict[str, int]] = None,
    collect_trace: bool = False,
    sample_groups: Optional[int] = None,
    workers: Optional[int] = None,
    _group_slice: Optional[Tuple[int, int]] = None,
) -> LaunchResult:
    """Execute ``kernel`` over the NDRange.

    ``args`` maps kernel parameter names to :class:`Buffer` objects
    (pointer parameters) or python scalars.  ``local_arg_sizes`` gives
    byte sizes for ``__local`` *pointer parameters* (dynamic local
    memory, set on real OpenCL via ``clSetKernelArg(..., NULL)``).

    ``sample_groups`` must be >= 1; the groups actually executed are an
    evenly spread subset of exactly ``min(sample_groups, total_groups)``
    groups (the linspace picks are strictly increasing once rounded, so
    deduplication never shrinks the subset).  The realised count is
    reported as ``LaunchResult.groups_executed`` and, when tracing, as
    ``KernelTrace.sampled_groups``.

    ``workers`` (default: ``$REPRO_WORKERS``, then 1) shards the
    executed groups over that many processes; results are bit-identical
    to ``workers=1``.  Bad values raise :class:`RuntimeLaunchError`; an
    unavailable pool silently falls back to serial execution.

    ``_group_slice`` is the engine-internal half-open range of the pick
    list a worker shard executes; user code never passes it.

    Local and private (``alloca``) arenas are allocated once and reused
    (re-zeroed) across work-groups — group semantics are identical to a
    fresh allocation per group, without the allocator churn.
    """
    if not kernel.is_kernel:
        raise RuntimeLaunchError(f"{kernel.name} is not a kernel")
    try:
        n_workers = resolve_workers(workers)
    except ValueError as exc:
        raise RuntimeLaunchError(str(exc)) from None
    gsize = _normalize(global_size)
    lsize = _normalize(local_size)
    if len(gsize) != len(lsize):
        raise RuntimeLaunchError("global/local dimensionality mismatch")
    for g, l in zip(gsize, lsize):
        if g % l:
            raise RuntimeLaunchError(
                f"global size {gsize} not divisible by local size {lsize}"
            )

    if memory is None:
        # infer the memory registry from the first buffer argument
        for v in args.values():
            if isinstance(v, Buffer):
                memory = v.mem
                if memory is None:
                    raise RuntimeLaunchError(
                        f"the Memory of buffer {v.name or v.id} no longer "
                        "exists; keep it alive or pass memory="
                    )
                break
        else:
            memory = Memory()

    # bind arguments
    arg_values: Dict[Argument, ArgValue] = {}
    local_ptr_args = []
    for a in kernel.args:
        if a.name not in args:
            if (
                isinstance(a.type, PointerType)
                and a.type.addrspace == AddressSpace.LOCAL
            ):
                local_ptr_args.append(a)
                continue
            raise RuntimeLaunchError(f"missing kernel argument {a.name!r}")
        v = args[a.name]
        if isinstance(a.type, PointerType):
            if a.type.addrspace == AddressSpace.LOCAL:
                local_ptr_args.append(a)
                continue
            if not isinstance(v, Buffer):
                raise RuntimeLaunchError(f"argument {a.name!r} needs a Buffer")
        arg_values[a] = v
    unknown = set(args) - {a.name for a in kernel.args}
    if unknown:
        raise RuntimeLaunchError(f"unknown kernel arguments: {sorted(unknown)}")
    for a in local_ptr_args:
        if not local_arg_sizes or a.name not in local_arg_sizes:
            raise RuntimeLaunchError(
                f"__local pointer argument {a.name!r} needs an entry in local_arg_sizes"
            )

    ndim = len(gsize)
    groups_per_dim = tuple(gsize[d] // lsize[d] for d in range(ndim))
    total_groups = int(np.prod(groups_per_dim))

    # which groups to execute (one shared definition — worker shards
    # recompute the identical pick list from the same inputs)
    try:
        picks = select_groups(total_groups, sample_groups)
    except ValueError as exc:
        raise RuntimeLaunchError(str(exc)) from None

    t_start = time.perf_counter()
    if _group_slice is None:
        events.emit(
            "launch_start",
            kernel=kernel.name,
            global_size=list(gsize),
            local_size=list(lsize),
            total_groups=total_groups,
            workers=n_workers,
        )

    if _group_slice is not None:
        lo, hi = _group_slice
        if not (0 <= lo < hi <= len(picks)):
            raise RuntimeLaunchError(
                f"_group_slice {_group_slice} outside picks [0, {len(picks)})"
            )
        picks = picks[lo:hi]
    elif n_workers > 1:
        from repro.parallel.engine import parallel_launch

        result = parallel_launch(
            kernel, gsize, lsize, args, memory, local_arg_sizes,
            collect_trace, sample_groups, picks, total_groups, n_workers,
        )
        if result is not None:
            events.emit(
                "launch_end",
                kernel=kernel.name,
                groups_executed=result.groups_executed,
                work_items=result.work_items,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                error="",
            )
            return result
        # pool unavailable or payload not shippable -> serial fallback

    from repro.session import current_session

    session = current_session()
    backend = str(session.get("exec_backend"))

    # out-of-core trace handling: every collected GroupTrace is adopted
    # by a spill store that keeps resident event bytes under
    # $REPRO_TRACE_SPILL_MB, compressing the oldest batches to disk and
    # streaming them back transparently on access
    store = None
    if collect_trace:
        from repro.runtime.trace import TraceSpillStore

        store = TraceSpillStore(
            int(session.get("trace_spill_mb")) * 1024 * 1024,
            kernel=kernel.name,
        )

    # __local and private (alloca) arenas are owned by the launch and
    # reused (re-zeroed) across groups instead of alloc/free per group;
    # the finally block returns them to Memory even when a group faults
    # mid-sweep, so an aborted launch never leaks arena buffers
    local_buffers = local_arg_buffers = None
    private_arena: list = []
    group_traces: list = []
    work_items = 0
    try:
        local_buffers = {
            la: memory.alloc(la.nbytes, f"local:{la.name}")
            for la in kernel.local_arrays
        }
        local_arg_buffers = {
            a: memory.alloc(local_arg_sizes[a.name], f"local:{a.name}")
            for a in local_ptr_args
        }

        if backend == "tape" and len(picks) > 1:
            from repro.runtime.tape import execute_tape

            group_traces, work_items = execute_tape(
                kernel, picks, groups_per_dim, gsize, lsize, arg_values,
                local_buffers, local_arg_buffers, memory, private_arena,
                collect_trace, int(session.get("tape_batch")), store=store,
            )
        elif backend == "codegen" and len(picks) > 1:
            from repro.runtime.codegen import execute_codegen

            cache_dir = session.get("codegen_cache_dir")
            group_traces, work_items = execute_codegen(
                kernel, picks, groups_per_dim, gsize, lsize, arg_values,
                local_buffers, local_arg_buffers, memory, private_arena,
                collect_trace, int(session.get("tape_batch")),
                cache_dir=str(cache_dir) if cache_dir else None, store=store,
            )
        else:
            for i, flat in enumerate(picks):
                gid = []
                rem = int(flat)
                for d in range(ndim):
                    gid.append(rem % groups_per_dim[d])
                    rem //= groups_per_dim[d]
                gid_t = tuple(gid)

                ctx = WorkItemContext(gid_t, lsize, gsize)
                work_items += ctx.n_lanes

                if i:
                    for buf in local_buffers.values():
                        buf.data[:] = 0
                    for buf in local_arg_buffers.values():
                        buf.data[:] = 0

                gt = GroupTrace(gid_t, ctx.n_lanes) if collect_trace else None
                ex = GroupExecutor(
                    kernel, ctx, memory, arg_values, local_buffers,
                    local_arg_buffers, gt, private_arena=private_arena,
                )
                ex.run()
                if gt is not None:
                    if store is not None:
                        store.adopt(gt)
                    group_traces.append(gt)
    except Exception as exc:
        # the trace of a failed launch is never returned: close the
        # spill store now so its anonymous spill fd does not survive
        # until garbage collection (the arenas below are freed the same
        # eager way)
        if store is not None:
            store.close()
        if _group_slice is None:
            events.emit(
                "launch_end",
                kernel=kernel.name,
                groups_executed=0,
                work_items=work_items,
                wall_ms=(time.perf_counter() - t_start) * 1e3,
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    except BaseException:
        # KeyboardInterrupt/SystemExit: no launch_end event (the launch
        # was interrupted, not failed), but the spill fd still must go
        if store is not None:
            store.close()
        raise
    finally:
        for buf in (local_buffers or {}).values():
            memory.free(buf)
        for buf in (local_arg_buffers or {}).values():
            memory.free(buf)
        for buf in private_arena:
            memory.free(buf)

    trace = (
        KernelTrace(group_traces, total_groups, lsize, gsize) if collect_trace else None
    )
    if _group_slice is None:
        events.emit(
            "launch_end",
            kernel=kernel.name,
            groups_executed=len(picks),
            work_items=work_items,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            error="",
        )
    return LaunchResult(trace=trace, groups_executed=len(picks), work_items=work_items)
