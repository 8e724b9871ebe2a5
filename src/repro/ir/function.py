"""Functions, basic blocks and modules."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.instructions import Instruction
from repro.ir.types import ArrayType, PointerType, Type, VOID
from repro.ir.values import Argument, Constant, LocalArray, Value

_block_ids = itertools.count()


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "") -> None:
        self.name = name or f"bb{next(_block_ids)}"
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    # -- insertion -----------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before(self, anchor: Instruction, inst: Instruction) -> Instruction:
        """Insert ``inst`` immediately before ``anchor`` (must be in this block)."""
        idx = self.instructions.index(anchor)
        return self.insert(idx, inst)

    # -- structure -----------------------------------------------------------
    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function:
    """A kernel or helper function."""

    def __init__(
        self,
        name: str,
        arg_types: Sequence[Type],
        arg_names: Sequence[str],
        ret_type: Type = VOID,
        is_kernel: bool = False,
    ) -> None:
        if len(arg_types) != len(arg_names):
            raise ValueError("arg_types/arg_names length mismatch")
        self.name = name
        self.ret_type = ret_type
        self.is_kernel = is_kernel
        self.args: List[Argument] = [
            Argument(ty, nm, i) for i, (ty, nm) in enumerate(zip(arg_types, arg_names))
        ]
        self.blocks: List[BasicBlock] = []
        #: __local arrays declared in the kernel body
        self.local_arrays: List[LocalArray] = []
        #: required work-group size if declared (reqd_work_group_size)
        self.reqd_work_group_size: Optional[tuple] = None

    # -- construction --------------------------------------------------------
    def add_block(self, name: str = "", after: Optional[BasicBlock] = None) -> BasicBlock:
        bb = BasicBlock(name)
        bb.parent = self
        if after is None:
            self.blocks.append(bb)
        else:
            self.blocks.insert(self.blocks.index(after) + 1, bb)
        return bb

    def add_local_array(self, array_type: ArrayType, name: str) -> LocalArray:
        la = LocalArray(array_type, name)
        self.local_arrays.append(la)
        return la

    def remove_local_array(self, la: LocalArray) -> None:
        self.local_arrays.remove(la)

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def arg(self, name: str) -> Argument:
        for a in self.args:
            if a.name == name:
                return a
        raise KeyError(f"no argument named {name!r} in {self.name}")

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    def local_array(self, name: str) -> LocalArray:
        for la in self.local_arrays:
            if la.name == name:
                return la
        raise KeyError(f"no local array named {name!r} in {self.name}")

    def clone(self) -> "Function":
        """A structurally identical, fully unshared copy of this function.

        Instruction ids, block and value names and the order of every use
        list are preserved; types and enums are shared (they are frozen).
        """
        cloner = _Cloner()
        new = cloner.function(self)
        cloner.finish()
        return new

    def __repr__(self) -> str:  # pragma: no cover
        kind = "kernel" if self.is_kernel else "func"
        return f"<{kind} {self.name} ({len(self.blocks)} blocks)>"


class Module:
    """A translation unit: a set of functions plus named constants."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name}")
        self.functions[fn.name] = fn
        return fn

    def clone(self) -> "Module":
        """Clone every function (see :meth:`Function.clone`) through one
        shared value map, so a constant shared across functions stays
        shared in the copy."""
        cloner = _Cloner()
        new = Module(self.name)
        for name, fn in self.functions.items():
            new.functions[name] = cloner.function(fn)
        cloner.finish()
        return new

    def kernels(self) -> List[Function]:
        return [f for f in self.functions.values() if f.is_kernel]

    def kernel(self, name: Optional[str] = None) -> Function:
        """Fetch a kernel by name, or the sole kernel if unambiguous."""
        if name is not None:
            fn = self.functions[name]
            if not fn.is_kernel:
                raise KeyError(f"{name} is not a kernel")
            return fn
        ks = self.kernels()
        if len(ks) != 1:
            raise KeyError(f"module has {len(ks)} kernels; specify a name")
        return ks[0]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())


# -- structural cloning ---------------------------------------------------------

#: per instruction class: the slots it adds to Value's and Instruction's
_EXTRA_SLOTS: Dict[type, Tuple[str, ...]] = {}


def _extra_slots(cls: type) -> Tuple[str, ...]:
    slots = _EXTRA_SLOTS.get(cls)
    if slots is None:
        slots = _EXTRA_SLOTS[cls] = tuple(
            slot
            for klass in cls.__mro__
            if klass not in (Instruction, Value, object)
            for slot in klass.__dict__.get("__slots__", ())
        )
    return slots


class _Cloner:
    """Copies IR in the manner of LLVM's ``CloneFunction``: walk the blocks
    in order building an old -> new value map, then remap operands,
    branch targets, parent links and use lists through it.

    The map is keyed by object identity — :class:`Constant` compares by
    value, so a value-keyed map would merge two distinct but equal
    constants and corrupt their use lists.
    """

    def __init__(self) -> None:
        self.vmap: Dict[int, Value] = {}
        #: the original of every cloned value, for the use-list pass
        self.olds: List[Value] = []

    def _add(self, old: Value, new: Value) -> Value:
        self.vmap[id(old)] = new
        self.olds.append(old)
        return new

    def _operand(self, old: Value) -> Value:
        """Clone of an operand not met yet: only a constant may be one."""
        if not isinstance(old, Constant):
            raise ValueError(f"operand {old!r} is not defined in the cloned IR")
        # constants live outside blocks: clone each on its first use
        new = object.__new__(Constant)
        new.type, new.name, new.uses, new.value = old.type, old.name, [], old.value
        return self._add(old, new)

    def function(self, fn: Function) -> Function:
        new = object.__new__(Function)
        new.__dict__.update(fn.__dict__)
        new.args = []
        for a in fn.args:
            na = object.__new__(Argument)
            na.type, na.name, na.uses, na.index = a.type, a.name, [], a.index
            new.args.append(self._add(a, na))
        new.local_arrays = []
        for la in fn.local_arrays:
            nla = object.__new__(LocalArray)
            nla.type, nla.name, nla.uses = la.type, la.name, []
            nla.array_type = la.array_type
            new.local_arrays.append(self._add(la, nla))
        bmap: Dict[int, BasicBlock] = {}
        new.blocks = []
        for bb in fn.blocks:
            nb = object.__new__(BasicBlock)
            nb.name, nb.parent, nb.instructions = bb.name, new, []
            bmap[id(bb)] = nb
            new.blocks.append(nb)
        for bb, nb in zip(fn.blocks, new.blocks):
            for inst in bb.instructions:
                cls = type(inst)
                ni = object.__new__(cls)
                ni.type, ni.name, ni.uses = inst.type, inst.name, []
                # ids are copied, not drawn afresh: trace records and the
                # race analyzer's pair order are keyed on them
                ni.parent, ni.id = nb, inst.id
                for slot in _extra_slots(cls):
                    v = getattr(inst, slot)
                    setattr(ni, slot, bmap[id(v)] if isinstance(v, BasicBlock) else v)
                nb.instructions.append(self._add(inst, ni))
        # operands only now: an operand may be defined in a later block
        vget = self.vmap.get
        for bb, nb in zip(fn.blocks, new.blocks):
            for inst, ni in zip(bb.instructions, nb.instructions):
                ops = ni.operands = []
                for op in inst.operands:
                    nop = vget(id(op))
                    ops.append(nop if nop is not None else self._operand(op))
        return new

    def finish(self) -> None:
        """Rebuild every use list entry for entry, in the original's order
        (use order decides which candidate the Grover pass meets first)."""
        vmap = self.vmap
        for old in self.olds:
            vmap[id(old)].uses = [
                (vmap[id(user)], idx) for user, idx in old.uses if id(user) in vmap
            ]
