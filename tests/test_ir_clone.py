"""``Function.clone`` / ``Module.clone``: the structural copy the compile
cache hands out on every hit and the barrier rule analyzes per site.

A clone must be indistinguishable from the original to every consumer —
printer, verifier, trace records (instruction ids), the race analyzer
(pair order by id) and the Grover pass (use-list order decides which
candidate it meets first) — while sharing no mutable IR object with it.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.apps.harness import compile_app
from repro.apps.registry import all_apps
from repro.core import GroverPass
from repro.frontend import compile_source
from repro.ir import instructions as ir_instructions
from repro.ir.builder import IRBuilder
from repro.ir.function import Function, Module
from repro.ir.instructions import Instruction
from repro.ir.printer import print_function, print_module
from repro.ir.types import AddressSpace, FLOAT, I32, PointerType
from repro.ir.values import Constant
from repro.ir.verifier import verify_function, verify_module

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.cl"))
)


def _values(fn: Function):
    """Every value of ``fn`` with a use list, in a deterministic order."""
    out = list(fn.args) + list(fn.local_arrays)
    seen = {id(v) for v in out}
    for inst in fn.instructions():
        for v in [inst, *inst.operands]:
            if id(v) not in seen:
                seen.add(id(v))
                out.append(v)
    return out


def _objects(fn: Function):
    """Every mutable IR object reachable from ``fn``: values, blocks, the
    function itself and all their lists."""
    objs = [fn, fn.args, fn.blocks, fn.local_arrays]
    for bb in fn.blocks:
        objs += [bb, bb.instructions]
    for v in _values(fn):
        objs += [v, v.uses]
        if isinstance(v, Instruction):
            objs.append(v.operands)
    return objs


def assert_faithful_clone(orig: Function, clone: Function) -> None:
    assert print_function(clone) == print_function(orig)
    verify_function(clone)
    assert [bb.name for bb in clone.blocks] == [bb.name for bb in orig.blocks]
    assert [i.id for i in clone.instructions()] == [
        i.id for i in orig.instructions()
    ]
    # walking both in the same order pairs every value with its clone
    old_vals, new_vals = _values(orig), _values(clone)
    assert len(old_vals) == len(new_vals)
    mapping = {id(o): n for o, n in zip(old_vals, new_vals)}
    for o, n in zip(old_vals, new_vals):
        assert type(n) is type(o)
        assert n.type == o.type and n.name == o.name
        assert [(id(u), i) for u, i in n.uses] == [
            (id(mapping[id(u)]), i) for u, i in o.uses
        ], f"use list of {o!r} not mapped element-wise"
    block_of = {id(o): n for o, n in zip(orig.blocks, clone.blocks)}
    for bb_o, bb_n in zip(orig.blocks, clone.blocks):
        assert bb_n.parent is clone
        for i_o, i_n in zip(bb_o.instructions, bb_n.instructions):
            assert i_n.parent is bb_n
            if i_o.is_terminator:
                assert i_n.successors() == [
                    block_of[id(s)] for s in i_o.successors()
                ]
    shared = {id(o) for o in _objects(orig)} & {id(o) for o in _objects(clone)}
    assert not shared, "clone shares IR objects with the original"


def _app_kernels():
    for app in all_apps():
        for variant in ("with", "without"):
            yield pytest.param(app, variant, id=f"{app.id}-{variant}")


@pytest.mark.parametrize("app,variant", _app_kernels())
def test_app_kernels_clone_faithfully(app, variant):
    kernel, _ = compile_app(app, variant)
    assert_faithful_clone(kernel, kernel.clone())


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p)[:21] for p in CORPUS]
)
def test_corpus_modules_clone_faithfully(path):
    with open(path) as fh:
        module = compile_source(fh.read())
    copy = module.clone()
    assert print_module(copy) == print_module(module)
    verify_module(copy)
    assert list(copy.functions) == list(module.functions)
    for name, fn in module.functions.items():
        assert_faithful_clone(fn, copy.functions[name])


def _two_equal_constants():
    fn = Function("k", [I32], ["n"], is_kernel=True)
    b = IRBuilder(fn.add_block("entry"))
    c1, c2 = Constant(I32, 4), Constant(I32, 4)
    assert c1 == c2 and c1 is not c2
    x = b.add(fn.arg("n"), c1, "x")
    y = b.mul(fn.arg("n"), c2, "y")
    b.add(x, y, "z")
    b.ret()
    return fn


def test_equal_constants_stay_distinct():
    """An old -> new map keyed by value would merge the two constants; the
    DCE-style erase below then fails with ``list.remove(x): x not in list``."""
    fn = _two_equal_constants()
    clone = fn.clone()
    assert_faithful_clone(fn, clone)
    x, y = clone.blocks[0].instructions[:2]
    assert x.operands[1] is not y.operands[1]
    assert x.operands[1].uses == [(x, 1)] and y.operands[1].uses == [(y, 1)]
    z = clone.blocks[0].instructions[2]
    z.erase_from_parent()
    y.erase_from_parent()
    x.erase_from_parent()
    assert x.operands == [] and clone.args[0].uses == []
    verify_function(fn)  # the original is untouched
    assert [len(i.operands) for i in fn.instructions()] == [2, 2, 2, 0]


def test_clone_copies_ids_instead_of_drawing_new_ones():
    fn = _two_equal_constants()
    before = next(ir_instructions._id_counter)
    clone = fn.clone()
    after = next(ir_instructions._id_counter)
    assert after == before + 1
    assert [i.id for i in clone.instructions()] == [i.id for i in fn.instructions()]


def test_use_list_order_survives_when_it_differs_from_program_order():
    fn = Function("k", [I32], ["n"], is_kernel=True)
    b = IRBuilder(fn.add_block("entry"))
    n = fn.arg("n")
    one = Constant(I32, 1)
    a = b.add(n, one, "a")
    c = b.mul(one, one, "c")
    b.ret()
    # rewire so the use list runs against program order
    a.set_operand(0, c)
    a.set_operand(0, n)
    c.set_operand(1, n)
    assert [u.name for u, _ in n.uses] == ["a", "c"]
    a.set_operand(0, one)
    a.set_operand(0, n)
    assert [u.name for u, _ in n.uses] == ["c", "a"]
    clone = fn.clone()
    assert [u.name for u, _ in clone.args[0].uses] == ["c", "a"]
    assert_faithful_clone(fn, clone)


def test_module_clone_keeps_a_cross_function_constant_shared():
    mod = Module("m")
    shared = Constant(FLOAT, 2.0)
    for name in ("f", "g"):
        fn = Function(name, [PointerType(FLOAT, AddressSpace.GLOBAL)], ["p"])
        b = IRBuilder(fn.add_block("entry"))
        b.store(shared, fn.arg("p"))
        b.ret()
        mod.add_function(fn)
    copy = mod.clone()
    cf, cg = (copy.functions[k].blocks[0].instructions[0] for k in ("f", "g"))
    assert cf.operands[0] is cg.operands[0] is not shared
    assert [u for u, _ in cf.operands[0].uses] == [cf, cg]
    assert print_module(copy) == print_module(mod)


def test_clone_rejects_an_operand_from_outside_the_function():
    other = Function("o", [I32], ["m"])
    fn = Function("k", [I32], ["n"], is_kernel=True)
    b = IRBuilder(fn.add_block("entry"))
    b.add(fn.arg("n"), other.arg("m"))
    b.ret()
    with pytest.raises(ValueError, match="not defined"):
        fn.clone()


@pytest.mark.parametrize("app", list(all_apps()), ids=lambda a: a.id)
def test_grover_on_a_clone_matches_grover_on_the_original(app):
    kernel, _ = compile_app(app, "with")
    clone = kernel.clone()
    rep_o = GroverPass(arrays=app.arrays).run(kernel)
    rep_c = GroverPass(arrays=app.arrays).run(clone)
    # the rewrite's new instructions draw fresh ids, so compare the text
    assert print_function(clone) == print_function(kernel)
    assert str(rep_c) == str(rep_o)


def test_types_and_enums_are_shared_not_copied():
    fn = _two_equal_constants()
    clone = fn.clone()
    for o, n in zip(fn.instructions(), clone.instructions()):
        assert n.type is o.type
        assert getattr(n, "opcode", None) is getattr(o, "opcode", None)
