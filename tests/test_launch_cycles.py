"""A launch's device buffers die by reference counting when it returns.

Nothing reachable only through a reference cycle may hold a
:class:`Buffer` or its numpy backing after ``execute_app``: such memory
lingers until the cyclic collector happens to run, which raised the
paper sweep's peak RSS by a fifth once compile-cache churn stopped
triggering collections.  The two cycles that used to hold them were
``Buffer.mem`` <-> ``Memory.buffers`` and the tape executor <-> the
closures it compiles (which capture the executor, whose ``arg_values``
hold the launch's buffers).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import get_app
from repro.frontend import compile_kernel
from repro.runtime import Buffer, Memory, launch
from repro.runtime.errors import RuntimeLaunchError
from repro.session import Session

APPS = ("NVD-MT", "AMD-MM", "PAB-ST")


def _cyclic_garbage(fn):
    """Run ``fn`` with the collector off; return the Buffers and ndarrays
    that only a cycle kept alive."""
    gc.collect()
    gc.garbage.clear()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return [o for o in gc.garbage if isinstance(o, (Buffer, np.ndarray))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["reference", "tape", "codegen"])
def test_execute_app_leaves_no_buffer_in_a_cycle(backend, workers):
    kernels = [
        (get_app(a), compile_app(get_app(a), v)[0])
        for a in APPS
        for v in ("with", "without")
    ]

    def run():
        with Session(env={}, exec_backend=backend, workers=workers).activate():
            for app, kernel in kernels:
                execute_app(app, kernel, workers=workers, collect_trace=True)

    run()  # warm the pool and every per-process cache first
    leaked = _cyclic_garbage(run)
    assert not leaked, [
        repr(o) if isinstance(o, Buffer) else f"ndarray {o.nbytes} B"
        for o in leaked
    ]


#: groups off the pilot's schedule divert to the tape closures, which the
#: codegen tier compiles onto the steps of its process-wide pilot cache
_DIVERGENT = r"""
__kernel void ev(__global float* out, __global const float* in)
{
    int gi = get_global_id(0);
    int wg = get_group_id(0);
    float acc = in[gi];
    if (wg % 2 == 1) {
        acc = acc * 2.0f + 1.0f;
    }
    out[gi] = acc;
}
"""


@pytest.mark.parametrize("backend", ["tape", "codegen"])
def test_divergent_launch_frees_its_buffers_on_return(backend):
    kernel = compile_kernel(_DIVERGENT)

    def run():
        mem = Memory()
        inb = mem.from_array(np.arange(128, dtype=np.float32), "in")
        out = mem.alloc(128 * 4, "out")
        with Session(env={}, exec_backend=backend, workers=1).activate():
            launch(
                kernel, (128,), (16,), {"in": inb, "out": out},
                memory=mem, collect_trace=True,
            )
        return [weakref.ref(mem), weakref.ref(inb), weakref.ref(out)]

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # the second launch replays from the cached pilot schedule
        refs = run() + run()
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()


def test_buffer_does_not_keep_its_memory_alive():
    mem = Memory()
    buf = mem.alloc(64, "out")
    assert buf.mem is mem
    del mem
    assert buf.mem is None
    # launch infers its Memory from the first buffer: say why it cannot
    kernel = compile_kernel(_DIVERGENT)
    with pytest.raises(RuntimeLaunchError, match="no longer exists"):
        launch(kernel, (16,), (16,), {"out": buf, "in": buf})
