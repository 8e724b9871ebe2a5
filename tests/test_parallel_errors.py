"""Launch error paths for the sharded engine.

Bad ``workers`` values and worker crashes mid-shard must surface as
:class:`RuntimeLaunchError` — with the failing flat group range for
crashes — never as a raw ``multiprocessing`` traceback or a bare
``ValueError`` from deep inside the pool plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.parallel.engine import WORKERS_ENV, resolve_workers
from repro.runtime import Memory, launch
from repro.runtime.errors import MemoryFault, RuntimeLaunchError

_SOURCE = r"""
__kernel void copy(__global float* out, __global const float* in)
{
    out[get_global_id(0)] = in[get_global_id(0)];
}
"""

# groups other than group 0 read far outside the input buffer, so the
# fault happens mid-shard in a worker that already ran one group fine
_FAULTY_SOURCE = r"""
__kernel void faulty(__global float* out, __global const float* in)
{
    int idx = get_global_id(0);
    if (get_group_id(0) > 0)
        idx = idx + (1 << 20);
    out[get_global_id(0)] = in[idx];
}
"""


def _launch_with(source, workers, groups=4, lsize=8):
    kernel = compile_kernel(source)
    n = groups * lsize
    mem = Memory()
    data = np.arange(n, dtype=np.float32)
    args = {"in": mem.from_array(data, "in"), "out": mem.alloc(data.nbytes, "out")}
    return launch(
        kernel, (n,), (lsize,), args, memory=mem,
        collect_trace=True, workers=workers,
    )


# ---------------------------------------------------------------------------
# bad `workers` arguments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True, False])
def test_bad_workers_raise_launch_error(bad):
    with pytest.raises(RuntimeLaunchError, match="workers"):
        _launch_with(_SOURCE, workers=bad)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "two", True])
def test_resolve_workers_rejects_bad_values(bad):
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(bad)


# ---------------------------------------------------------------------------
# $REPRO_WORKERS environment default
# ---------------------------------------------------------------------------


def test_env_supplies_default_workers(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2  # explicit argument beats the env


def test_env_one_is_the_serial_escape_hatch(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert resolve_workers(None) == 1


@pytest.mark.parametrize("bad", ["zero", "", "0", "-2", "1.5"])
def test_invalid_env_raises(monkeypatch, bad):
    monkeypatch.setenv(WORKERS_ENV, bad)
    with pytest.raises(ValueError, match=WORKERS_ENV):
        resolve_workers(None)


def test_invalid_env_surfaces_as_launch_error(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "banana")
    with pytest.raises(RuntimeLaunchError, match=WORKERS_ENV):
        _launch_with(_SOURCE, workers=None)


# ---------------------------------------------------------------------------
# worker crash mid-shard
# ---------------------------------------------------------------------------


def test_serial_fault_is_the_raw_error():
    with pytest.raises((MemoryFault, IndexError)) as excinfo:
        _launch_with(_FAULTY_SOURCE, workers=1)
    assert not isinstance(excinfo.value, RuntimeLaunchError)


def test_worker_fault_names_the_failing_group_range():
    with pytest.raises(RuntimeLaunchError) as excinfo:
        _launch_with(_FAULTY_SOURCE, workers=2)
    msg = str(excinfo.value)
    assert "flat groups" in msg  # the failing group range is named
    assert "IndexError" in msg or "MemoryFault" in msg  # cause survives
    assert "shard" in msg


def test_worker_fault_range_covers_the_faulting_group():
    """With 4 groups over 2 workers, only shard 0 contains the healthy
    group 0; whichever shard fails, its reported range must exclude a
    range that is only group 0."""
    with pytest.raises(RuntimeLaunchError) as excinfo:
        _launch_with(_FAULTY_SOURCE, workers=2, groups=4)
    assert "flat groups 0..0" not in str(excinfo.value)


# ---------------------------------------------------------------------------
# ISSUE-4 exception narrowing: KeyboardInterrupt/SystemExit propagate,
# deterministic kernel errors are not retried as pool failures
# ---------------------------------------------------------------------------


class _FakeFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self):
        raise self._exc


class _FakePool:
    """Pool double whose every future raises a chosen exception."""

    def __init__(self, exc):
        self._exc = exc

    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False

    def submit(self, fn, *args, **kwargs):
        return _FakeFuture(self._exc)


def test_launch_wraps_worker_exceptions_as_launch_error(monkeypatch):
    import repro.parallel.engine as engine

    monkeypatch.setattr(engine, "make_pool", lambda n: _FakePool(RuntimeError("boom")))
    with pytest.raises(RuntimeLaunchError, match="died: RuntimeError: boom"):
        _launch_with(_SOURCE, workers=2)


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_launch_lets_interrupts_propagate(monkeypatch, exc_type):
    import repro.parallel.engine as engine

    monkeypatch.setattr(engine, "make_pool", lambda n: _FakePool(exc_type()))
    with pytest.raises(exc_type) as excinfo:
        _launch_with(_SOURCE, workers=2)
    assert not isinstance(excinfo.value, RuntimeLaunchError)


def _run_small_matrix(monkeypatch, exc):
    import repro.parallel.engine as engine
    import repro.parallel.matrix as matrix
    from repro.perf.devices import CPU_DEVICES

    monkeypatch.setattr(engine, "make_pool", lambda n: _FakePool(exc))
    dev = next(iter(CPU_DEVICES))
    return matrix.run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=[dev], workers=2, scale="test"
    )


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeLaunchError("bad binding"),
        MemoryFault("oob"),
    ],
)
def test_matrix_does_not_retry_deterministic_kernel_errors(monkeypatch, exc):
    with pytest.raises(RuntimeLaunchError, match="not retrying"):
        _run_small_matrix(monkeypatch, exc)


def test_matrix_does_not_retry_barrier_divergence(monkeypatch):
    from repro.runtime.errors import BarrierDivergenceError

    with pytest.raises(RuntimeLaunchError, match="not retrying"):
        _run_small_matrix(monkeypatch, BarrierDivergenceError("diverged"))


def test_matrix_retries_pool_infrastructure_failures(monkeypatch):
    result = _run_small_matrix(monkeypatch, RuntimeError("lost worker"))
    # both cases recomputed serially, values intact
    assert set(result.retried) == {"AMD-MM", "AMD-MT"}
    assert all(v > 0 for per_app in result.values.values() for v in per_app.values())


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_matrix_lets_interrupts_propagate(monkeypatch, exc_type):
    with pytest.raises(exc_type):
        _run_small_matrix(monkeypatch, exc_type())
