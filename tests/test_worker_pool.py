"""The process-wide persistent worker pool (DESIGN.md §17).

Worker processes must survive across fan-outs — consecutive matrices,
fuzz campaigns and sharded launches reuse the *same pids* instead of
forking a pool per call — and the pool must recycle itself when a
worker dies, grow for wider fan-outs, and be torn down by the session
that first acquired it.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.parallel import pool as worker_pool
from repro.parallel.engine import make_pool
from repro.runtime import Memory, launch
from repro.session import Session, events

_SOURCE = r"""
__kernel void copy(__global float* out, __global const float* in)
{
    out[get_global_id(0)] = in[get_global_id(0)];
}
"""


def _launch_copy(kernel, workers=2, groups=4, lsize=8):
    n = groups * lsize
    mem = Memory()
    data = np.arange(n, dtype=np.float32)
    args = {"in": mem.from_array(data, "in"), "out": mem.alloc(data.nbytes, "out")}
    launch(
        kernel, (n,), (lsize,), args, memory=mem,
        collect_trace=True, workers=workers,
    )
    return args["out"].read(np.float32, n)


def _shared_pids():
    pool = worker_pool._SHARED
    assert pool is not None, "no shared pool was created"
    pids = pool.worker_pids()
    assert pids, "shared pool has no live worker processes"
    return pool, pids


# ---------------------------------------------------------------------------
# pid stability: no per-call executor churn
# ---------------------------------------------------------------------------


def test_matrix_reuses_worker_processes():
    from repro.parallel.matrix import run_matrix
    from repro.perf.devices import CPU_DEVICES

    dev = [next(iter(CPU_DEVICES))]
    first = run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=dev, workers=2, scale="test"
    )
    pool1, pids1 = _shared_pids()
    second = run_matrix(
        apps=["AMD-MM", "AMD-MT"], devices=dev, workers=2, scale="test"
    )
    pool2, pids2 = _shared_pids()
    assert pool1 is pool2
    assert pids1 == pids2  # same worker processes, not a fresh fork
    assert first.values == second.values


def test_fuzz_campaigns_reuse_worker_processes(tmp_path):
    from repro.fuzz.runner import FuzzOptions, run_fuzz

    opts = FuzzOptions(
        seed=11, count=3, workers=2, out_dir=str(tmp_path / "repros")
    )
    run_fuzz(opts)
    pool1, pids1 = _shared_pids()
    run_fuzz(opts)
    pool2, pids2 = _shared_pids()
    assert pool1 is pool2
    assert pids1 == pids2


def test_sharded_launches_reuse_workers_and_warm_kernels():
    worker_pool.reset_stats()
    kernel = compile_kernel(_SOURCE)
    out1 = _launch_copy(kernel, workers=2)
    _, pids1 = _shared_pids()
    out2 = _launch_copy(kernel, workers=2)
    _, pids2 = _shared_pids()
    assert pids1 == pids2
    np.testing.assert_array_equal(out1, out2)

    stats = worker_pool.stats()
    assert stats["tasks"] == 4  # 2 launches x 2 shards
    hits = sum(c["kernel_cache_hits"] for c in stats["per_worker"].values())
    misses = sum(c["kernel_cache_misses"] for c in stats["per_worker"].values())
    # each worker unpickles the kernel at most once; every further task
    # on that worker finds it warm
    assert misses <= len(pids1)
    assert hits >= stats["tasks"] - len(pids1)
    assert hits >= 1


def test_generation_change_invalidates_warm_kernels():
    worker_pool.reset_stats()
    kernel = compile_kernel(_SOURCE)
    with Session(tape_batch=64).activate():
        _launch_copy(kernel, workers=2)
    with Session(tape_batch=128).activate():  # new shard config generation
        _launch_copy(kernel, workers=2)
    stats = worker_pool.stats()
    misses = sum(c["kernel_cache_misses"] for c in stats["per_worker"].values())
    # the config change forces at least one re-unpickle somewhere even
    # though kernel bytes are identical
    assert misses >= 2


# ---------------------------------------------------------------------------
# recycling
# ---------------------------------------------------------------------------


def test_pool_recycles_after_worker_death():
    kernel = compile_kernel(_SOURCE)
    _launch_copy(kernel, workers=2)
    pool1, pids1 = _shared_pids()

    os.kill(pids1[-1], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not pool1.broken and time.monotonic() < deadline:
        time.sleep(0.05)
    assert pool1.broken

    with events.collect() as sink:
        out = _launch_copy(kernel, workers=2)  # acquire() must recycle
    np.testing.assert_array_equal(out, np.arange(32, dtype=np.float32))
    pool2, _ = _shared_pids()
    assert pool2 is not pool1
    recycles = sink.of_kind("pool_recycle")
    assert len(recycles) == 1
    assert recycles[0].payload["reason"] == "worker died"


def test_pool_grows_for_wider_fanout():
    p2 = worker_pool.acquire(2, factory=make_pool)
    assert p2 is not None
    with events.collect() as sink:
        p4 = worker_pool.acquire(4, factory=make_pool)
    assert p4 is not None and p4.n_workers == 4
    assert worker_pool._SHARED is p4
    assert sink.of_kind("pool_recycle")[0].payload["reason"] == "grow 2 -> 4"
    # a wide pool serves narrow fan-outs without another recycle
    assert worker_pool.acquire(2, factory=make_pool) is p4


def test_factory_change_recycles():
    p1 = worker_pool.acquire(2, factory=make_pool)

    def other_factory(n):
        return make_pool(n)

    p2 = worker_pool.acquire(2, factory=other_factory)
    assert p2 is not None and p2 is not p1
    assert worker_pool._SHARED is p2


# ---------------------------------------------------------------------------
# ownership
# ---------------------------------------------------------------------------


def test_owning_session_close_tears_down_pool():
    kernel = compile_kernel(_SOURCE)
    with Session():  # __exit__ calls close(), unlike activate()
        _launch_copy(kernel, workers=2)
        assert worker_pool._SHARED is not None
    # Session.close() ran on exit; the owner takes the pool with it
    assert worker_pool._SHARED is None


def test_non_owner_session_close_leaves_pool_warm():
    kernel = compile_kernel(_SOURCE)
    _launch_copy(kernel, workers=2)  # default session owns the pool
    pool1, _ = _shared_pids()
    with Session().activate():
        _launch_copy(kernel, workers=2)
    assert worker_pool._SHARED is pool1  # inner session was not the owner


def test_pool_start_event_emitted_once_per_pool():
    kernel = compile_kernel(_SOURCE)
    with events.collect() as sink:
        _launch_copy(kernel, workers=2)
        _launch_copy(kernel, workers=2)
    starts = sink.of_kind("pool_start")
    assert len(starts) == 1
    assert starts[0].payload["workers"] == 2


# ---------------------------------------------------------------------------
# one level of parallelism
# ---------------------------------------------------------------------------

_NESTED_MATRIX = r"""
import json, sys, warnings
from repro.parallel.engine import PoolFallbackWarning
from repro.parallel.matrix import run_matrix
from repro.session import Session

warnings.simplefilter("error", PoolFallbackWarning)
apps = ["NVD-MT", "PAB-ST"]
with Session(env={}, workers=2):
    nested = run_matrix(apps=apps, scale="test")
serial = run_matrix(apps=apps, scale="test", workers=1)
json.dump({"nested": nested.values, "serial": serial.values,
           "workers": nested.workers, "retried": nested.retried}, sys.stdout)
"""


def test_session_workers_inside_matrix_cases_run_serially():
    """A session-level worker count reaches every launch a matrix case
    makes inside its pool worker; that nested fan-out must run serially
    and silently (a fallback warning, escalated to an error here, would
    surface as a retried case) instead of waiting forever on the pool."""
    import json
    import subprocess
    import sys

    def segments():
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-")}

    before = segments()
    proc = subprocess.Popen(
        [sys.executable, "-c", _NESTED_MATRIX],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("matrix under Session(workers=2) hung")
    assert proc.returncode == 0, err.decode()
    got = json.loads(out)
    assert got["workers"] == 2 and got["retried"] == {}
    assert got["nested"] == got["serial"]
    assert segments() - before == set()
