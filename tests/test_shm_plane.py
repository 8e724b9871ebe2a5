"""The zero-copy shared-memory execution plane (DESIGN.md §17).

Three contracts:

* **bit-identity** — every Table III app, both variants, produces the
  same traces and output bytes sharded through the shared-memory arena
  as serially, enforced through :mod:`repro.parallel.diff`;
* **hygiene** — no ``/dev/shm`` segment and no spill fd survives a
  launch on any exit path: success, a worker faulting mid-shard, a
  ``KeyboardInterrupt`` landing in the gather loop, or an arena that
  cannot be published (the launch then runs serially);
* **reuse** — search scoring and tune labeling ride the persistent
  pool and reproduce their serial results bit-for-bit.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import TABLE_ORDER, get_app
from repro.frontend import compile_kernel
from repro.parallel import pool as worker_pool
from repro.parallel.diff import assert_outputs_equal, assert_traces_equal
from repro.runtime import Memory, launch
from repro.runtime.errors import RuntimeLaunchError
from repro.session import events

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
    res = launch(
        kernel, (n,), (lsize,), args, memory=mem,
        collect_trace=True, workers=workers,
    )
    return res, args["out"].read(np.float32, n)


# ---------------------------------------------------------------------------
# bit-identity: all apps, both variants
# ---------------------------------------------------------------------------


WORKER_COUNTS = (2, 4)


@pytest.mark.parametrize(
    "app_id", [pytest.param(a, id=f"{a}-shm-plane") for a in TABLE_ORDER]
)
def test_apps_bit_identical_under_both_planes(app_id):
    app = get_app(app_id)
    for variant in ("with", "without"):
        kernel, report = compile_app(app, variant)
        serial = execute_app(
            app, kernel, variant=variant, scale="test",
            collect_trace=True, report=report,
        )
        for workers in WORKER_COUNTS:
            parallel = execute_app(
                app, kernel, variant=variant, scale="test",
                collect_trace=True, workers=workers, report=report,
            )
            ctx = f"{app_id}[{variant}] workers={workers}"
            assert_traces_equal(serial.trace, parallel.trace, ctx)
            assert_outputs_equal(serial.outputs, parallel.outputs, ctx)


def test_shm_launch_emits_plane_events():
    with events.collect() as sink:
        _launch_with(_SOURCE, workers=2)
    assert len(sink.of_kind("shm_publish")) == 1
    pub = sink.of_kind("shm_publish")[0].payload
    assert pub["buffers"] == 2 and pub["bytes"] > 0
    tasks = sink.of_kind("pool_task")
    assert len(tasks) == 2  # one per shard
    assert sorted(t.payload["shard"] for t in tasks) == [0, 1]
    assert all(t.payload["groups"] == 2 for t in tasks)


# ---------------------------------------------------------------------------
# hygiene: nothing survives any exit path
# ---------------------------------------------------------------------------


def _dev_shm() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _warm():
    """Fork the persistent pool before snapshotting: its pipes and the
    executor machinery are long-lived by design, not leaks."""
    _launch_with(_SOURCE, workers=2)


def test_no_segments_or_fds_leak_after_success():
    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()
    for _ in range(3):
        res, out = _launch_with(_SOURCE, workers=2)
        assert res.trace is not None
        del res  # the trace holds the (legitimate) spill store
    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before


def test_no_segments_or_fds_leak_after_worker_fault():
    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()
    for _ in range(2):
        with pytest.raises(RuntimeLaunchError, match="failed"):
            _launch_with(_FAULTY_SOURCE, workers=2)
    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before


def test_no_segments_or_fds_leak_after_interrupt(monkeypatch):
    """A Ctrl-C landing in the gather loop: the interrupt propagates
    unwrapped, every outstanding shard is drained, and the arena plus
    every shard trace segment is unlinked before the launch unwinds."""
    import repro.parallel.engine as engine

    _warm()
    shm_before, fds_before = _dev_shm(), _open_fds()

    real_receive = engine._receive
    state = {"calls": 0}

    def interrupting_receive(fut):
        state["calls"] += 1
        if state["calls"] == 1:
            fut.result()  # let the worker finish (it created its segment)
            raise KeyboardInterrupt()
        return real_receive(fut)

    monkeypatch.setattr(engine, "_receive", interrupting_receive)
    with pytest.raises(KeyboardInterrupt):
        _launch_with(_SOURCE, workers=2)
    monkeypatch.setattr(engine, "_receive", real_receive)

    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before
    # the pool survived the interrupt and still serves launches
    _, out = _launch_with(_SOURCE, workers=2)
    np.testing.assert_array_equal(out, np.arange(32, dtype=np.float32))


def test_arena_publish_failure_runs_serially(monkeypatch):
    """A host whose ``/dev/shm`` refuses the arena: the launch falls back
    to the serial loop — observably, bit-identically, leaving nothing."""
    from repro.runtime.buffers import ShmArena

    _warm()
    serial_res, serial_out = _launch_with(_SOURCE, workers=1)
    shm_before, fds_before = _dev_shm(), _open_fds()

    def refuse(cls, name, buffers):
        raise PermissionError(f"no shared memory for {name}")

    monkeypatch.setattr(ShmArena, "publish", classmethod(refuse))
    with events.collect() as sink:
        res, out = _launch_with(_SOURCE, workers=2)
    fallbacks = sink.of_kind("pool_fallback")
    assert [f.payload["where"] for f in fallbacks] == ["shm_publish"]
    assert "PermissionError" in fallbacks[0].payload["error"]
    assert not sink.of_kind("launch_sharded")
    np.testing.assert_array_equal(out, serial_out)
    assert_traces_equal(serial_res.trace, res.trace, "publish-failure launch")
    del res, serial_res
    assert _dev_shm() == shm_before
    assert _open_fds() <= fds_before


# ---------------------------------------------------------------------------
# reuse: search scoring and tune labeling on the persistent pool
# ---------------------------------------------------------------------------


def test_search_reuses_pool_and_reproduces_serial_winners():
    from repro.search import SearchOptions, run_search

    serial = run_search(
        SearchOptions(apps=("NVD-MT",), scale="test", workers=1)
    )
    parallel = run_search(
        SearchOptions(apps=("NVD-MT",), scale="test", workers=2)
    )
    assert worker_pool._SHARED is not None  # scoring went through the pool
    s, p = serial.results[0], parallel.results[0]
    assert s.winner.pipeline == p.winner.pipeline
    assert s.winner.cycles == p.winner.cycles
    assert s.baseline.cycles == p.baseline.cycles


def test_label_corpus_reuses_pool_and_reproduces_serial_labels():
    from repro.tune.label import label_corpus

    kw = dict(
        sources=("fuzz",), depth=1, scale="test",
        sample_groups=4, fuzz_count=2,
    )
    serial = label_corpus(workers=1, **kw)
    parallel = label_corpus(workers=2, **kw)
    assert worker_pool._SHARED is not None
    assert serial == parallel  # bit-for-bit labels, deterministic order



@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_first_publish_sweeps_segments_of_dead_processes(monkeypatch):
    """A launch killed before its ``finally`` leaves ``repro-<pid>-<seq>a``
    behind; the next process's first publish removes it, and never a
    segment whose owner is alive."""
    from repro.runtime import buffers

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid now names no process
    orphans = [f"repro-{child.pid}-1a", f"repro-{child.pid}-1t0"]
    mine = [f"repro-{os.getpid()}-999999a", f"repro-{os.getpid()}-999999t1"]

    def make(name):
        os.close(os.open(f"/dev/shm/{name}", os.O_CREAT | os.O_EXCL, 0o600))

    def publish():
        arena = buffers.ShmArena.publish(f"repro-{os.getpid()}-999998a", {})
        arena.close()
        arena.unlink()

    for name in orphans + mine:
        make(name)
    try:
        monkeypatch.setattr(buffers, "_orphans_swept", False)
        publish()
        left = _dev_shm()
        assert not left & set(orphans)
        assert left >= set(mine)
        # only a process's first publish sweeps
        make(orphans[0])
        publish()
        assert orphans[0] in _dev_shm()
    finally:
        for name in orphans + mine:
            try:
                os.unlink(f"/dev/shm/{name}")
            except FileNotFoundError:
                pass
