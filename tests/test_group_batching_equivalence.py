"""Bit-identity of the group-batched trace consumers against per-event oracles.

``GPUModel`` costs a work-group with one array pass over all of its
events, and ``GroupTrace.serialized`` builds its per-access columns
with one ``np.repeat`` each.  The per-event formulations they replaced
live on here as oracles: every ``GPUGroupCost`` field and every
serialized column (values *and* dtypes) must match them exactly, on the
real app traces and on seeded random groups.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np
import pytest

from repro.apps.registry import TABLE_ORDER
from repro.experiments import app_trace
from repro.ir.types import AddressSpace
from repro.perf.devices import FERMI, KEPLER, TAHITI
from repro.perf.gpumodel import GPUGroupCost, GPUModel
from repro.runtime.trace import GroupTrace, MemEvent

GPUS = [FERMI, KEPLER, TAHITI]
SPACES = [AddressSpace.LOCAL, AddressSpace.GLOBAL, AddressSpace.CONSTANT]
INT_TYPES = (np.int32, np.int64)
SERIALIZED_SPACES = [
    (AddressSpace.GLOBAL,),
    (AddressSpace.GLOBAL, AddressSpace.CONSTANT, AddressSpace.LOCAL),
    (AddressSpace.LOCAL,),
]


# -- per-event oracles -------------------------------------------------------------


def oracle_spm_degrees(spec, ev: MemEvent) -> np.ndarray:
    """Bank-conflict degree per warp: the maximum number of distinct
    words wanted from one bank (broadcast of the same word is free)."""
    warps = ev.lanes // spec.warp_size
    words = ev.offsets // 4
    banks = words % spec.spm_banks
    tri = np.unique(np.stack([warps, banks, words], axis=1), axis=0)
    wb_change = np.empty(len(tri), dtype=bool)
    wb_change[0] = True
    wb_change[1:] = np.any(tri[1:, :2] != tri[:-1, :2], axis=1)
    wb_starts = np.flatnonzero(wb_change)
    counts = np.diff(np.append(wb_starts, len(tri)))
    warp_of = tri[wb_starts, 0]
    w_change = np.empty(len(warp_of), dtype=bool)
    w_change[0] = True
    w_change[1:] = warp_of[1:] != warp_of[:-1]
    return np.maximum.reduceat(counts, np.flatnonzero(w_change))


def oracle_transaction_lines(spec, ev: MemEvent) -> np.ndarray:
    """One line id per distinct ``segment``-byte block touched by each
    warp, warp-major, segments ascending."""
    warps = ev.lanes // spec.warp_size
    segs = ev.offsets // spec.segment
    pairs = np.unique(np.stack([warps, segs], axis=1), axis=0)
    return (np.int64(ev.buffer_id) << 40) | pairs[:, 1].astype(np.int64)


def oracle_time_group(model: GPUModel, gt: GroupTrace) -> GPUGroupCost:
    s = model.spec
    spm_cycles = 0.0
    streams: List[np.ndarray] = []
    for ev in gt.events:
        if ev.space == AddressSpace.LOCAL:
            spm_cycles += int(oracle_spm_degrees(s, ev).sum()) * s.cost_spm
        else:
            streams.append(oracle_transaction_lines(s, ev))
    mem_cycles = 0.0
    transactions = 0
    if streams:
        stream = np.concatenate(streams)
        transactions = len(stream)
        counts = model._caches().run(stream)
        level_costs = [s.cost_l1, s.cost_l2] if s.global_l1 else [s.cost_l2]
        mem_cycles = sum(h * c for h, c in zip(counts.level_hits, level_costs))
        mem_cycles += counts.memory * s.cost_mem
    return GPUGroupCost(
        compute_cycles=gt.inst_count / s.issue_width,
        mem_cycles=mem_cycles * (1.0 - s.latency_hiding),
        spm_cycles=spm_cycles,
        transactions=transactions,
    )


def oracle_serialized(gt: GroupTrace, spaces):
    """The per-event column construction, as (offsets, buffer ids,
    sizes, stores, spaces) arrays in (phase, lane) order."""
    sel = [e for e in gt.events if e.space in spaces]
    if not sel:
        return None
    offs = np.concatenate([e.offsets for e in sel])
    lanes = np.concatenate([e.lanes for e in sel])
    bufs = np.concatenate([np.full(e.count, e.buffer_id, np.int64) for e in sel])
    sizes = np.concatenate([np.full(e.count, e.elem_size, np.int32) for e in sel])
    stores = np.concatenate([np.full(e.count, e.is_store, bool) for e in sel])
    spc = np.concatenate([np.full(e.count, int(e.space), np.int8) for e in sel])
    phases = np.concatenate([np.full(e.count, e.phase, np.int64) for e in sel])
    order = np.lexsort((lanes, phases))
    return (
        offs[order].astype(np.int64),
        bufs[order],
        sizes[order],
        stores[order],
        spc[order],
    )


def assert_cost_equal(got: GPUGroupCost, want: GPUGroupCost, where: str) -> None:
    for field in ("compute_cycles", "mem_cycles", "spm_cycles", "transactions"):
        assert getattr(got, field) == getattr(want, field), (where, field, got, want)


def assert_serialized_equal(gt: GroupTrace, spaces, where: str) -> None:
    got = gt.serialized(spaces)
    want = oracle_serialized(gt, spaces)
    if want is None:
        assert len(got) == 0, where
        return
    cols = (got.offsets, got.buffer_ids, got.sizes, got.stores, got.spaces)
    for name, g, w in zip(("offsets", "buffer_ids", "sizes", "stores", "spaces"), cols, want):
        assert g.dtype == w.dtype, (where, name, g.dtype, w.dtype)
        np.testing.assert_array_equal(g, w, err_msg=f"{where} {name}")


# -- seeded random groups ----------------------------------------------------------


def random_group(rng: np.random.Generator) -> GroupTrace:
    """A group of interleaved LOCAL/GLOBAL/CONSTANT events over several
    buffers, with broadcast, strided, clustered and scattered offsets
    and int32/int64 offset and lane arrays."""
    work_items = int(rng.choice([16, 64, 96, 256]))
    events = []
    for _ in range(int(rng.integers(1, 10))):
        n = int(rng.integers(1, work_items + 1))
        lanes = np.sort(rng.choice(work_items, n, replace=False))
        pattern = rng.integers(4)
        if pattern == 0:  # broadcast: every lane wants one word
            words = np.full(n, rng.integers(0, 512))
        elif pattern == 1:  # strided, including bank-aligned strides
            words = lanes * int(rng.choice([1, 2, 16, 17, 32, 33, 64]))
        elif pattern == 2:  # clustered: many repeated words
            words = rng.integers(0, 8, n)
        else:  # scattered
            words = rng.integers(0, 1 << 20, n)
        elem = int(rng.choice([1, 2, 4, 8]))
        offsets = words * 4 + int(rng.integers(0, 4)) * (elem < 4)
        events.append(
            MemEvent(
                space=SPACES[int(rng.integers(len(SPACES)))],
                is_store=bool(rng.integers(2)),
                buffer_id=int(rng.integers(0, 4)),
                offsets=offsets.astype(INT_TYPES[int(rng.integers(2))]),
                lanes=lanes.astype(INT_TYPES[int(rng.integers(2))]),
                elem_size=elem,
                phase=int(rng.integers(0, 3)),
                inst_id=int(rng.integers(0, 50)),
            )
        )
    gt = GroupTrace((0,), work_items, events=events)
    gt.inst_count = int(rng.integers(0, 100_000))
    return gt


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("spec", GPUS, ids=lambda s: s.name)
def test_gpu_cost_matches_oracle_on_random_groups(spec, seed):
    gt = random_group(np.random.default_rng(seed))
    model = GPUModel(spec, memoize=False)
    assert_cost_equal(model.time_group(gt), oracle_time_group(model, gt), f"seed {seed}")


@pytest.mark.parametrize("seed", range(40))
def test_serialized_matches_oracle_on_random_groups(seed):
    gt = random_group(np.random.default_rng(seed))
    for spaces in SERIALIZED_SPACES:
        assert_serialized_equal(gt, spaces, f"seed {seed} {spaces}")


def test_spm_cost_matches_oracle_at_other_bank_counts():
    for banks in (16, 64):
        spec = replace(FERMI, spm_banks=banks)
        model = GPUModel(spec, memoize=False)
        for seed in range(10):
            gt = random_group(np.random.default_rng(seed))
            assert_cost_equal(
                model.time_group(gt), oracle_time_group(model, gt), f"{banks} banks {seed}"
            )


# -- lane-less events ---------------------------------------------------------------


def _empty_event(space: AddressSpace) -> MemEvent:
    return MemEvent(
        space=space,
        is_store=False,
        buffer_id=7,
        offsets=np.empty(0, np.int64),
        lanes=np.empty(0, np.int64),
        elem_size=4,
        phase=0,
        inst_id=0,
    )


@pytest.mark.parametrize("spec", GPUS, ids=lambda s: s.name)
def test_laneless_local_event_costs_zero(spec):
    model = GPUModel(spec, memoize=False)
    alone = GroupTrace((0,), 64, events=[_empty_event(AddressSpace.LOCAL)])
    cost = model.time_group(alone)
    assert (cost.spm_cycles, cost.mem_cycles, cost.transactions) == (0.0, 0.0, 0)

    # between real events it changes nothing
    base = random_group(np.random.default_rng(3))
    mixed = GroupTrace((0,), base.work_items, events=list(base.events))
    mixed.events.insert(1, _empty_event(AddressSpace.LOCAL))
    mixed.events.append(_empty_event(AddressSpace.GLOBAL))
    mixed.inst_count = base.inst_count
    assert_cost_equal(model.time_group(mixed), oracle_time_group(model, base), spec.name)


@pytest.mark.parametrize("spec", GPUS, ids=lambda s: s.name)
def test_group_without_events_costs_compute_only(spec):
    gt = GroupTrace((0,), 64)
    gt.inst_count = 640
    cost = GPUModel(spec, memoize=False).time_group(gt)
    assert cost == GPUGroupCost(640 / spec.issue_width, 0.0, 0.0, 0)


# -- the app traces -------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_traces():
    return {
        (app_id, variant): app_trace(app_id, variant, "bench")
        for app_id in TABLE_ORDER
        for variant in ("with", "without")
    }


@pytest.mark.parametrize("spec", GPUS, ids=lambda s: s.name)
def test_gpu_cost_matches_oracle_on_app_traces(bench_traces, spec):
    model = GPUModel(spec, memoize=False)
    groups = 0
    for key, trace in bench_traces.items():
        for g in trace.groups:
            where = f"{key} group {g.group_id}"
            assert_cost_equal(model.time_group(g), oracle_time_group(model, g), where)
            groups += 1
    assert groups >= len(TABLE_ORDER) * 2


def test_serialized_matches_oracle_on_app_traces(bench_traces):
    for key, trace in bench_traces.items():
        for g in trace.groups:
            for spaces in SERIALIZED_SPACES:
                assert_serialized_equal(g, spaces, f"{key} group {g.group_id} {spaces}")
