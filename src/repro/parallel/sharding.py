"""Deterministic work partitioning for the parallel experiment engine.

Pure functions only — no pools, no processes, no randomness.  ``launch``
shards its canonical pick list into contiguous ranges; workers execute
their range and the merge reassembles the results in canonical group
order *regardless of the order workers finished in*.  Keeping this
logic free of pool mechanics is what makes it property-testable
(``tests/test_parallel_merge_properties.py`` fuzzes it over seeds).

On the shared-memory plane (DESIGN.md §17) only traces still need this
order-restoring merge: shards write their owned output
ranges directly into the published arena, so the buffer "merge" is a
single readback copy — a no-op reassembly of views, not a per-shard
diff application.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def select_groups(total_groups: int, sample_groups=None) -> np.ndarray:
    """The canonical flat-group pick list of a launch.

    With ``sample_groups`` set, the picks are an evenly spread subset of
    exactly ``min(sample_groups, total_groups)`` groups (the linspace
    picks are strictly increasing once rounded, so deduplication never
    shrinks the subset).  This is *the* definition shared by the serial
    loop, every worker shard and the property tests — one formula, so a
    worker can recompute its parent's picks bit-for-bit.
    """
    if sample_groups is not None:
        if sample_groups < 1:
            raise ValueError(f"sample_groups must be >= 1, got {sample_groups}")
        if sample_groups < total_groups:
            return np.unique(
                np.linspace(0, total_groups - 1, sample_groups).round().astype(int)
            )
    return np.arange(total_groups)


def shard_ranges(n_items: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``shards`` contiguous ranges.

    Ranges are half-open ``(start, stop)`` index pairs, in order, covering
    every index exactly once, with sizes differing by at most one (larger
    shards first).  Empty ranges are never returned, so the result has
    ``min(shards, n_items)`` entries.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    n_shards = min(shards, n_items)
    bounds = np.linspace(0, n_items, n_shards + 1).round().astype(int)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    ]


def describe_span(picks: np.ndarray, lo: int, hi: int) -> str:
    """Human-readable flat-group span of one shard — the range a launch
    error names when that shard's worker fails."""
    return f"flat groups {int(picks[lo])}..{int(picks[hi - 1])} (picks {lo}:{hi})"


def merge_group_traces(shard_results: Sequence[Tuple[int, Sequence]]) -> List:
    """Reassemble per-shard ``GroupTrace`` lists in canonical order.

    ``shard_results`` is a sequence of ``(shard_index, traces)`` pairs in
    *any* order (workers finish when they finish).  Because shards are
    contiguous ranges of the canonical pick list, sorting by shard index
    and concatenating restores exactly the serial trace order.  The sort
    key is the shard index alone — indices are unique by construction,
    so the merge needs no further tie-breaking and no RNG.
    """
    indices = [idx for idx, _ in shard_results]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {sorted(indices)}")
    merged: List = []
    for _, traces in sorted(shard_results, key=lambda pair: pair[0]):
        merged.extend(traces)
    return merged
