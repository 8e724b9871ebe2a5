"""GPU timing model: coalescing, banked scratch-pad, latency hiding.

Used by the Fig. 2 motivation experiment (Fermi / Kepler / Tahiti).

Each vectorised memory event of a work-group is cut into warps:

* **global** accesses cost one transaction per distinct ``segment``-byte
  block touched by the warp (the coalescing rule) — an uncoalesced
  column access explodes into ``warp_size`` transactions, which is what
  makes Matrix Transpose without local memory catastrophic on GPUs;
  transactions then probe the (optional) L1 and the L2;
* **local** (scratch-pad) accesses cost the bank-conflict degree of the
  warp: the maximum number of *distinct words* wanted from one bank.

Both rules run as one array pass per work-group, not one per event:
every lane is tagged with its event's index, and a single ``lexsort``
over the (event, warp, bank, word) or (event, warp, segment) columns
brings each warp's requests together.  Run boundaries then give the
distinct words per bank (``reduceat`` takes the per-warp maximum) and
the distinct segments, which leave event-major, warp-major, segments
ascending — the order a per-event pass would produce.  A lane-less
event costs nothing.

Compute cost is issue-throughput-bound; the final group cost is
``compute + (1 - latency_hiding) * memory`` — multithreading overlaps
most memory time with compute.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ir.types import AddressSpace
from repro.session import events
from repro.perf.devices import GPUSpec
from repro.perf.fastcache import make_hierarchy, memo_enabled
from repro.runtime.trace import GroupTrace, KernelTrace


@dataclass
class GPUGroupCost:
    compute_cycles: float
    mem_cycles: float
    spm_cycles: float
    transactions: int

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.mem_cycles + self.spm_cycles


class GPUModel:
    def __init__(
        self,
        spec: GPUSpec,
        memoize: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.spec = spec
        #: reuse the simulated cost of groups with an identical
        #: relative access pattern (see GroupTrace.fingerprint)
        self.memoize = memo_enabled() if memoize is None else memoize
        self.backend = backend
        self._group_costs: Dict[bytes, GPUGroupCost] = {}

    def _caches(self):
        s = self.spec
        specs = []
        if s.global_l1:
            specs.append((s.l1_kb, s.l1_assoc, s.line_size, "L1"))
        specs.append((s.l2_kb / s.compute_units, s.l2_assoc, s.line_size, "L2"))
        return make_hierarchy(specs, prefetch=False, backend=self.backend)

    def _memory_costs(self, gt: GroupTrace) -> Tuple[int, np.ndarray]:
        """One array pass over the group's events.

        Returns the group's summed bank-conflict degree (over every
        LOCAL event's warps) and its transaction line stream (one line
        id per distinct ``segment``-byte block each warp of each other
        event touches: event-major, warp-major, segments ascending).
        Each lane is tagged with its event's index — LOCAL events first,
        then the rest, in program order — so one ``lexsort`` over
        separate columns replaces a sort per event.
        """
        s = self.spec
        local = [e for e in gt.events if e.space == AddressSpace.LOCAL]
        other = [e for e in gt.events if e.space != AddressSpace.LOCAL]
        evs = local + other
        if not evs:
            return 0, np.empty(0, dtype=np.int64)
        counts = np.fromiter((len(e.offsets) for e in evs), np.int64, len(evs))
        tags = np.repeat(np.arange(len(evs)), counts)
        lanes = np.concatenate([e.lanes for e in evs], dtype=np.int64)
        offs = np.concatenate([e.offsets for e in evs], dtype=np.int64)
        warps = lanes // s.warp_size
        split = int(counts[: len(local)].sum())

        # bank conflicts: distinct (event, warp, bank, word) requests;
        # per (event, warp) the most distinct words wanted from one bank
        # (a broadcast of the same word is free)
        spm_requests = 0
        if split:
            ev, wp = tags[:split], warps[:split]
            words = offs[:split] // 4
            banks = words % s.spm_banks
            order = np.lexsort((words, banks, wp, ev))
            ev, wp, banks, words = ev[order], wp[order], banks[order], words[order]
            new_warp = np.empty(split, dtype=bool)
            new_warp[0] = True
            new_warp[1:] = (ev[1:] != ev[:-1]) | (wp[1:] != wp[:-1])
            new_bank = new_warp.copy()
            new_bank[1:] |= banks[1:] != banks[:-1]
            new_word = new_bank.copy()
            new_word[1:] |= words[1:] != words[:-1]
            bank_starts = np.flatnonzero(new_bank)
            words_per_bank = np.add.reduceat(new_word, bank_starts, dtype=np.int64)
            degrees = np.maximum.reduceat(
                words_per_bank, np.flatnonzero(new_warp[bank_starts])
            )
            spm_requests = int(degrees.sum())

        # coalescing: distinct (event, warp, segment) transactions
        ev, wp = tags[split:], warps[split:]
        segs = offs[split:] // s.segment
        order = np.lexsort((segs, wp, ev))
        ev, wp, segs = ev[order], wp[order], segs[order]
        keep = np.ones(len(ev), dtype=bool)
        keep[1:] = (ev[1:] != ev[:-1]) | (wp[1:] != wp[:-1]) | (segs[1:] != segs[:-1])
        bufs = np.array([e.buffer_id for e in evs], dtype=np.int64)
        lines = (bufs[ev[keep]] << 40) | segs[keep]
        return spm_requests, lines

    def time_group(self, gt: GroupTrace) -> GPUGroupCost:
        if self.memoize:
            key = gt.fingerprint()
            cached = self._group_costs.get(key)
            if cached is not None:
                if events.bus_active():
                    events.emit(
                        "model_memo_hit",
                        device=self.spec.name,
                        fingerprint_sha1=hashlib.sha1(key).hexdigest()[:12],
                    )
                return cached
        s = self.spec
        spm_requests, stream = self._memory_costs(gt)
        # every cost_spm is a multiple of 0.5 and the totals stay far
        # below 2**53, so this equals the per-event float sum exactly
        spm_cycles = spm_requests * s.cost_spm

        mem_cycles = 0.0
        transactions = 0
        if len(stream):
            transactions = len(stream)
            counts = self._caches().run(stream)
            level_costs = (
                [s.cost_l1, s.cost_l2] if s.global_l1 else [s.cost_l2]
            )
            mem_cycles = sum(
                h * c for h, c in zip(counts.level_hits, level_costs)
            )
            mem_cycles += counts.memory * s.cost_mem

        compute_cycles = gt.inst_count / s.issue_width
        hidden = 1.0 - s.latency_hiding
        cost = GPUGroupCost(
            compute_cycles=compute_cycles,
            mem_cycles=mem_cycles * hidden,
            spm_cycles=spm_cycles,
            transactions=transactions,
        )
        if self.memoize:
            self._group_costs[key] = cost
        return cost

    def time_kernel(self, trace: KernelTrace) -> float:
        total = sum(self.time_group(g).cycles for g in trace.groups)
        cycles = trace.scale * total
        events.emit(
            "model_kernel_timed",
            device=self.spec.name,
            cycles=float(cycles),
            groups=len(trace.groups),
        )
        return cycles
