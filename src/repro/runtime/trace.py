"""Memory traces emitted by the interpreter, consumed by ``repro.perf``.

A trace is organised the way the devices consume it:

* events carry the *per-work-item* byte offsets of one vectorised access
  (that is a warp/wavefront-shaped view — what the GPU coalescing model
  needs);
* each event is stamped with the *barrier phase* it occurred in, so the
  CPU model can re-serialise the access stream the way CPU OpenCL
  runtimes execute a work-group (a loop over work-items *between
  barriers*, per Intel's/Twin Peaks' execution scheme cited in the
  paper).

Out-of-core traces: a :class:`TraceSpillStore` keeps the resident bytes
of completed event batches under a high-water mark
(``REPRO_TRACE_SPILL_MB``).  Completed segments past the mark are
pickled, compressed and appended to an anonymous temp file; a group's
``events`` then becomes a :class:`LazyEvents` sequence that streams the
segment back on first access (at most the accessed segment plus the
resident tail is ever in RAM).  Consumers are oblivious: ``LazyEvents``
implements the full read-only sequence protocol, and pickling one (for
worker shards) materialises it into a plain list.
"""

from __future__ import annotations

import hashlib
import pickle
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.types import AddressSpace


@dataclass
class MemEvent:
    """One vectorised memory access by a work-group."""

    space: AddressSpace
    is_store: bool
    buffer_id: int
    #: byte offsets within the buffer, one per active lane
    offsets: np.ndarray
    #: flat local ids of the active lanes (same length as offsets)
    lanes: np.ndarray
    elem_size: int
    #: barrier phase index within the work-group execution
    phase: int
    inst_id: int

    @property
    def count(self) -> int:
        return len(self.offsets)


@dataclass
class GroupTrace:
    """Everything one work-group did."""

    group_id: Tuple[int, ...]
    work_items: int
    events: List[MemEvent] = field(default_factory=list)
    #: dynamic instruction count summed over work-items
    inst_count: int = 0
    barriers: int = 0
    _fingerprint: Optional[bytes] = field(default=None, repr=False, compare=False)

    def accesses(self, space: Optional[AddressSpace] = None) -> int:
        return sum(e.count for e in self.events if space is None or e.space == space)

    def iter_events(self) -> Iterator[MemEvent]:
        """Stream this group's events (transparently rehydrating a
        spilled segment — see :class:`TraceSpillStore`)."""
        yield from self.events

    def fingerprint(self) -> bytes:
        """Digest of the group's *relative* access pattern.

        Two groups of a homogeneous kernel touch the same buffers with
        the same per-event shapes, store flags, lane patterns and
        barrier structure — only the base offset into each buffer
        differs.  The fingerprint therefore hashes, per event: the
        buffer's first-appearance slot (not its id), the address
        space, store flag, element size, barrier phase, lane ids, and
        offsets relative to the buffer's minimum offset over the whole
        group — plus the group's work-item/instruction/barrier counts.
        Groups with equal fingerprints produce identical relative
        streams, which the performance models use to reuse simulation
        results (see ``REPRO_PERF_MEMO``).  The digest is cached;
        traces are immutable once the interpreter returns them.
        """
        if self._fingerprint is None:
            base: dict = {}
            for e in self.events:
                if len(e.offsets):
                    lo = int(np.asarray(e.offsets).min())
                    prior = base.get(e.buffer_id)
                    base[e.buffer_id] = lo if prior is None else min(prior, lo)
            slots: dict = {}
            h = hashlib.blake2b(digest_size=16)
            h.update(
                np.array(
                    [self.work_items, self.inst_count, self.barriers], np.int64
                ).tobytes()
            )
            for e in self.events:
                slot = slots.setdefault(e.buffer_id, len(slots))
                h.update(
                    np.array(
                        [slot, int(e.space), int(e.is_store), e.elem_size,
                         e.phase, e.inst_id],
                        np.int64,
                    ).tobytes()
                )
                rel = np.asarray(e.offsets, np.int64) - base.get(e.buffer_id, 0)
                h.update(rel.tobytes())
                h.update(np.asarray(e.lanes, np.int64).tobytes())
            self._fingerprint = h.digest()
        return self._fingerprint

    def serialized(self, spaces: Tuple[AddressSpace, ...]) -> "SerializedStream":
        """Re-serialise events the way a CPU runtime executes the group.

        Between consecutive barriers, work-items run to completion one
        after another; so the per-lane sub-streams of each phase are
        concatenated lane-major.  Returns arrays of (line-addressable)
        byte offsets, buffer ids, sizes and store flags in that order.
        """
        sel = [e for e in self.events if e.space in spaces]
        if not sel:
            empty64 = np.empty(0, np.int64)
            return SerializedStream(
                empty64, empty64.copy(), np.empty(0, np.int32),
                np.empty(0, bool), np.empty(0, np.int8),
            )
        offs = np.concatenate([e.offsets for e in sel])
        lanes = np.concatenate([e.lanes for e in sel])
        counts = np.fromiter((e.count for e in sel), np.int64, len(sel))

        def per_access(values, dtype) -> np.ndarray:
            # one scalar per event, repeated over that event's accesses
            return np.repeat(np.array(values, dtype), counts)

        bufs = per_access([e.buffer_id for e in sel], np.int64)
        sizes = per_access([e.elem_size for e in sel], np.int32)
        stores = per_access([e.is_store for e in sel], bool)
        spc = per_access([int(e.space) for e in sel], np.int8)
        phases = per_access([e.phase for e in sel], np.int64)
        # stable sort by (phase, lane) keeps program order within each
        # lane's phase sub-stream
        order = np.lexsort((lanes, phases))
        return SerializedStream(
            offs[order].astype(np.int64),
            bufs[order],
            sizes[order],
            stores[order],
            spc[order],
        )


@dataclass
class SerializedStream:
    offsets: np.ndarray
    buffer_ids: np.ndarray
    sizes: np.ndarray
    stores: np.ndarray
    spaces: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    def line_ids(self, line_size: int) -> np.ndarray:
        """Globally-unique cache line ids for every access."""
        return (self.buffer_ids << 40) | (self.offsets // line_size)


@dataclass
class KernelTrace:
    """Trace of a launch; may cover only a sample of the work-groups."""

    groups: List[GroupTrace]
    total_groups: int
    local_size: Tuple[int, ...]
    global_size: Tuple[int, ...]

    @property
    def sampled_groups(self) -> int:
        return len(self.groups)

    @property
    def scale(self) -> float:
        """Multiplier extrapolating sampled groups to the full launch."""
        return self.total_groups / max(1, len(self.groups))

    def total_inst_count(self) -> float:
        return self.scale * sum(g.inst_count for g in self.groups)

    def iter_events(self) -> Iterator[MemEvent]:
        for g in self.groups:
            yield from g.events


# ---------------------------------------------------------------------------
# out-of-core trace spill
# ---------------------------------------------------------------------------


def split_records(records: List[tuple], slots: Iterable[int]) -> Dict[int, List[MemEvent]]:
    """Deal a batch's record tuples into per-group event lists.

    ``records`` is the tape/codegen record format: ``(space, is_store,
    buffer_id, scratch_stride, offsets (G, L), lanes (L,), elem_size,
    phase, inst_id, live)`` where ``live`` maps batch rows to slots.
    The offsets entry may also be a lazy ``(element indices (G, L),
    shift)`` pair from the codegen tier's element-domain sites; the
    byte offsets are rebuilt here — outside the timed replay — as
    ``indices << shift``, bit-identical to the eager form.
    One record-outer pass (the same dealing loop for the eager and the
    lazy path, so both produce bit-identical events).
    """
    out: Dict[int, List[MemEvent]] = {int(s): [] for s in slots}
    for (space, is_store, sid, stride, offs, lanes, elem,
         phase, inst_id, live_ref) in records:
        if type(offs) is tuple:
            offs = offs[0] << offs[1]
        rows = list(offs)
        if stride:
            for pos, slot in enumerate(live_ref.tolist()):
                evs = out.get(slot)
                if evs is not None:
                    evs.append(MemEvent(
                        space, is_store, sid, rows[pos] - slot * stride,
                        lanes, elem, phase, inst_id,
                    ))
        else:
            for pos, slot in enumerate(live_ref.tolist()):
                evs = out.get(slot)
                if evs is not None:
                    evs.append(MemEvent(
                        space, is_store, sid, rows[pos],
                        lanes, elem, phase, inst_id,
                    ))
    return out


def _events_nbytes(events: List[MemEvent]) -> int:
    return sum(
        e.offsets.nbytes + e.lanes.nbytes + 160 for e in events
    )


def _records_nbytes(records: List[tuple]) -> int:
    return sum(
        (r[4][0].nbytes if type(r[4]) is tuple else r[4].nbytes)
        + r[5].nbytes + 200
        for r in records
    )


class _Segment:
    """One spillable unit: the events (or raw records) of one batch."""

    __slots__ = ("store", "nbytes", "disk", "resident")

    def __init__(self, store: "TraceSpillStore", nbytes: int) -> None:
        self.store = store
        self.nbytes = nbytes
        #: (offset, compressed length) once written to the spill file
        self.disk: Optional[Tuple[int, int]] = None
        self.resident = True

    def events_for(self, slot: int) -> List[MemEvent]:
        if not self.resident:
            self.store._load(self)
        return self._slot_events(slot)

    def _slot_events(self, slot: int) -> List[MemEvent]:  # pragma: no cover
        raise NotImplementedError

    def _payload(self) -> object:  # pragma: no cover
        raise NotImplementedError

    def _drop(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def _restore(self, payload: object) -> None:  # pragma: no cover
        raise NotImplementedError


class _ListSegment(_Segment):
    """Eagerly split events, keyed by batch slot."""

    __slots__ = ("_events",)

    def __init__(self, store: "TraceSpillStore", events: Dict[int, List[MemEvent]]) -> None:
        self._events = events
        super().__init__(store, sum(_events_nbytes(v) for v in events.values()))

    def _slot_events(self, slot: int) -> List[MemEvent]:
        return self._events[slot]

    def _payload(self) -> object:
        return self._events

    def _drop(self) -> None:
        self._events = None

    def _restore(self, payload: object) -> None:
        self._events = payload


class _BatchSegment(_Segment):
    """Raw record tuples of one batch, split into events on first access.

    This is how the codegen tier keeps event materialisation out of the
    timed launch: the replay loop only appends compact record tuples;
    the per-group :class:`MemEvent` lists are dealt out lazily, by the
    first consumer that actually reads them.
    """

    __slots__ = ("_records", "_slots", "_events")

    def __init__(self, store: "TraceSpillStore", records: List[tuple],
                 slots: List[int]) -> None:
        self._records = records
        self._slots = list(slots)
        self._events: Optional[Dict[int, List[MemEvent]]] = None
        super().__init__(store, _records_nbytes(records))

    def _slot_events(self, slot: int) -> List[MemEvent]:
        if self._events is None:
            self._events = split_records(self._records, self._slots)
        return self._events[slot]

    def _payload(self) -> object:
        return self._records

    def _drop(self) -> None:
        self._records = None
        self._events = None

    def _restore(self, payload: object) -> None:
        self._records = payload


class LazyEvents(Sequence):
    """Read-only view of one group's events inside a spillable segment.

    Quacks like the plain ``List[MemEvent]`` it replaces (``len``,
    iteration, indexing); pickling materialises it into a real list so
    traces shipped between worker processes stay self-contained.
    """

    __slots__ = ("_segment", "_slot")

    def __init__(self, segment: _Segment, slot: int) -> None:
        self._segment = segment
        self._slot = slot

    def _list(self) -> List[MemEvent]:
        return self._segment.events_for(self._slot)

    def __len__(self) -> int:
        return len(self._list())

    def __iter__(self) -> Iterator[MemEvent]:
        return iter(self._list())

    def __getitem__(self, i):
        return self._list()[i]

    def __reduce__(self):
        return (list, (list(self._list()),))


class TraceSpillStore:
    """Bounds the resident bytes of completed trace batches.

    Segments are adopted in completion order; when the running total
    crosses ``limit_bytes``, the oldest resident segments are pickled +
    zlib-compressed into an anonymous :func:`tempfile.TemporaryFile`
    (auto-deleted when the store is garbage collected) and their RAM
    payload is dropped.  Reading a spilled group's events rehydrates
    its segment — and may re-evict others, so steady-state residency
    stays under the mark (each spilled blob is written exactly once;
    re-eviction after a read costs no new I/O).  Every spill step emits
    a ``trace_spill`` event with byte and wall-time fields.
    """

    def __init__(self, limit_bytes: int, kernel: str = "kernel") -> None:
        self.limit_bytes = int(limit_bytes)
        self.kernel = kernel
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        self.spilled_bytes = 0
        self.spill_count = 0
        self._resident: Dict[_Segment, None] = {}  # insertion-ordered
        self._file = None
        self._closed = False

    def close(self) -> None:
        """Release the spill file (idempotent).

        A launch that raises closes its store explicitly instead of
        waiting for garbage collection — the anonymous spill file is
        unlinked on creation, so the *fd* is the only thing keeping its
        disk space alive, and an aborted launch must not hold it until
        some later collection cycle.  After ``close`` the store refuses
        to rehydrate spilled segments (nothing should read the trace of
        a failed launch).
        """
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- adoption ----------------------------------------------------------
    def adopt(self, gt: Optional[GroupTrace]) -> None:
        """Account one eagerly-built trace (reference / scalar paths)."""
        if gt is not None and isinstance(gt.events, list):
            self.adopt_group_lists({0: gt})

    def adopt_group_lists(self, traces: Dict[int, Optional[GroupTrace]]) -> None:
        """Account one batch of eagerly-split traces as a single segment
        (their events share the batch's offset arrays, so they spill —
        and free — together)."""
        events = {
            slot: gt.events for slot, gt in traces.items()
            if gt is not None and isinstance(gt.events, list)
        }
        if not events:
            return
        seg = _ListSegment(self, events)
        for slot, gt in traces.items():
            if gt is not None and slot in events:
                gt.events = LazyEvents(seg, slot)
        self._track(seg)

    def adopt_batch(
        self,
        records: List[tuple],
        entries: List[Tuple[int, Tuple[int, ...]]],
        work_items: int,
        inst_count: int,
        barriers: int,
    ) -> Dict[int, GroupTrace]:
        """Adopt one codegen batch as raw records; splitting into
        per-group events is deferred to first access.  ``entries`` is
        ``[(batch slot, group id), ...]`` for the surviving groups."""
        seg = _BatchSegment(self, records, [slot for slot, _ in entries])
        out: Dict[int, GroupTrace] = {}
        for slot, gid in entries:
            gt = GroupTrace(gid, work_items)
            gt.inst_count = inst_count
            gt.barriers = barriers
            gt.events = LazyEvents(seg, slot)
            out[slot] = gt
        self._track(seg)
        return out

    def adopt_compressed(self, blob: bytes, nbytes: int) -> _ListSegment:
        """Adopt one already-compressed segment (a worker shard's trace,
        see :func:`compress_group_lists`) without decompressing it.

        The blob — byte-identical to what :meth:`_spill` would have
        written for the same events — goes straight to the spill file as
        a pre-spilled :class:`_ListSegment`; ``nbytes`` is the resident
        size its events will account for once a reader rehydrates them.
        Wrap the segment's slots in :class:`LazyEvents` to expose them.
        """
        if self._closed:
            raise RuntimeError(f"TraceSpillStore for {self.kernel!r} is closed")
        seg = _ListSegment.__new__(_ListSegment)
        seg._events = None
        _Segment.__init__(seg, self, int(nbytes))
        if self._file is None:
            self._file = tempfile.TemporaryFile(prefix="repro-trace-spill-")
        self._file.seek(0, 2)
        seg.disk = (self._file.tell(), len(blob))
        self._file.write(blob)
        seg.resident = False
        self.spilled_bytes += len(blob)
        self.spill_count += 1
        return seg

    # -- residency ---------------------------------------------------------
    def _track(self, seg: _Segment) -> None:
        self._resident[seg] = None
        self.resident_bytes += seg.nbytes
        self._enforce()
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )

    def _enforce(self, protect: Optional[_Segment] = None) -> None:
        if self.resident_bytes <= self.limit_bytes:
            return
        for seg in [s for s in self._resident if s is not protect]:
            if self.resident_bytes <= self.limit_bytes:
                break
            self._spill(seg)

    def _spill(self, seg: _Segment) -> None:
        t0 = time.perf_counter()
        written = 0
        if seg.disk is None:
            blob = zlib.compress(
                pickle.dumps(seg._payload(), protocol=pickle.HIGHEST_PROTOCOL),
                1,
            )
            if self._file is None:
                if self._closed:
                    raise RuntimeError(
                        f"TraceSpillStore for {self.kernel!r} is closed"
                    )
                self._file = tempfile.TemporaryFile(prefix="repro-trace-spill-")
            self._file.seek(0, 2)
            seg.disk = (self._file.tell(), len(blob))
            self._file.write(blob)
            written = len(blob)
        seg._drop()
        seg.resident = False
        del self._resident[seg]
        self.resident_bytes -= seg.nbytes
        self.spilled_bytes += written
        self.spill_count += 1
        from repro.session import events as _events

        _events.emit(
            "trace_spill",
            kernel=self.kernel,
            bytes=written,
            resident_bytes=self.resident_bytes,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )

    def _load(self, seg: _Segment) -> None:
        if self._file is None:
            raise RuntimeError(
                f"TraceSpillStore for {self.kernel!r} is closed; "
                "spilled trace segments cannot be rehydrated"
            )
        off, length = seg.disk
        self._file.seek(off)
        seg._restore(pickle.loads(zlib.decompress(self._file.read(length))))
        seg.resident = True
        self._resident[seg] = None
        self.resident_bytes += seg.nbytes
        self._enforce(protect=seg)
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes
        )


def compress_group_lists(groups: Sequence[GroupTrace]) -> Tuple[bytes, int]:
    """Serialize one shard's traces into the spill-segment wire format.

    Returns ``(blob, nbytes)``: the blob is exactly what
    :meth:`TraceSpillStore._spill` writes for a :class:`_ListSegment`
    whose slot ``i`` holds ``groups[i]``'s events, so the parent can
    append it to its own spill file via
    :meth:`TraceSpillStore.adopt_compressed` and rehydration yields
    bit-identical :class:`MemEvent` streams.  ``nbytes`` is the resident
    accounting size of the materialised events.
    """
    payload = {slot: list(gt.events) for slot, gt in enumerate(groups)}
    nbytes = sum(_events_nbytes(v) for v in payload.values())
    blob = zlib.compress(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL), 1
    )
    return blob, nbytes
