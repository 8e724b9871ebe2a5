"""Device memory: buffers and the encoded-pointer scheme.

A runtime pointer is a 64-bit integer ``(buffer_id << OFFSET_BITS) | byte_offset``.
All lanes of a vectorised access share one buffer (bases are uniform within
a work-group), so gathers/scatters decode the buffer once and index its
numpy backing store directly.
"""

from __future__ import annotations

import os
import re
import weakref
from typing import Dict, Optional

import numpy as np

from repro.runtime.errors import MemoryFault

OFFSET_BITS = 40
OFFSET_MASK = (1 << OFFSET_BITS) - 1

#: pad allocations so any element-size view of the backing store is legal
_PAD = 16


class Buffer:
    """A contiguous allocation in one of the OpenCL memory spaces.

    ``data`` lets a caller hand in an external ``uint8`` backing store of
    at least the padded length — how worker shards mount zero-copy views
    of a :class:`ShmArena` segment instead of private copies.

    The buffer refers to its :class:`Memory` weakly (``mem`` is ``None``
    once the registry is gone): ``Memory.buffers`` already refers to the
    buffer, and a strong back link would make every buffer part of a
    reference cycle, freed only when the cyclic collector next runs.
    """

    def __init__(
        self,
        mem: "Memory",
        buf_id: int,
        nbytes: int,
        name: str = "",
        data: Optional[np.ndarray] = None,
    ) -> None:
        self._mem = weakref.ref(mem)
        self.id = buf_id
        self.nbytes = nbytes
        self.name = name
        padded = (nbytes + _PAD - 1) // _PAD * _PAD
        if data is None:
            data = np.zeros(padded, dtype=np.uint8)
        elif data.dtype != np.uint8 or len(data) < padded:
            raise ValueError(
                f"external backing for buffer {name or buf_id} must be "
                f">= {padded} uint8 bytes, got {len(data)} x {data.dtype}"
            )
        self.data = data
        #: cached dtype views of the backing store
        self._views: Dict[np.dtype, np.ndarray] = {}

    @property
    def mem(self) -> Optional["Memory"]:
        return self._mem()

    @property
    def base_addr(self) -> int:
        return self.id << OFFSET_BITS

    def view(self, dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        v = self._views.get(dtype)
        if v is None:
            v = self.data.view(dtype)
            self._views[dtype] = v
        return v

    def write(self, arr: np.ndarray, byte_offset: int = 0) -> None:
        raw = np.ascontiguousarray(arr).view(np.uint8).ravel()
        if byte_offset + raw.nbytes > self.nbytes:
            raise MemoryFault(
                f"write of {raw.nbytes} B at offset {byte_offset} exceeds "
                f"buffer {self.name or self.id} ({self.nbytes} B)"
            )
        self.data[byte_offset : byte_offset + raw.nbytes] = raw

    def read(self, dtype: np.dtype, count: Optional[int] = None, byte_offset: int = 0) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count is None:
            count = (self.nbytes - byte_offset) // dtype.itemsize
        start = byte_offset // dtype.itemsize
        return self.view(dtype)[start : start + count].copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Buffer #{self.id} {self.name!r} {self.nbytes}B>"


class Memory:
    """Registry of all live buffers; decodes encoded pointers."""

    def __init__(self) -> None:
        self.buffers: Dict[int, Buffer] = {}
        self._next_id = 1

    def alloc(self, nbytes: int, name: str = "") -> Buffer:
        buf = Buffer(self, self._next_id, nbytes, name)
        self.buffers[self._next_id] = buf
        self._next_id += 1
        return buf

    def from_array(self, arr: np.ndarray, name: str = "") -> Buffer:
        arr = np.ascontiguousarray(arr)
        buf = self.alloc(arr.nbytes, name)
        buf.write(arr)
        return buf

    def free(self, buf: Buffer) -> None:
        self.buffers.pop(buf.id, None)

    def decode(self, addr: int) -> Buffer:
        buf = self.buffers.get(int(addr) >> OFFSET_BITS)
        if buf is None:
            raise MemoryFault(f"dangling pointer {addr:#x}")
        return buf

    @staticmethod
    def split(addrs: np.ndarray) -> tuple:
        """Vector decode: (uniform buffer id, byte offsets)."""
        ids = addrs >> OFFSET_BITS
        first = int(ids[0]) if len(ids) else 0
        if len(ids) and not (ids == first).all():
            raise MemoryFault("access spans multiple buffers")
        return first, (addrs & OFFSET_MASK).astype(np.int64)


#: segment names of sharded launches: ``repro-<owner pid>-<seq>a`` for the
#: arena, ``repro-<owner pid>-<seq>t<shard>`` for a shard's trace blob
_SEGMENT_NAME = re.compile(r"repro-(\d+)-\d+(?:a|t\d+)")
#: the sweep runs once per process, on its first publish
_orphans_swept = False


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


def sweep_orphaned_segments() -> None:
    """Unlink the launch segments whose owner process no longer exists.

    A process killed between publishing an arena and its launch's
    ``finally`` (SIGKILL, or SIGTERM with no handler) leaves its segments
    in ``/dev/shm``; nothing else would ever remove them.  A segment whose
    owner pid is alive is never touched.
    """
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # no shared-memory directory on this platform
        return
    for name in names:
        m = _SEGMENT_NAME.fullmatch(name)
        if m is None or _pid_alive(int(m.group(1))):
            continue
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:  # swept concurrently, or not ours to remove
            pass


class ShmArena:
    """Every buffer argument of one launch in a single POSIX shared-memory
    segment.

    The parent publishes the canonical bytes once (``publish``); worker
    shards ``attach`` and mount zero-copy :class:`Buffer` views with the
    parent's buffer ids (``attach_memory``), so every shard's writes land
    directly in the segment.  Work-group independence — the contract the
    differential suite enforces — means shards write disjoint byte
    ranges, so the parent's post-launch merge is a single ``readback``
    copy per buffer instead of per-shard diff application.

    Blocks are laid out at ``_PAD``-aligned offsets in ascending buffer-id
    order, each block the padded length of its buffer, so any element-size
    view of a block is as legal as it is on the private backing store.

    Lifecycle: exactly one process (the parent) owns the name and must
    call ``unlink``; every attachment calls ``close``.  ``close`` with a
    live numpy view swallows the ``BufferError`` — the mapping then lives
    until the views die, which leaks address space, never the segment.
    If the owner is killed before it unlinks, the next process to publish
    an arena sweeps the segment (:func:`sweep_orphaned_segments`).
    """

    def __init__(self, shm, layout: Dict[int, tuple], total_bytes: int) -> None:
        self._shm = shm
        #: buffer id -> (offset, nbytes, padded length, name)
        self._layout = layout
        self.total_bytes = total_bytes

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def publish(cls, name: str, buffers: Dict[int, "Buffer"]) -> "ShmArena":
        """Create segment ``name`` holding every buffer's bytes.  A
        process's first publish also sweeps segments orphaned by dead
        processes (:func:`sweep_orphaned_segments`)."""
        from multiprocessing import shared_memory

        global _orphans_swept
        if not _orphans_swept:
            _orphans_swept = True
            sweep_orphaned_segments()

        layout: Dict[int, tuple] = {}
        off = 0
        for buf_id in sorted(buffers):
            buf = buffers[buf_id]
            padded = len(buf.data)
            layout[buf_id] = (off, buf.nbytes, padded, buf.name)
            off += padded  # padded lengths are _PAD multiples -> aligned
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(off, 1))
        arena = cls(shm, layout, off)
        view = np.ndarray((max(off, 1),), dtype=np.uint8, buffer=shm.buf)
        for buf_id, (o, _nb, padded, _name) in layout.items():
            view[o : o + padded] = buffers[buf_id].data[:padded]
        del view
        return arena

    def spec(self) -> dict:
        """Picklable attachment recipe shipped to worker shards."""
        return {
            "name": self._shm.name,
            "layout": self._layout,
            "total": self.total_bytes,
        }

    @classmethod
    def attach(cls, spec: dict) -> "ShmArena":
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=spec["name"])
        return cls(shm, spec["layout"], spec["total"])

    def attach_memory(self, mem: "Memory") -> None:
        """Mount one zero-copy :class:`Buffer` per block into ``mem``,
        under the parent's buffer ids."""
        for buf_id in sorted(self._layout):
            off, nbytes, padded, name = self._layout[buf_id]
            data = np.ndarray(
                (padded,), dtype=np.uint8, buffer=self._shm.buf, offset=off
            )
            mem.buffers[buf_id] = Buffer(mem, buf_id, nbytes, name, data=data)

    def readback(self, buffers: Dict[int, "Buffer"]) -> None:
        """Copy every block's final bytes into the parent's canonical
        buffers (only ever called after *all* shards succeeded)."""
        view = np.ndarray(
            (max(self.total_bytes, 1),), dtype=np.uint8, buffer=self._shm.buf
        )
        for buf_id, (off, _nb, padded, _name) in self._layout.items():
            buffers[buf_id].data[:padded] = view[off : off + padded]
        del view

    def close(self) -> None:
        try:
            self._shm.close()
        except BufferError:  # a view outlived its launch; see docstring
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already swept by failure cleanup
            pass
