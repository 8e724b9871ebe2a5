"""The process-wide persistent worker pool.

Every fan-out in the system — sharded launches, the experiment matrix,
search candidate scoring, tune labeling, fuzz campaigns — runs on the
**one** warm pool this module owns for the whole process: the first
fan-out forks it, later fan-outs reuse the same worker processes (and
everything warm inside them: unpickled kernels, the codegen module
cache, on-disk artifact handles), and it is torn down when the session
that first acquired it closes — or at interpreter exit, whichever comes
first.  Workers never fan out themselves (see
:func:`repro.parallel.engine.resolve_workers`).

``acquire(n, factory)`` hands out the shared :class:`WorkerPool`.  The
pool is recycled — old executor shut down, a fresh one forked, a
``pool_recycle`` event emitted — when it is broken (a worker died), too
small for the request, or the factory changed (tests monkeypatch
``repro.parallel.engine.make_pool``).  ``factory`` is looked up by the
caller at call time so the ``pool_fallback`` observability (and the
test doubles patched over it) keep working; a factory returning
``None`` makes ``acquire`` return ``None`` and the caller runs
serially.  Callers never release the pool: it lives until its owner
closes.

The module also keeps the fan-out statistics the bench reports:
tasks dispatched, shared-memory bytes published, and per-worker warm
kernel-cache hit/miss counts (keyed by worker pid).
"""

from __future__ import annotations

import atexit
import time
import weakref
from typing import Callable, Dict, Optional

from repro.session import events

__all__ = ["WorkerPool", "acquire", "shutdown_shared", "session_closed",
           "stats", "reset_stats", "note_task", "note_publish"]


class WorkerPool:
    """Handle around the shared executor."""

    def __init__(self, executor, n_workers: int, factory: Callable) -> None:
        self._executor = executor
        self.n_workers = n_workers
        self.factory = factory

    def submit(self, fn, *args, **kwargs):
        return self._executor.submit(fn, *args, **kwargs)

    @property
    def broken(self) -> bool:
        # ProcessPoolExecutor sets _broken once any worker dies; test
        # doubles without the attribute are never considered broken
        return bool(getattr(self._executor, "_broken", False))

    def worker_pids(self) -> tuple:
        """Pids of the live worker processes (empty before first task)."""
        return tuple(sorted(getattr(self._executor, "_processes", {}) or ()))

    def _shutdown(self) -> None:
        shutdown = getattr(self._executor, "shutdown", None)
        if shutdown is not None:
            shutdown(wait=True, cancel_futures=True)


#: the shared pool, created by the first fan-out
_SHARED: Optional[WorkerPool] = None
#: weakref to the Session whose close() tears the shared pool down
_OWNER: Optional["weakref.ref"] = None
_ATEXIT_REGISTERED = False

#: fan-out statistics for `repro bench` (see module docstring)
_STATS: Dict[str, object] = {}


def reset_stats() -> None:
    global _STATS
    _STATS = {
        "tasks": 0,
        "shm_bytes_published": 0,
        # worker pid -> {"tasks", "kernel_cache_hits", "kernel_cache_misses"}
        "per_worker": {},
    }


reset_stats()


def stats() -> Dict[str, object]:
    """A snapshot of the fan-out counters (deep enough to mutate safely)."""
    return {
        "tasks": _STATS["tasks"],
        "shm_bytes_published": _STATS["shm_bytes_published"],
        "per_worker": {pid: dict(c) for pid, c in _STATS["per_worker"].items()},
    }


def note_task(pid: int, kernel_cache_hit: Optional[bool] = None) -> None:
    _STATS["tasks"] += 1
    per = _STATS["per_worker"].setdefault(
        pid, {"tasks": 0, "kernel_cache_hits": 0, "kernel_cache_misses": 0}
    )
    per["tasks"] += 1
    if kernel_cache_hit is True:
        per["kernel_cache_hits"] += 1
    elif kernel_cache_hit is False:
        per["kernel_cache_misses"] += 1


def note_publish(nbytes: int) -> None:
    _STATS["shm_bytes_published"] += int(nbytes)


def _claim_owner() -> None:
    """The first session to acquire the shared pool owns its teardown."""
    global _OWNER
    if _OWNER is not None and _OWNER() is not None:
        return
    from repro.session import current_session

    _OWNER = weakref.ref(current_session())


def acquire(n_workers: int, factory: Callable) -> Optional[WorkerPool]:
    """The shared pool, sized for at least ``n_workers``, or ``None``
    (serial fallback, already observed by ``factory``)."""
    global _SHARED, _ATEXIT_REGISTERED
    pool = _SHARED
    if pool is not None:
        reason = None
        if pool.broken:
            reason = "worker died"
        elif pool.n_workers < n_workers:
            reason = f"grow {pool.n_workers} -> {n_workers}"
        elif pool.factory is not factory:
            reason = "pool factory changed"
        if reason is None:
            return pool
        events.emit("pool_recycle", reason=reason, workers=n_workers)
        pool._shutdown()
        _SHARED = None

    t0 = time.perf_counter()
    executor = factory(n_workers)
    if executor is None:
        return None
    _SHARED = WorkerPool(executor, n_workers, factory=factory)
    _claim_owner()
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_shared)
        _ATEXIT_REGISTERED = True
    events.emit(
        "pool_start",
        workers=n_workers,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return _SHARED


def shutdown_shared() -> None:
    """Tear down the shared pool (session close, atexit, tests)."""
    global _SHARED, _OWNER
    pool, _SHARED = _SHARED, None
    _OWNER = None
    if pool is not None:
        pool._shutdown()


def session_closed(session) -> None:
    """Hook for ``Session.close``: the owning session takes the pool
    down with it; any other session closing leaves it warm."""
    if _OWNER is not None and _OWNER() is session:
        shutdown_shared()
