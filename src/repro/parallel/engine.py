"""The pool's fan-out primitives and the zero-copy launch plane.

Every fan-out runs on the process-wide warm worker pool
(:mod:`repro.parallel.pool`) through one of two entry points:

* :func:`fan_out` — the ordered map behind the experiment matrix,
  search scoring, tune labelling and fuzz campaigns: submit every
  payload, gather in input order, redo a task serially in the parent
  when its future fails for a pool-infrastructure reason;
* :func:`parallel_launch` — one kernel launch sharded over work-group
  ranges, on a shared-memory data plane:

  - **buffers out**: every argument buffer is published once into a
    single :class:`~repro.runtime.buffers.ShmArena` segment; each
    worker attaches zero-copy numpy views under the parent's buffer ids
    and writes its owned groups' output ranges *in place*.  Work-group
    independence — the contract the differential suite enforces — makes
    those writes disjoint, so the parent's merge is one ``readback``
    copy per buffer.
  - **traces back**: a worker serializes its completed ``GroupTrace``
    batch into the exact compressed raw-segment format the parent's
    :class:`~repro.runtime.trace.TraceSpillStore` spills
    (:func:`~repro.runtime.trace.compress_group_lists`), ships it
    through a per-shard shared-memory segment (or the result pipe when
    the segment cannot be created), and the parent adopts the blob
    straight into its own spill file (``adopt_compressed``) — groups
    rehydrate lazily, bit-identical, bounded by ``$REPRO_TRACE_SPILL_MB``.
  - **warm workers**: each worker keeps the kernels it has unpickled,
    keyed by payload hash under a *generation* counter derived from the
    execution config — a config change invalidates the warm state, a
    repeated launch of the same kernel skips the unpickle and, because
    the kernel object persists, hits the content-keyed codegen module
    cache and fingerprint memo from the previous task.

One level of parallelism: the pool's initializer marks each worker, and
inside a worker :func:`resolve_workers` is always 1, so a fan-out
requested there (a matrix case launching under ``REPRO_WORKERS=2``)
runs serially and silently instead of waiting on a pool it can never
reach.

Determinism contract (DESIGN.md §9, §17): for kernels whose work-groups
are independent the merged result is bit-identical to a serial launch —
same event streams, same buffer ids, same output bytes, same model
cycles.  ``__local`` arena buffer ids appear in traces, so workers
replicate the parent's allocation sequence by starting from the
parent's ``_next_id``.

Failure contract: problems *setting up* the pool, the payload or the
arena fall back to serial execution — observably: a ``pool_fallback``
event naming the underlying exception is emitted on the session bus,
and when no sink is attached a :class:`PoolFallbackWarning` is issued
instead, so the degradation is never silent.  A worker failing
*mid-shard* raises :class:`RuntimeLaunchError` naming the flat group
range that failed — never a raw ``multiprocessing`` traceback; every
outstanding shard is drained first and every shared-memory segment is
unlinked on *all* exit paths (success, worker crash, interrupt).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel import pool as worker_pool
from repro.parallel.sharding import describe_span, merge_group_traces, shard_ranges
from repro.runtime.errors import (
    BarrierDivergenceError,
    MemoryFault,
    RuntimeLaunchError,
)
from repro.session import events

#: environment default for every ``workers=None`` entry point; setting
#: ``REPRO_WORKERS=1`` is the global escape hatch that forces serial
#: execution everywhere without touching call sites (registered in
#: :mod:`repro.session.config` as the ``workers`` variable)
WORKERS_ENV = "REPRO_WORKERS"


class PoolFallbackWarning(RuntimeWarning):
    """A parallel launch silently degraded to serial execution."""


def _observe_fallback(where: str, reason: str, error: str = "") -> None:
    """Make a serial fallback observable: event if a sink listens,
    ``warnings.warn`` otherwise (never both, never neither)."""
    if events.bus_active():
        events.emit("pool_fallback", where=where, reason=reason, error=error)
    else:
        detail = f" ({error})" if error else ""
        warnings.warn(
            f"parallel execution fell back to serial in {where}: "
            f"{reason}{detail}",
            PoolFallbackWarning,
            stacklevel=3,
        )


#: set by the pool's initializer in each worker process: fan-outs
#: requested there run serially (one level of parallelism)
_IN_WORKER = False


def _enter_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalise a ``workers`` argument to an ``int >= 1``.

    ``None`` falls back to the session's ``workers`` setting
    (``$REPRO_WORKERS``, a ``--config`` file, ...), then to 1 (serial).
    Anything that is not a positive integer — including bools and
    numeric strings passed programmatically — raises ``ValueError``;
    callers in the runtime wrap that into ``RuntimeLaunchError``.
    Inside a pool worker every valid request resolves to 1.
    """
    if workers is None:
        from repro.session import current_session

        workers = current_session().get("workers")
    elif isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(
            f"workers must be a positive integer or None, got {workers!r}"
        )
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return 1 if _IN_WORKER else workers


def make_pool(n_workers: int) -> Optional[ProcessPoolExecutor]:
    """A process pool, or ``None`` when one cannot be created here.

    Prefers the cheap ``fork`` start method where the platform offers
    it.  Pool-creation failures (restricted sandboxes, missing
    semaphores) are a *fallback* condition, not an error — callers run
    serially instead; the failure is reported as a ``pool_fallback``
    event (or a :class:`PoolFallbackWarning` when nobody listens).

    Fan-outs never call this directly: they go through
    :func:`repro.parallel.pool.acquire` with this function as the
    factory, so the warm pool is reused instead of forked per call.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        return ProcessPoolExecutor(
            max_workers=n_workers, mp_context=ctx, initializer=_enter_worker
        )
    except Exception as exc:
        _observe_fallback(
            "make_pool",
            "process pool unavailable",
            f"{type(exc).__name__}: {exc}",
        )
        return None


#: kernel-execution failures a serial redo would reproduce identically
_DETERMINISTIC = (RuntimeLaunchError, MemoryFault, BarrierDivergenceError)


def fan_out(
    fn: Callable, payloads: Sequence, workers: Optional[int] = None
) -> Tuple[List, Dict[int, str]]:
    """``[fn(p) for p in payloads]``, fanned out over the shared pool.

    Returns ``(results, redone)``: the results in input order, and
    ``{index: reason}`` for every payload whose task failed for a
    pool-infrastructure reason (broken pool, lost worker, pickling) and
    was redone serially in the parent.  A deterministic kernel-execution
    failure is not redone — a serial rerun would fail identically — and
    raises :class:`RuntimeLaunchError`; ``KeyboardInterrupt`` and
    ``SystemExit`` propagate.  The pool is used only when both the
    resolved worker count and the payload count exceed one; ``fn`` and
    the payloads must pickle.
    """
    n_workers = resolve_workers(workers)
    pool = None
    if min(n_workers, len(payloads)) > 1:
        pool = worker_pool.acquire(n_workers, factory=make_pool)
    if pool is None:
        return [fn(p) for p in payloads], {}
    futures = [pool.submit(fn, p) for p in payloads]
    results: List = []
    redone: Dict[int, str] = {}
    for i, (payload, fut) in enumerate(zip(payloads, futures)):
        try:
            results.append(fut.result())
        except _DETERMINISTIC as exc:
            raise RuntimeLaunchError(
                f"task {payload!r} failed deterministically "
                f"({type(exc).__name__}: {exc}); not retrying"
            ) from exc
        except Exception as exc:
            redone[i] = f"{type(exc).__name__}: {exc}"
            results.append(fn(payload))
    return results, redone


# ---------------------------------------------------------------------------
# launch-level sharding
# ---------------------------------------------------------------------------

#: monotonically increasing launch token suffix (per parent process) —
#: shared-memory segment names are ``{token}a`` (arena) and
#: ``{token}t{shard}`` (per-shard trace blob), deterministic so failure
#: cleanup can sweep them without having heard back from the workers
_TOKEN_SEQ = 0


def _next_token() -> str:
    global _TOKEN_SEQ
    _TOKEN_SEQ += 1
    return f"repro-{os.getpid()}-{_TOKEN_SEQ}"


def _shard_config(session) -> Dict[str, object]:
    """The execution config a shard must replicate (the session object
    itself never crosses the process boundary)."""
    cfg: Dict[str, object] = {
        "exec_backend": str(session.get("exec_backend")),
        "tape_batch": int(session.get("tape_batch")),
        "trace_spill_mb": int(session.get("trace_spill_mb")),
    }
    cache_dir = session.get("codegen_cache_dir")
    if cache_dir:
        cfg["codegen_cache_dir"] = str(cache_dir)
    return cfg


def _generation(cfg: Dict[str, object]) -> str:
    """Warm-state generation: changes iff the shard-relevant config does."""
    return hashlib.sha1(repr(sorted(cfg.items())).encode()).hexdigest()[:12]


#: per-worker warm state: kernels already unpickled this generation.
#: Living at module level in the forked worker process, it survives
#: across tasks; a generation change (new execution config) drops it.
_WARM: Dict[str, object] = {"generation": None, "kernels": {}}


def _warm_kernel(generation: str, sha: str, blob: bytes):
    warm = _WARM
    if warm["generation"] != generation:
        warm["generation"] = generation
        warm["kernels"] = {}
    kernel = warm["kernels"].get(sha)
    hit = kernel is not None
    if not hit:
        kernel = pickle.loads(blob)
        warm["kernels"][sha] = kernel
    return kernel, hit


def _run_shard(p: dict, kernel, lo: int, hi: int, arena) -> dict:
    """Execute picks[lo:hi] against a freshly mounted Memory.

    Everything that holds a view into the arena lives inside this frame,
    so the caller can close the attachment the moment it returns.
    """
    from repro.runtime.buffers import Memory
    from repro.runtime.ndrange import launch
    from repro.runtime.trace import compress_group_lists
    from repro.session import Session

    mem = Memory()
    arena.attach_memory(mem)
    # arena allocations must consume the very ids the parent's serial
    # loop would have handed out — they appear in LOCAL trace events
    mem._next_id = p["next_id"]

    args = {
        name: mem.buffers[value] if kind == "buf" else value
        for name, (kind, value) in p["args"].items()
    }

    # env={}: the shard config carries every execution setting, and a
    # session read from os.environ would reopen $REPRO_TRACE_OUT and
    # truncate the parent's event file
    with Session(env={}, **p["cfg"]).activate():
        res = launch(
            kernel,
            p["global_size"],
            p["local_size"],
            args,
            memory=mem,
            local_arg_sizes=p["local_arg_sizes"],
            collect_trace=p["collect_trace"],
            sample_groups=p["sample_groups"],
            workers=1,
            _group_slice=(lo, hi),
        )

    out: dict = {
        "work_items": res.work_items,
        "groups_executed": res.groups_executed,
        "next_id": mem._next_id,
        "trace": None,
    }
    if res.trace is not None:
        groups = res.trace.groups
        blob, nbytes = compress_group_lists(groups)
        out["trace"] = {
            "blob": blob,
            "nbytes": nbytes,
            "metas": [
                (gt.group_id, gt.work_items, gt.inst_count, gt.barriers)
                for gt in groups
            ],
        }
    # break the Buffer <-> Memory cycle so arena views die with this
    # frame by refcount (not a later gc pass) and the caller's close()
    # can unmap the segment immediately
    for buf in mem.buffers.values():
        buf.data = None
        buf._views.clear()
    mem.buffers.clear()
    return out


def _launch_shard(
    common_bytes: bytes,
    kernel_blob: bytes,
    kernel_sha: str,
    generation: str,
    arena_spec: dict,
    trace_seg_name: str,
    shard_index: int,
    lo: int,
    hi: int,
    submitted: float,
) -> dict:
    """Worker entry point: one shard of one launch.

    Returns a result dict, or an ``{"error": ...}`` dict — exceptions
    are shipped back as text so the parent can raise a launch error
    with the failing group range instead of a multiprocessing dump.
    """
    t_entry = time.monotonic()
    try:
        p = pickle.loads(common_bytes)
        kernel, cache_hit = _warm_kernel(generation, kernel_sha, kernel_blob)

        from repro.runtime.buffers import ShmArena

        arena = ShmArena.attach(arena_spec)
        try:
            out = _run_shard(p, kernel, lo, hi, arena)
        finally:
            # only the view-holding frame above has returned; the
            # parent owns the name and does the unlink
            arena.close()

        tr = out["trace"]
        if tr is not None:
            blob = tr.pop("blob")
            try:
                from multiprocessing import shared_memory

                seg = shared_memory.SharedMemory(
                    name=trace_seg_name, create=True, size=max(len(blob), 1)
                )
                seg.buf[: len(blob)] = blob
                seg.close()
                tr["shm"] = (trace_seg_name, len(blob))
            except Exception:
                tr["blob"] = blob  # pipe fallback: segment unavailable
        out.update(
            shard=shard_index,
            pid=os.getpid(),
            kernel_cache_hit=cache_hit,
            dispatch_ms=(t_entry - submitted) * 1e3,
            wall_ms=(time.monotonic() - t_entry) * 1e3,
        )
        return out
    except Exception as exc:
        return {
            "shard": shard_index,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def _receive(fut):
    """Result of one shard future (seam for interrupt-injection tests)."""
    return fut.result()


def _fetch_trace_blob(tr: dict) -> bytes:
    """The shard's compressed trace blob, from its shared-memory segment
    (consumed: the segment is unlinked here) or inline from the pipe."""
    if "shm" in tr:
        from multiprocessing import shared_memory

        name, length = tr["shm"]
        seg = shared_memory.SharedMemory(name=name)
        try:
            blob = bytes(seg.buf[:length])
        finally:
            seg.close()
            seg.unlink()
        return blob
    return tr["blob"]


def _adopt_shard_trace(store, tr: dict) -> List:
    """Rebuild one shard's GroupTrace list around a lazily-loaded
    segment adopted into the parent's spill store."""
    from repro.runtime.trace import GroupTrace, LazyEvents

    seg = store.adopt_compressed(_fetch_trace_blob(tr), tr["nbytes"])
    groups = []
    for slot, (gid, work_items, inst_count, barriers) in enumerate(tr["metas"]):
        gt = GroupTrace(tuple(gid), work_items)
        gt.inst_count = inst_count
        gt.barriers = barriers
        gt.events = LazyEvents(seg, slot)
        groups.append(gt)
    return groups


def _sweep_trace_segments(token: str, n_shards: int) -> None:
    """Best-effort unlink of every shard trace segment this launch may
    have created (names are deterministic, so a crashed or interrupted
    worker's segment is swept without having heard from it)."""
    from multiprocessing import shared_memory

    for i in range(n_shards):
        try:
            seg = shared_memory.SharedMemory(name=f"{token}t{i}")
        except FileNotFoundError:
            continue
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        seg.close()


def parallel_launch(
    kernel,
    global_size: Tuple[int, ...],
    local_size: Tuple[int, ...],
    args: Dict[str, object],
    memory,
    local_arg_sizes: Optional[Dict[str, int]],
    collect_trace: bool,
    sample_groups: Optional[int],
    picks: np.ndarray,
    total_groups: int,
    workers: int,
):
    """Run a launch sharded over ``workers`` processes.

    Returns a ``LaunchResult`` bit-identical to the serial one, or
    ``None`` when the pool, payload or arena is unavailable (the caller
    then falls through to its serial loop).  Worker failures mid-shard
    raise :class:`RuntimeLaunchError` with the failing flat group range.
    """
    from repro.runtime.buffers import Buffer, ShmArena
    from repro.runtime.ndrange import LaunchResult
    from repro.runtime.trace import KernelTrace, TraceSpillStore
    from repro.session import current_session

    session = current_session()

    buffers_by_id: Dict[int, Buffer] = {}
    arg_spec: Dict[str, Tuple[str, object]] = {}
    for name, value in args.items():
        if isinstance(value, Buffer):
            # keyed by id so aliased arguments stay aliased in the worker
            buffers_by_id[value.id] = value
            arg_spec[name] = ("buf", value.id)
        else:
            arg_spec[name] = ("scalar", value)

    cfg = _shard_config(session)
    common = {
        "global_size": global_size,
        "local_size": local_size,
        "args": arg_spec,
        "local_arg_sizes": dict(local_arg_sizes) if local_arg_sizes else None,
        "collect_trace": collect_trace,
        "sample_groups": sample_groups,
        "next_id": memory._next_id,
        "cfg": cfg,
    }
    try:
        kernel_blob = pickle.dumps(kernel, protocol=pickle.HIGHEST_PROTOCOL)
        common_bytes = pickle.dumps(common, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable payload -> serial fallback
        _observe_fallback(
            "serialize_launch",
            "launch payload not picklable",
            f"{type(exc).__name__}: {exc}",
        )
        return None
    kernel_sha = hashlib.sha256(kernel_blob).hexdigest()
    generation = _generation(cfg)

    ranges = shard_ranges(len(picks), workers)
    if len(ranges) < 2:
        # structural, not a failure: too few groups to shard — still
        # emit the event (no warning) so traces explain the serial run
        if events.bus_active():
            events.emit(
                "pool_fallback",
                where="shard_ranges",
                reason=f"only {len(picks)} group pick(s); nothing to shard",
                error="",
            )
        return None

    pool = worker_pool.acquire(len(ranges), factory=make_pool)
    if pool is None:
        return None

    token = _next_token()
    t0 = time.perf_counter()
    try:
        arena = ShmArena.publish(f"{token}a", buffers_by_id)
    except Exception as exc:
        # the pool's own locks live in /dev/shm too, so a host that
        # cannot publish an arena rarely got this far; run serially
        _observe_fallback(
            "shm_publish",
            "shared-memory arena unavailable",
            f"{type(exc).__name__}: {exc}",
        )
        return None
    events.emit(
        "shm_publish",
        kernel=kernel.name,
        buffers=len(buffers_by_id),
        bytes=arena.total_bytes,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    worker_pool.note_publish(arena.total_bytes)

    events.emit(
        "launch_sharded",
        kernel=kernel.name,
        shards=len(ranges),
        workers=workers,
    )

    arena_spec = arena.spec()
    store = None
    try:
        futures = [
            (
                pool.submit(
                    _launch_shard,
                    common_bytes,
                    kernel_blob,
                    kernel_sha,
                    generation,
                    arena_spec,
                    f"{token}t{i}",
                    i,
                    lo,
                    hi,
                    time.monotonic(),
                ),
                i,
                lo,
                hi,
            )
            for i, (lo, hi) in enumerate(ranges)
        ]

        # gather: drain *every* future before raising, so no worker is
        # still touching the arena — or about to create a trace segment
        # — when the finally block sweeps the shared-memory names
        outcome = []
        interrupt: Optional[BaseException] = None
        for fut, i, lo, hi in futures:
            if interrupt is not None:
                try:
                    fut.result()
                except BaseException:
                    pass
                continue
            try:
                outcome.append((i, lo, hi, _receive(fut), None))
            except (KeyboardInterrupt, SystemExit) as exc:
                # Ctrl-C is never rewritten into a launch failure
                interrupt = exc
            except BaseException as exc:
                outcome.append((i, lo, hi, None, exc))
        if interrupt is not None:
            raise interrupt

        for i, lo, hi, r, exc in outcome:
            if exc is not None:
                # pool-level death (BrokenProcessPool, pickling, ...)
                raise RuntimeLaunchError(
                    f"parallel launch worker for shard {i} "
                    f"({describe_span(picks, lo, hi)}) died: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if "error" in r:
                raise RuntimeLaunchError(
                    f"parallel launch worker for shard {i} "
                    f"({describe_span(picks, lo, hi)}) failed: {r['error']}\n"
                    f"{r['traceback']}"
                )

        results = sorted((r for _, _, _, r, _ in outcome), key=lambda r: r["shard"])
        for (i, lo, hi, r, _exc) in outcome:
            events.emit(
                "pool_task",
                kernel=kernel.name,
                shard=i,
                groups=hi - lo,
                dispatch_ms=r["dispatch_ms"],
                wall_ms=r["wall_ms"],
            )
            worker_pool.note_task(r["pid"], r.get("kernel_cache_hit"))

        # canonical-order merge: traces reassembled in shard order; the
        # buffer merge is the arena readback (shards wrote their owned
        # ranges in place)
        trace = None
        if collect_trace:
            store = TraceSpillStore(
                int(session.get("trace_spill_mb")) * 1024 * 1024,
                kernel=kernel.name,
            )
            groups = merge_group_traces(
                [(r["shard"], _adopt_shard_trace(store, r["trace"])) for r in results]
            )
            trace = KernelTrace(groups, total_groups, local_size, global_size)
        arena.readback(memory.buffers)
        # every worker allocated the same arena sequence; keep the
        # parent's id counter where a serial launch would have left it
        memory._next_id = max(
            memory._next_id, max(r["next_id"] for r in results)
        )
        return LaunchResult(
            trace=trace,
            groups_executed=sum(r["groups_executed"] for r in results),
            work_items=sum(r["work_items"] for r in results),
        )
    except BaseException:
        # the trace of a failed launch is never returned: release the
        # spill fd now, not at some later collection cycle
        if store is not None:
            store.close()
        raise
    finally:
        arena.close()
        arena.unlink()
        _sweep_trace_segments(token, len(ranges))
