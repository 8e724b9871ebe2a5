"""Perf regression harness for the compile→launch→trace→cycles pipeline.

``python -m repro.cli bench`` (the ``repro bench`` subcommand) times
every stage of the measurement pipeline for the three headline
workloads — matrix transpose, tiled matrix multiply and a stencil —
and writes the results to ``BENCH_pipeline.json`` so successive PRs
have a wall-clock trajectory to compare against.

For the trace→cycles stage, each device is timed twice: the
**reference** oracle (per-access python LRU walk, no memoization) and
the **fast** path (vectorised stack-distance simulation plus
group-trace memoization).  Before timing, the harness asserts that the
fast backend — with memoization off — reproduces the oracle's per-group
hit/miss/prefetch counts exactly; a mismatch is a hard failure, not a
recorded number.

With ``--workers N`` (N > 1) two parallel stages are added, both
differentially verified before their wall-clock is recorded: a sharded
launch per app and the Table IV experiment matrix serial-vs-fanned-out
(``parallel_matrix``, values asserted equal float-for-float).  Since
schema 7 the sharded-launch stage separates one-time costs from
steady state: ``pool_warmup_s`` is the first fan-out (worker fork if
the persistent pool is cold, arena publication, cold per-worker kernel
caches) and ``launch_trace_parallel_s`` is the minimum of up to three
warm repeats — the number a long sweep actually pays per launch.  The
per-app ``pool`` block records ``shm_bytes_published`` and per-worker
task/kernel-cache-hit counters from :mod:`repro.parallel.pool`.
``host_cpus`` is recorded alongside — on a single-core host the
parallel numbers measure overhead, not speedup.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.harness import compile_app, execute_app
from repro.apps.registry import get_app
from repro.frontend import clear_compile_cache, compile_kernel
from repro.parallel.diff import DifferentialMismatch, assert_traces_equal
from repro.perf import devices
from repro.perf.cpumodel import CPUModel
from repro.perf.gpumodel import GPUModel
from repro.runtime import Memory, launch
from repro.runtime.trace import KernelTrace
from repro.session import Session, current_session

#: app ids benchmarked by default: transpose, tiled matmul, stencil
DEFAULT_APPS = ("NVD-MT", "NVD-MM-B", "PAB-ST")
DEFAULT_SAMPLE_GROUPS = 16
#: groups executed by the timed launch+trace tier (capped at the app's
#: total): large enough that per-launch costs (tape compile, the pilot
#: group) amortise the way they do in a real Table IV sweep
TRACE_SAMPLE_GROUPS = 256
SCHEMA_VERSION = 7
#: scale the ``--search`` tier searches at: candidate scoring compiles
#: and executes dozens of kernels per app, so it runs the small grids
SEARCH_SCALE = "test"


class EquivalenceError(AssertionError):
    """Fast path and reference oracle disagreed on simulated counts."""


def _check_equivalence(trace: KernelTrace, cpu_spec, gpu_specs) -> None:
    """Exact per-group comparison of fast vs reference (memoization off).

    ``gpu_specs`` should cover every GPU shape the model handles: Fermi
    (global L1), Kepler (no global L1), Tahiti (64-wide wavefronts).
    """
    ref_cpu = CPUModel(cpu_spec, memoize=False, backend="reference")
    fast_cpu = CPUModel(cpu_spec, memoize=False, backend="fast")
    for g in trace.groups:
        a, b = ref_cpu.time_group(g), fast_cpu.time_group(g)
        if (a.level_hits, a.memory_misses, a.prefetched) != (
            b.level_hits, b.memory_misses, b.prefetched
        ):
            raise EquivalenceError(
                f"CPU {cpu_spec.name} group {g.group_id}: "
                f"reference {a.level_hits}/{a.memory_misses}/{a.prefetched} "
                f"!= fast {b.level_hits}/{b.memory_misses}/{b.prefetched}"
            )
    for gpu_spec in gpu_specs:
        ref_gpu = GPUModel(gpu_spec, memoize=False, backend="reference")
        fast_gpu = GPUModel(gpu_spec, memoize=False, backend="fast")
        for g in trace.groups:
            a, b = ref_gpu.time_group(g), fast_gpu.time_group(g)
            if a != b:
                raise EquivalenceError(
                    f"GPU {gpu_spec.name} group {g.group_id}: "
                    f"reference {a} != fast {b}"
                )


def _problem_args(app, scale: str):
    """Fresh Memory + bound kernel arguments (host setup, never timed).

    Mirrors :func:`repro.apps.harness.execute_app`'s allocation order so
    buffer ids — and therefore trace event streams — are reproducible
    across independently built problems.
    """
    problem = app.make_problem(scale)
    mem = Memory()
    args: Dict[str, object] = {}
    buffers: Dict[str, object] = {}
    for name, value in problem.inputs.items():
        if isinstance(value, np.ndarray):
            buf = mem.from_array(value, name)
            buffers[name] = buf
            args[name] = buf
        else:
            args[name] = value
    for name, expected in problem.expected.items():
        if name not in buffers:
            buf = mem.alloc(expected.nbytes, name)
            buffers[name] = buf
            args[name] = buf
    return problem, mem, args


#: a timed launch under this many seconds is repeated and the minimum
#: kept (see :func:`_timed_launch`); longer launches stay single-shot
#: so the bench wall time stays bounded
REPEAT_UNDER_S = 0.5
TIMED_REPEATS = 3


def _timed_launch(kernel, app, scale: str, sample_groups: int, backend: str):
    """Traced launch under ``backend``; returns (seconds, trace).

    A 2-group warm-up launch runs first (identical for both backends)
    so process-cold costs — module imports, numpy dispatch caches —
    don't land inside whichever backend happens to be timed first.
    The tape pilot and compile are *not* warmed away: the timed launch
    pays them in full, as any real sweep iteration would.

    Launches that finish under :data:`REPEAT_UNDER_S` are re-run up to
    :data:`TIMED_REPEATS` times and the minimum is reported: on a
    shared host, scheduler preemption only ever *adds* time, so the
    minimum is the best estimate of the true cost — and the same rule
    is applied to every backend, so no ratio is biased by it.  Long
    launches stay single-shot (their relative jitter is small and the
    repeats would dominate the bench's wall time).

    The cyclic GC is collected before and switched off during the
    timed region: the traces retained for the differential checks hold
    millions of objects, and a mid-launch generational sweep over them
    lands on whichever backend is unlucky (observed 0.5s–2.6s for the
    identical tape launch).  Refcounting still frees everything the
    launch itself drops.
    """
    with Session(exec_backend=backend).activate():
        problem, mem, args = _problem_args(app, scale)
        launch(
            kernel,
            problem.global_size,
            problem.local_size,
            args,
            memory=mem,
            local_arg_sizes=problem.local_arg_sizes or None,
            collect_trace=True,
            sample_groups=2,
        )
        dt = None
        for _ in range(TIMED_REPEATS):
            problem, mem, args = _problem_args(app, scale)
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                res = launch(
                    kernel,
                    problem.global_size,
                    problem.local_size,
                    args,
                    memory=mem,
                    local_arg_sizes=problem.local_arg_sizes or None,
                    collect_trace=True,
                    sample_groups=sample_groups,
                )
                dt_i = time.perf_counter() - t0
            finally:
                gc.enable()
            dt = dt_i if dt is None else min(dt, dt_i)
            if dt_i >= REPEAT_UNDER_S:
                break
        return dt, res.trace


def bench_app(
    app_id: str,
    scale: str = "bench",
    sample_groups: int = DEFAULT_SAMPLE_GROUPS,
    variants: Sequence[str] = ("with", "without"),
    workers: int = 1,
    trace_sample_groups: int = TRACE_SAMPLE_GROUPS,
) -> Dict:
    """Time each pipeline stage for one app; returns a JSON-ready dict."""
    app = get_app(app_id)
    out: Dict = {"scale": scale, "sample_groups": sample_groups, "stages": {}}

    # -- compile: cold (cache bypassed) vs cached -----------------------------
    clear_compile_cache()
    t0 = time.perf_counter()
    compile_kernel(app.source, app.kernel_name, defines=app.defines, cache=False)
    t1 = time.perf_counter()
    compile_kernel(app.source, app.kernel_name, defines=app.defines)  # warm
    t2 = time.perf_counter()
    compile_kernel(app.source, app.kernel_name, defines=app.defines)
    t3 = time.perf_counter()
    out["stages"]["compile_cold_s"] = t1 - t0
    out["stages"]["compile_cached_s"] = t3 - t2

    # -- launch + trace -------------------------------------------------------
    # one kernel object per variant: event-stream bit-identity (inst ids
    # included) is defined per compiled kernel, and the parallel stage
    # below must diff against the very same object.  Host problem setup
    # happens outside the timer; each backend is timed on the identical
    # workload and the tape trace must equal the reference trace
    # bit-for-bit before either number is recorded.
    kernels = {var: compile_app(app, var)[0] for var in variants}
    ref_s = 0.0
    tape_s = 0.0
    codegen_s = 0.0
    for var in variants:
        dt_ref, tr_ref = _timed_launch(
            kernels[var], app, scale, trace_sample_groups, "reference"
        )
        dt_tape, tr_tape = _timed_launch(
            kernels[var], app, scale, trace_sample_groups, "tape"
        )
        assert_traces_equal(tr_ref, tr_tape, f"{app_id}[{var}] tape backend")
        dt_cg, tr_cg = _timed_launch(
            kernels[var], app, scale, trace_sample_groups, "codegen"
        )
        assert_traces_equal(tr_ref, tr_cg, f"{app_id}[{var}] codegen backend")
        ref_s += dt_ref
        tape_s += dt_tape
        codegen_s += dt_cg
    out["stages"]["launch_trace_s"] = ref_s
    out["stages"]["launch_trace_tape_s"] = tape_s
    out["stages"]["launch_trace_codegen_s"] = codegen_s
    out["launch_trace_tape_speedup"] = ref_s / tape_s if tape_s > 0 else float("inf")
    out["launch_trace_codegen_speedup"] = (
        ref_s / codegen_s if codegen_s > 0 else float("inf")
    )
    out["codegen_vs_tape_speedup"] = (
        tape_s / codegen_s if codegen_s > 0 else float("inf")
    )
    out["launch_sample_groups"] = trace_sample_groups
    out["exec_backend"] = str(current_session().get("exec_backend"))

    # model-tier traces: small sampled launches through the session's
    # backend (the cycles numbers stay comparable with older schemas)
    traces: Dict[str, KernelTrace] = {
        var: execute_app(
            app, kernels[var], variant=var, scale=scale,
            collect_trace=True, sample_groups=sample_groups,
        ).trace
        for var in variants
    }

    # -- launch + trace, sharded over workers ---------------------------------
    if workers > 1:
        from repro.parallel import pool as worker_pool

        worker_pool.reset_stats()

        def _parallel_pass() -> float:
            t0 = time.perf_counter()
            par_traces = {
                var: execute_app(
                    app, kernels[var], variant=var, scale=scale,
                    collect_trace=True, sample_groups=sample_groups,
                    workers=workers,
                ).trace
                for var in variants
            }
            dt = time.perf_counter() - t0
            for var in variants:  # differential gate before recording
                assert_traces_equal(
                    traces[var], par_traces[var],
                    f"{app_id}[{var}] workers={workers}",
                )
            return dt

        # first fan-out pays the one-time costs: the pool fork (when the
        # persistent pool is cold), arena publication into fresh page
        # cache, cold per-worker kernel caches
        out["stages"]["pool_warmup_s"] = _parallel_pass()
        dt = None
        for _ in range(TIMED_REPEATS):
            dt_i = _parallel_pass()
            dt = dt_i if dt is None else min(dt, dt_i)
            if dt_i >= REPEAT_UNDER_S:
                break
        out["stages"]["launch_trace_parallel_s"] = dt
        out["launch_workers"] = workers
        stats = worker_pool.stats()
        out["pool"] = {
            "tasks": stats["tasks"],
            "shm_bytes_published": stats["shm_bytes_published"],
            "per_worker": {
                str(pid): counts
                for pid, counts in sorted(stats["per_worker"].items())
            },
        }

    # -- trace -> cycles ------------------------------------------------------
    cpu_spec, gpu_spec = devices.SNB, devices.FERMI
    for var in variants:
        _check_equivalence(traces[var], cpu_spec, devices.GPU_DEVICES.values())

    def time_models(memoize: bool, backend: str) -> float:
        start = time.perf_counter()
        for var in variants:
            CPUModel(cpu_spec, memoize=memoize, backend=backend).time_kernel(
                traces[var]
            )
            GPUModel(gpu_spec, memoize=memoize, backend=backend).time_kernel(
                traces[var]
            )
        return time.perf_counter() - start

    ref_s = time_models(memoize=False, backend="reference")
    fast_s = time_models(memoize=True, backend="fast")
    out["stages"]["cycles_reference_s"] = ref_s
    out["stages"]["cycles_fast_s"] = fast_s
    out["trace_to_cycles_speedup"] = ref_s / fast_s if fast_s > 0 else float("inf")
    out["equivalence"] = "exact"
    return out


def bench_matrix(workers: int, scale: str = "bench") -> Dict:
    """Time the Table IV experiment matrix serial vs fanned-out.

    Both runs start from cold caches; the parallel grid must equal the
    serial grid float-for-float before any wall-clock is recorded.
    """
    from repro.experiments import clear_caches
    from repro.parallel.diff import assert_matrix_equal
    from repro.parallel.matrix import run_matrix

    out: Dict = {
        "scale": scale,
        "workers": workers,
        "host_cpus": os.cpu_count() or 1,
    }
    clear_caches()
    t0 = time.perf_counter()
    serial = run_matrix(workers=1, scale=scale)
    out["serial_s"] = time.perf_counter() - t0

    clear_caches()
    t0 = time.perf_counter()
    parallel = run_matrix(workers=workers, scale=scale)
    out["parallel_s"] = time.perf_counter() - t0

    try:
        assert_matrix_equal(serial.values, parallel.values, f"workers={workers}")
    except DifferentialMismatch as exc:
        raise EquivalenceError(str(exc)) from None
    out["cases"] = serial.cases
    out["speedup"] = (
        out["serial_s"] / out["parallel_s"] if out["parallel_s"] > 0 else float("inf")
    )
    out["retried"] = parallel.retried
    out["equivalence"] = "exact"
    return out


def bench_smoke(
    scale: str = "smoke", sample_groups: int = DEFAULT_SAMPLE_GROUPS
) -> Dict:
    """Correctness sweep of every Table III app at the smoke scale.

    Each app runs both variants through the session's execution backend
    and again through the reference executor; the traces must match
    bit-for-bit before the (untimed-tier) wall-clock is recorded.  This
    is coverage, not a timing tier — the three ``DEFAULT_APPS`` at the
    ``bench`` scale remain the numbers to track.
    """
    from repro.apps.registry import table_apps

    out: Dict = {
        "scale": scale,
        "sample_groups": sample_groups,
        "exec_backend": str(current_session().get("exec_backend")),
        "apps": {},
    }
    for app in table_apps():
        t0 = time.perf_counter()
        for var in ("with", "without"):
            kernel, _ = compile_app(app, var)
            run = execute_app(
                app, kernel, variant=var, scale=scale,
                collect_trace=True, sample_groups=sample_groups,
            )
            with Session(exec_backend="reference").activate():
                ref = execute_app(
                    app, kernel, variant=var, scale=scale,
                    collect_trace=True, sample_groups=sample_groups,
                )
            assert_traces_equal(ref.trace, run.trace, f"{app.id}[{var}] smoke")
        out["apps"][app.id] = {
            "wall_s": time.perf_counter() - t0,
            "equivalence": "exact",
        }
    return out


def validate_app_ids(apps: Sequence[str]) -> List[str]:
    """Check every id against the registry; unknown names raise a
    ``ValueError`` that lists the valid ids."""
    from repro.apps.registry import table_apps

    valid = [a.id for a in table_apps()]
    unknown = [a for a in apps if a not in valid]
    if unknown:
        raise ValueError(
            f"unknown app id(s): {', '.join(unknown)}; "
            f"valid ids: {', '.join(valid)}"
        )
    return list(apps)


def bench_search(apps: Sequence[str], workers: int) -> Dict:
    """The ``--search`` tier: per-app winning pipeline vs the default.

    Runs the rewrite-pipeline beam search (session ``search_*`` knobs)
    at :data:`SEARCH_SCALE` and records, per app, the verified winning
    pipeline plus searched-vs-default predicted cycles.  Every winner
    has already passed the analyzer gate and the three-backend
    differential runner — an unverifiable app is a hard failure here,
    not a recorded number.
    """
    from repro.search import SearchOptions, run_search

    run = run_search(
        SearchOptions(apps=tuple(apps), scale=SEARCH_SCALE, workers=workers)
    )
    out: Dict = {"scale": SEARCH_SCALE, "wall_s": run.wall_s, "apps": {}}
    for r in run.results:
        if not r.verified:
            raise EquivalenceError(
                f"search winner for {r.app_id} failed verification: "
                + "; ".join(r.rejected)
            )
        out["apps"][r.app_id] = {
            "pipeline": list(r.winner.pipeline),
            "searched_cycles": r.winner.cycles,
            "default_cycles": r.baseline.cycles,
            "speedup": r.speedup,
            "device": r.device,
            "candidates_evaluated": r.evaluated,
        }
    return out


def bench_tune(apps: Sequence[str], workers: int) -> Dict:
    """The ``--tune`` tier: search with vs without go/no-go pruning.

    Runs the beam search twice over the same apps — once scoring every
    candidate, once with the learned predictor pruning the scoring
    queue — and **hard-fails** unless both report identical winning
    pipelines (pruning is an accelerator; a changed winner is a model
    regression, not a number to record).  Also measures the predictor's
    go/no-go accuracy against the unpruned run's ground truth: every
    fully scored candidate is re-predicted from its features and the
    prediction compared with whether it actually beat the baseline.
    """
    from repro.search import SearchOptions, run_search
    from repro.tune.features import app_candidate_features, app_kernel_context
    from repro.tune.model import default_model_path, load_model

    session = current_session()
    model_path = str(session.get("tune_model") or default_model_path())
    predictor = load_model(model_path)
    threshold = float(session.get("tune_threshold"))

    base = run_search(
        SearchOptions(apps=tuple(apps), scale=SEARCH_SCALE, workers=workers)
    )
    tuned = run_search(
        SearchOptions(
            apps=tuple(apps), scale=SEARCH_SCALE, workers=workers, tune=True
        )
    )

    try:
        # keep the committed artifact host-independent
        model_label = os.path.relpath(model_path)
    except ValueError:
        model_label = model_path
    out: Dict = {
        "scale": SEARCH_SCALE,
        "model": model_label,
        "model_sha256": predictor.sha256,
        "threshold": threshold,
        "holdout_accuracy": float(
            (predictor.payload.get("training", {}).get("holdout") or {})
            .get("accuracy", -1.0)
        ),
        "wall_s_unpruned": base.wall_s,
        "wall_s_tuned": tuned.wall_s,
        "apps": {},
    }
    correct = total = 0
    for b, t in zip(base.results, tuned.results):
        if b.winner.pipeline != t.winner.pipeline:
            raise EquivalenceError(
                f"tune pruning changed the {b.app_id} winner: "
                f"{b.winner.label} (unpruned) vs {t.winner.label} (tuned)"
            )
        if not t.verified:
            raise EquivalenceError(
                f"tuned search winner for {t.app_id} failed verification: "
                + "; ".join(t.rejected)
            )
        ctx = app_kernel_context(b.app_id, SEARCH_SCALE)
        app_correct = app_total = 0
        for cand in b.candidates:
            if cand.error or not cand.rewrites or cand.rewrites[-1] == 0:
                continue  # the predictor never judged these
            feats, _ = app_candidate_features(
                ctx, b.app_id, cand.pipeline, SEARCH_SCALE, cand.device
            )
            predicted_win = predictor.predict(feats) >= threshold
            actual_win = cand.cycles < b.baseline.cycles
            app_total += 1
            if predicted_win == actual_win:
                app_correct += 1
        correct += app_correct
        total += app_total
        out["apps"][b.app_id] = {
            "pipeline": list(t.winner.pipeline),
            "verified": t.verified,
            "scored_unpruned": len(b.candidates),
            "scored_tuned": len(t.candidates),
            "pruned": t.pruned,
            "prediction_accuracy": (
                app_correct / app_total if app_total else 1.0
            ),
        }
    out["prediction_accuracy"] = correct / total if total else 1.0
    out["scored_unpruned"] = sum(
        a["scored_unpruned"] for a in out["apps"].values()
    )
    out["scored_tuned"] = sum(a["scored_tuned"] for a in out["apps"].values())
    out["pruned"] = sum(a["pruned"] for a in out["apps"].values())
    return out


def run_bench(
    apps: Sequence[str] = DEFAULT_APPS,
    scale: str = "bench",
    sample_groups: int = DEFAULT_SAMPLE_GROUPS,
    workers: int = 1,
    smoke: bool = True,
    search: bool = False,
    tune: bool = False,
) -> Dict:
    validate_app_ids(apps)
    results = {
        "schema": SCHEMA_VERSION,
        "description": "wall-clock seconds per pipeline stage "
        "(compile / launch+trace with reference vs tape vs codegen "
        "executor / trace->cycles, reference vs fast cache path; every "
        "backend is differentially verified before timing)",
        "devices": {"cpu": devices.SNB.name, "gpu": devices.FERMI.name},
        "host_cpus": os.cpu_count() or 1,
        "exec_backend": str(current_session().get("exec_backend")),
        "apps": {},
    }
    for app_id in apps:
        results["apps"][app_id] = bench_app(app_id, scale, sample_groups, workers=workers)
    if smoke:
        results["smoke"] = bench_smoke(sample_groups=sample_groups)
    if workers > 1:
        results["parallel_matrix"] = bench_matrix(workers, scale)
    if search:
        results["search"] = bench_search(apps, workers)
    if tune:
        results["tune"] = bench_tune(apps, workers)
    return results


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the compile->launch->trace->cycles pipeline "
        "and check fast-path equivalence.",
    )
    p.add_argument("--apps", default=",".join(DEFAULT_APPS),
                   help="comma-separated app ids (rerun a subset of the "
                   "sweep; unknown names fail listing the valid ids)")
    p.add_argument("--scale", default="bench", help="problem scale")
    p.add_argument("--sample-groups", type=int, default=DEFAULT_SAMPLE_GROUPS)
    p.add_argument("--workers", type=int, default=None,
                   help="also time sharded launches and the parallel "
                   "experiment matrix with this many workers "
                   "(default: $REPRO_WORKERS, then 1 = serial only)")
    p.add_argument("--search", action="store_true",
                   help="also beam-search rewrite-rule pipelines per app "
                   "and record winning pipeline + searched-vs-default "
                   "predicted cycles (see repro search)")
    p.add_argument("--tune", action="store_true",
                   help="also run the search with the learned go/no-go "
                   "predictor pruning the scoring queue; hard-fails if "
                   "pruning changes any winner, records pruned counts "
                   "and prediction accuracy (see repro tune)")
    p.add_argument("--json", dest="json_path", default="BENCH_pipeline.json",
                   help="output file ('-' for stdout only)")
    p.add_argument("--config", default=None,
                   help="JSON session config file (see repro.session.config)")
    p.add_argument("--trace-out", default=None,
                   help="write structured events as JSONL to this path")
    args = p.parse_args(argv)

    from repro.parallel.engine import resolve_workers
    from repro.session import session_from_flags

    app_ids = [a.strip() for a in args.apps.split(",") if a.strip()]
    try:
        validate_app_ids(app_ids)
    except ValueError as exc:
        p.error(str(exc))
    with session_from_flags(args.config, args.trace_out):
        results = run_bench(
            app_ids,
            args.scale,
            args.sample_groups,
            workers=resolve_workers(args.workers),
            search=args.search,
            tune=args.tune,
        )
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.json_path != "-":
        with open(args.json_path, "w") as f:
            f.write(text + "\n")
    print(text)
    for app_id, r in results["apps"].items():
        print(
            f"# {app_id}: launch+trace {r['launch_trace_tape_speedup']:.1f}x "
            f"(ref {r['stages']['launch_trace_s']:.3f}s -> "
            f"tape {r['stages']['launch_trace_tape_s']:.3f}s -> "
            f"codegen {r['stages']['launch_trace_codegen_s']:.3f}s, "
            f"{r['codegen_vs_tape_speedup']:.1f}x over tape), "
            f"trace->cycles {r['trace_to_cycles_speedup']:.1f}x "
            f"(ref {r['stages']['cycles_reference_s']:.3f}s -> "
            f"fast {r['stages']['cycles_fast_s']:.3f}s)"
        )
    smoke = results.get("smoke")
    if smoke:
        total = sum(a["wall_s"] for a in smoke["apps"].values())
        print(
            f"# smoke: {len(smoke['apps'])} apps x 2 variants verified "
            f"exact vs reference executor in {total:.2f}s "
            f"(backend {smoke['exec_backend']})"
        )
    searched = results.get("search")
    if searched:
        for app_id, s in searched["apps"].items():
            pipe = " -> ".join(s["pipeline"]) or "(default)"
            print(
                f"# search {app_id}: {pipe} — {s['searched_cycles']:.1f} "
                f"vs default {s['default_cycles']:.1f} cycles "
                f"({s['speedup']:.3f}x on {s['device']}, verified)"
            )
    tuned = results.get("tune")
    if tuned:
        print(
            f"# tune: {tuned['pruned']} of "
            f"{tuned['scored_unpruned']} candidates pruned before scoring "
            f"({tuned['scored_tuned']} still simulated), winners identical, "
            f"prediction accuracy {tuned['prediction_accuracy']:.3f}, "
            f"search wall {tuned['wall_s_unpruned']:.2f}s -> "
            f"{tuned['wall_s_tuned']:.2f}s"
        )
    matrix = results.get("parallel_matrix")
    if matrix:
        print(
            f"# matrix ({matrix['cases']} cases): serial {matrix['serial_s']:.3f}s "
            f"-> workers={matrix['workers']} {matrix['parallel_s']:.3f}s "
            f"({matrix['speedup']:.2f}x, host has {matrix['host_cpus']} cpu(s))"
        )
        if matrix["host_cpus"] < 2:
            print(
                "# note: single-cpu host — parallel wall-clock measures "
                "overhead, not speedup (pool_warmup_s already isolates the "
                "one-time fork + shm-publish cost; launch_trace_parallel_s "
                "is the min of warm repeats); rerun on a multi-core host "
                "for real scaling numbers"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
