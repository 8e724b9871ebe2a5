"""Deterministic beam search over rewrite-rule pipelines.

The Grover paper's own evaluation shows its one transformation wins only
a third of the time — which transformation (if any) helps is a per-app,
per-device question.  This engine answers it by *searching*: starting
from the compiled kernel (the default pipeline already applied), it
extends candidate pipelines one registered rewrite rule at a time,
scores every candidate with the trace-driven performance model under the
codegen execution backend, and keeps the ``beam`` best per depth level.

Scoring is a prediction; shipping is gated.  Every surviving winner is
re-derived from scratch and verified before it is reported:

* the static race/divergence analyzer must not find a decided race or
  barrier divergence in the transformed kernel (the same veto arbiter
  that guards ``Session.disable_local_memory``);
* all three execution backends (reference / tape / codegen) must produce
  bit-identical traces and outputs for the transformed kernel;
* the transformed kernel's outputs must be byte-identical to the
  untransformed baseline's (:func:`repro.parallel.diff.assert_outputs_equal`).

A candidate that fails any gate is discarded and the next-best one is
verified instead; the empty pipeline is always a candidate, so the
reported winner is never worse than the default by predicted cycles.

With ``--tune`` (``SearchOptions.tune``) the learned go/no-go predictor
(:mod:`repro.tune`) screens every extension before it is scored:
candidates whose last rule rewrote nothing, or whose predicted win
probability falls below the session's ``tune_threshold``, skip the full
trace-driven simulation and are reported as pruned on their
``search_candidate`` event.  Pruning only ever shrinks the scoring
queue — the verification gates above run unchanged on every winner.

Everything is deterministic: rule applications are deterministic, the
interpreter and models are deterministic, candidates are generated and
ranked in a fixed order, and the process-pool fan-out
(:func:`repro.parallel.engine.fan_out`) gathers results in input order
— so the winning pipeline is byte-identical across worker counts and
repeated processes (pinned by ``tests/test_search_determinism.py``).

Exposed on the command line as ``repro search``::

    python -m repro.cli search --apps NVD-MT,NVD-MM-B --beam 2 --depth 3
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.parallel.engine import fan_out, resolve_workers
from repro.session import events

__all__ = [
    "CandidateEval",
    "AppSearchResult",
    "SearchRunResult",
    "SearchOptions",
    "evaluate_pipeline",
    "verify_pipeline",
    "search_app",
    "run_search",
    "render_search",
    "main",
]

#: cycles assigned to candidates whose evaluation raised — sorts last,
#: never survives the ``rewrites > 0`` keep filter either
_FAILED = float("inf")


@dataclass(frozen=True)
class CandidateEval:
    """One scored pipeline — plain data, picklable across the pool."""

    app_id: str
    pipeline: Tuple[str, ...]
    rewrites: Tuple[int, ...]
    cycles: float
    device: str
    error: str = ""

    @property
    def label(self) -> str:
        return " -> ".join(self.pipeline) if self.pipeline else "(default)"


@dataclass
class AppSearchResult:
    """The search outcome for one application."""

    app_id: str
    device: str
    baseline: CandidateEval
    winner: CandidateEval
    evaluated: int
    verified: bool          # False only when every candidate failed gates
    rejected: Tuple[str, ...] = ()  # labels of candidates a gate refused
    wall_s: float = 0.0
    #: candidates the go/no-go predictor pruned before scoring (0
    #: without options.tune)
    pruned: int = 0
    #: every extension candidate that went through full scoring
    candidates: Tuple[CandidateEval, ...] = ()

    @property
    def speedup(self) -> float:
        if self.winner.cycles <= 0:
            return 1.0
        return self.baseline.cycles / self.winner.cycles


@dataclass
class SearchOptions:
    apps: Tuple[str, ...] = ()
    rules: Tuple[str, ...] = ()  # empty: every registered rule
    beam: Optional[int] = None   # None: session search_beam
    depth: Optional[int] = None  # None: session search_depth
    scale: str = "test"
    sample_groups: Optional[int] = None  # None: session search_sample_groups
    device: Optional[str] = None         # None: session search_device
    workers: Optional[int] = None        # None: session workers
    #: learned go/no-go pruning: skip the trace-driven scoring of
    #: candidates the tune model predicts to lose (model/threshold from
    #: the session's tune_model / tune_threshold).  Pure accelerator —
    #: winners are verified identically with or without it.
    tune: bool = False


@dataclass
class SearchRunResult:
    options: SearchOptions
    results: List[AppSearchResult] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0

    def summary(self) -> str:
        return render_search(self)


# ---------------------------------------------------------------------------
# candidate evaluation (runs in pool workers)
# ---------------------------------------------------------------------------


def _apply_pipeline(kernel, pipeline: Sequence[str], geometry) -> Tuple[int, ...]:
    """Apply rules in order, verifying the IR after each; returns the
    per-rule rewrite counts."""
    from repro.ir.verifier import verify_function
    from repro.rules import RuleContext, get_rule

    ctx = RuleContext(local_size=tuple(geometry) if geometry else None)
    rewrites: List[int] = []
    for name in pipeline:
        rewrites.append(int(get_rule(name).apply(kernel, ctx)))
        verify_function(kernel)
    return tuple(rewrites)


def evaluate_pipeline(
    app_id: str,
    pipeline: Sequence[str],
    scale: str,
    sample_groups: int,
    device_name: str,
) -> CandidateEval:
    """Compile, transform, execute (codegen backend) and model one
    pipeline.

    Candidate-specific runtime failures (a transformed kernel that
    faults, races or diverges when executed) come back as ``error``
    candidates — they describe the candidate, and the failure reason is
    surfaced on its ``search_candidate`` event.  Deterministic
    toolchain failures re-raise instead: a
    :class:`~repro.frontend.errors.FrontendError` or
    :class:`~repro.ir.verifier.VerificationError` means a rule emitted
    IR the compiler itself rejects — a rule bug that a serial rerun
    would reproduce identically, never something to discard quietly
    (mirrors the PR 4 parallel-engine contract).
    ``KeyboardInterrupt``/``SystemExit`` always propagate.
    """
    from repro.frontend.errors import FrontendError
    from repro.ir.verifier import VerificationError

    pipeline = tuple(pipeline)
    try:
        from repro.apps.harness import compile_app, execute_app
        from repro.apps.registry import get_app
        from repro.perf import estimate_cost
        from repro.session import Session

        app = get_app(app_id)
        problem = app.make_problem(scale)
        # a fresh, environment-isolated session: scoring must not depend
        # on the caller's REPRO_* environment (determinism contract)
        with Session(env={}, workers=1, exec_backend="codegen").activate():
            kernel, _ = compile_app(app, "with")
            rewrites = _apply_pipeline(kernel, pipeline, problem.local_size)
            run = execute_app(
                app,
                kernel,
                variant="with",
                scale=scale,
                collect_trace=True,
                sample_groups=sample_groups,
                workers=1,
            )
            cost = estimate_cost(run.trace, device_name)
        return CandidateEval(app_id, pipeline, rewrites, cost.cycles, device_name)
    except (FrontendError, VerificationError):
        raise
    except Exception as exc:
        return CandidateEval(
            app_id,
            pipeline,
            (),
            _FAILED,
            device_name,
            error=f"{type(exc).__name__}: {exc}",
        )


def _eval_one(payload: Tuple[str, Tuple[str, ...], str, int, str]) -> CandidateEval:
    """Evaluate one candidate payload (pool task and serial path)."""
    app_id, pipeline, scale, sample_groups, device_name = payload
    return evaluate_pipeline(app_id, pipeline, scale, sample_groups, device_name)


# ---------------------------------------------------------------------------
# winner verification (analyzer gate + differential runner)
# ---------------------------------------------------------------------------


def verify_pipeline(
    app_id: str,
    pipeline: Sequence[str],
    scale: str,
) -> Tuple[bool, str]:
    """Re-derive the transformed kernel and gate it; ``(ok, reason)``.

    Gates, in order: the static race/divergence analyzer (a decided
    finding vetoes), three-backend trace + output bit-identity, and
    byte-identical outputs against the untransformed baseline.

    Gate refusals come back as ``(False, reason)``; deterministic
    compile/verifier errors re-raise (same contract as
    :func:`evaluate_pipeline` — they are rule bugs, not gate verdicts)
    and ``KeyboardInterrupt``/``SystemExit`` propagate untouched.
    """
    from repro.analysis import analyze_kernel
    from repro.frontend.errors import FrontendError
    from repro.ir.verifier import VerificationError
    from repro.apps.harness import compile_app, execute_app
    from repro.apps.registry import get_app
    from repro.parallel.diff import (
        DifferentialMismatch,
        assert_outputs_equal,
        assert_traces_equal,
    )
    from repro.session import Session

    pipeline = tuple(pipeline)
    app = get_app(app_id)
    problem = app.make_problem(scale)
    try:
        with Session(env={}, workers=1, exec_backend="codegen").activate():
            kernel, _ = compile_app(app, "with")
            _apply_pipeline(kernel, pipeline, problem.local_size)
            if pipeline:  # the analyzer veto gate (empty pipeline: a no-op)
                rep = analyze_kernel(kernel, problem.local_size)
                blocking = rep.races + rep.divergences
                if blocking:
                    return False, "analyzer veto: " + "; ".join(
                        f.render() for f in blocking
                    )
            baseline_kernel, _ = compile_app(app, "with")
            base = execute_app(
                app, baseline_kernel, variant="with", scale=scale,
                collect_trace=False, workers=1,
            )
        runs = {}
        for backend in ("reference", "tape", "codegen"):
            with Session(env={}, workers=1, exec_backend=backend).activate():
                # full grid, no sampling: sampled launches execute only
                # the sampled groups, and verification must compare the
                # complete output of every work-group
                runs[backend] = execute_app(
                    app, kernel, variant="with", scale=scale,
                    collect_trace=True, workers=1,
                )
        ref = runs["reference"]
        for backend in ("tape", "codegen"):
            assert_traces_equal(
                ref.trace, runs[backend].trace,
                f"{app_id} search winner [{backend}]",
            )
            assert_outputs_equal(
                ref.outputs, runs[backend].outputs,
                f"{app_id} search winner [{backend}]",
            )
        # byte-identical outputs against the untransformed kernel: every
        # shipped rule preserves computed values exactly (it reorders or
        # re-homes memory traffic, never arithmetic)
        assert_outputs_equal(
            base.outputs, ref.outputs, f"{app_id} search winner vs default"
        )
    except DifferentialMismatch as exc:
        return False, f"differential: {exc}"
    except (FrontendError, VerificationError):
        raise
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return True, ""


# ---------------------------------------------------------------------------
# the search proper
# ---------------------------------------------------------------------------


def _resolved(options: SearchOptions) -> Tuple[Tuple[str, ...], int, int, int, str]:
    """Fill ``None`` option fields from the active session's config."""
    from repro.rules import rule_names
    from repro.session import current_session

    session = current_session()
    rules = tuple(options.rules) or rule_names()
    beam = options.beam if options.beam is not None else session.get("search_beam")
    depth = options.depth if options.depth is not None else session.get("search_depth")
    sample_groups = (
        options.sample_groups
        if options.sample_groups is not None
        else session.get("search_sample_groups")
    )
    device_name = options.device or session.get("search_device")
    return rules, int(beam), int(depth), int(sample_groups), str(device_name)


def search_app(app_id: str, options: SearchOptions) -> AppSearchResult:
    """Beam-search one application; see the module docstring."""
    from repro.rules import get_rule

    rules, beam, depth, sample_groups, device_name = _resolved(options)
    for name in rules:
        get_rule(name)  # unknown rule names fail before any evaluation
    t0 = time.perf_counter()
    events.emit(
        "search_start",
        app=app_id,
        rules=list(rules),
        beam=beam,
        depth=depth,
        device=device_name,
    )

    def payload(pipeline: Tuple[str, ...]):
        return (app_id, pipeline, options.scale, sample_groups, device_name)

    # learned go/no-go pruning: load the committed (or configured) model
    # and trace the baseline once for its reuse/divergence features —
    # everything a candidate prediction needs besides statics
    predictor = threshold = tune_ctx = None
    if options.tune:
        from repro.session import current_session
        from repro.tune.features import app_kernel_context
        from repro.tune.model import default_model_path, load_model

        session = current_session()
        model_path = session.get("tune_model") or default_model_path()
        predictor = load_model(str(model_path))
        threshold = float(session.get("tune_threshold"))
        tune_ctx = app_kernel_context(app_id, options.scale, sample_groups)

    baseline = _eval_one(payload(()))
    if baseline.error:
        raise RuntimeError(
            f"search baseline for {app_id!r} failed: {baseline.error}"
        )
    events.emit(
        "search_candidate",
        app=app_id,
        pipeline=[],
        rewrites=[],
        cycles=baseline.cycles,
        kept=True,
        error="",
    )

    kept_all: List[CandidateEval] = []
    scored_all: List[CandidateEval] = []
    pruned = 0
    frontier: List[CandidateEval] = [baseline]
    for _level in range(depth):
        extensions: List[Tuple[str, ...]] = []
        for cand in frontier:
            for name in rules:
                if name in cand.pipeline:
                    continue  # rules are idempotent: repeats are no-ops
                extensions.append(cand.pipeline + (name,))
        if not extensions:
            break
        if predictor is not None:
            # go/no-go gate, run before any scoring launch: static
            # features are enough to drop extensions whose last rule
            # rewrote nothing (the keep filter would discard them after
            # paying for a full simulation), and the model votes on the
            # rest.  Pruning shrinks the scoring queue only — it cannot
            # admit a candidate, and winners are verified regardless.
            from repro.tune.features import app_candidate_features

            to_eval: List[Tuple[str, ...]] = []
            for pipe in extensions:
                feats, rewrites = app_candidate_features(
                    tune_ctx, app_id, pipe, options.scale, device_name
                )
                if rewrites[-1] == 0:
                    reason = "pruned: last rule rewrote nothing"
                else:
                    p_win = predictor.predict(feats)
                    prune = p_win < threshold
                    events.emit(
                        "tune_predict",
                        kernel=f"app:{app_id}",
                        pipeline=list(pipe),
                        p_win=p_win,
                        threshold=threshold,
                        prune=prune,
                    )
                    if not prune:
                        to_eval.append(pipe)
                        continue
                    reason = (
                        f"pruned: p_win={p_win:.4f} < threshold {threshold:g}"
                    )
                pruned += 1
                events.emit(
                    "search_candidate",
                    app=app_id,
                    pipeline=list(pipe),
                    rewrites=list(rewrites),
                    cycles=-1.0,
                    kept=False,
                    error=reason,
                )
            extensions = to_eval
            if not extensions:
                break
        # results come back in input order: the determinism contract
        evals, _ = fan_out(
            _eval_one, [payload(p) for p in extensions], options.workers
        )
        scored_all.extend(evals)
        kept: List[CandidateEval] = []
        for ev in evals:
            keep = not ev.error and bool(ev.rewrites) and ev.rewrites[-1] > 0
            events.emit(
                "search_candidate",
                app=app_id,
                pipeline=list(ev.pipeline),
                rewrites=list(ev.rewrites),
                cycles=ev.cycles if ev.cycles != _FAILED else -1.0,
                kept=keep,
                # why the candidate failed, "" when it evaluated cleanly
                # (dropping a candidate must leave a visible reason)
                error=ev.error,
            )
            if keep:
                kept.append(ev)
        kept_all.extend(kept)
        frontier = sorted(kept, key=lambda e: (e.cycles, e.pipeline))[:beam]
        if not frontier:
            break

    # rank every scored candidate (baseline included) and verify best-first
    ranked = sorted(
        kept_all + [baseline],
        key=lambda e: (e.cycles, len(e.pipeline), e.pipeline),
    )
    winner = baseline
    verified = False
    rejected: List[str] = []
    for cand in ranked:
        ok, reason = verify_pipeline(app_id, cand.pipeline, options.scale)
        events.emit(
            "search_verified",
            app=app_id,
            pipeline=list(cand.pipeline),
            ok=ok,
            reason=reason,
        )
        if ok:
            winner = cand
            verified = True
            break
        rejected.append(f"{cand.label}: {reason}")

    wall = time.perf_counter() - t0
    events.emit(
        "search_end",
        app=app_id,
        pipeline=list(winner.pipeline),
        cycles=winner.cycles,
        baseline_cycles=baseline.cycles,
        evaluated=len(kept_all) + 1,
        pruned=pruned,
        verified=verified,
        wall_ms=wall * 1e3,
    )
    return AppSearchResult(
        app_id=app_id,
        device=device_name,
        baseline=baseline,
        winner=winner,
        evaluated=len(kept_all) + 1,
        verified=verified,
        rejected=tuple(rejected),
        wall_s=wall,
        pruned=pruned,
        candidates=tuple(scored_all),
    )


def run_search(options: SearchOptions) -> SearchRunResult:
    """Search every requested app (default: the full Table III set)."""
    from repro.apps.registry import table_apps

    t0 = time.perf_counter()
    apps = tuple(options.apps) or tuple(a.id for a in table_apps())
    run = SearchRunResult(
        options=options, workers=resolve_workers(options.workers)
    )
    for app_id in apps:
        run.results.append(search_app(app_id, options))
    run.wall_s = time.perf_counter() - t0
    return run


def render_search(run: SearchRunResult) -> str:
    """The deterministic report ``--golden`` pins (no wall-clock in it)."""
    from repro.reporting import ascii_table

    rules, beam, depth, sample_groups, device_name = _resolved(run.options)
    rows = []
    for r in run.results:
        rows.append(
            [
                r.app_id,
                r.winner.label,
                f"{r.winner.cycles:.1f}",
                f"{r.baseline.cycles:.1f}",
                f"{r.speedup:.3f}x",
                "yes" if r.verified else "NO",
            ]
        )
    title = (
        f"pipeline search (beam {beam}, depth {depth}, device {device_name}, "
        f"scale {run.options.scale}, sample groups {sample_groups})"
    )
    return ascii_table(
        ["app", "winning pipeline", "predicted cycles", "default cycles",
         "speedup", "verified"],
        rows,
        title=title,
    )


# ---------------------------------------------------------------------------
# CLI: ``repro search``
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import add_session_flags
    from repro.perf.bench import validate_app_ids
    from repro.session import session_from_flags

    p = argparse.ArgumentParser(
        prog="repro search",
        description="Beam-search rewrite-rule pipelines per app: score "
        "candidates with the trace-driven performance model (codegen "
        "backend), then verify every winner with the race analyzer and "
        "the three-backend differential runner.",
    )
    p.add_argument("--apps", default="",
                   help="comma-separated app ids (default: every Table III app)")
    p.add_argument("--rules", default="",
                   help="comma-separated rule names to search over "
                   "(default: every registered rule)")
    p.add_argument("--beam", type=int, default=None,
                   help="beam width (default: $REPRO_SEARCH_BEAM)")
    p.add_argument("--depth", type=int, default=None,
                   help="max pipeline length (default: $REPRO_SEARCH_DEPTH)")
    p.add_argument("--greedy", action="store_true",
                   help="greedy baseline: beam width 1")
    p.add_argument("--scale", default="test", help="problem scale")
    p.add_argument("--sample-groups", type=int, default=None,
                   help="traced groups per scoring launch "
                   "(default: $REPRO_SEARCH_SAMPLE_GROUPS)")
    p.add_argument("--device", default=None,
                   help="device model scoring candidates "
                   "(default: $REPRO_SEARCH_DEVICE)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width for candidate evaluation "
                   "(default: $REPRO_WORKERS, then 1)")
    p.add_argument("--tune", action="store_true",
                   help="prune candidates with the learned go/no-go "
                   "predictor before trace-driven scoring (model from "
                   "$REPRO_TUNE_MODEL, cut at $REPRO_TUNE_THRESHOLD; "
                   "winners are verified identically either way)")
    p.add_argument("--golden", metavar="FILE", default=None,
                   help="compare the report against FILE (CI pinning); "
                   "with $REPRO_UPDATE_GOLDEN=1 or --update-golden, "
                   "rewrite FILE instead")
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite --golden FILE with the current report")
    add_session_flags(p)
    args = p.parse_args(argv)

    app_ids = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    if app_ids:
        try:
            validate_app_ids(app_ids)
        except ValueError as exc:
            p.error(str(exc))

    options = SearchOptions(
        apps=app_ids,
        rules=tuple(r.strip() for r in args.rules.split(",") if r.strip()),
        beam=1 if args.greedy else args.beam,
        depth=args.depth,
        scale=args.scale,
        sample_groups=args.sample_groups,
        device=args.device,
        workers=args.workers,
        tune=args.tune,
    )
    with session_from_flags(args.config, args.trace_out) as session:
        with session.activate():
            run = run_search(options)
            report = render_search(run)
            update = args.update_golden or bool(session.get("update_golden"))
    print(report)
    if args.tune:
        for r in run.results:
            print(f"# {r.app_id}: pruned {r.pruned} candidate(s) before "
                  f"scoring, fully scored {len(r.candidates)}")
    for r in run.results:
        for line in r.rejected:
            print(f"# {r.app_id} rejected {line}")
    if not all(r.verified for r in run.results):
        print("error: some apps have no verifiable pipeline", file=sys.stderr)
        return 1
    if args.golden:
        if update:
            with open(args.golden, "w") as fh:
                fh.write(report + "\n")
            print(f"# golden updated: {args.golden}")
        else:
            import difflib

            try:
                with open(args.golden) as fh:
                    expected = fh.read()
            except OSError as exc:
                print(f"error: cannot read golden {args.golden!r}: {exc}",
                      file=sys.stderr)
                return 1
            if expected != report + "\n":
                diff = "\n".join(
                    difflib.unified_diff(
                        expected.splitlines(),
                        (report + "\n").splitlines(),
                        fromfile=args.golden,
                        tofile="current",
                        lineterm="",
                    )
                )
                print(f"error: search report drifted from {args.golden}:\n{diff}",
                      file=sys.stderr)
                return 1
            print(f"# golden ok: {args.golden}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
