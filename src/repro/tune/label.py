"""Corpus labeling for the go/no-go autotuner.

Ground truth comes from the same oracle the search trusts: compile,
transform, execute under the codegen backend, and model the trace with
:func:`repro.perf.estimate_cost`.  A (kernel, pipeline, device) example
is labeled **win** iff the pipeline's modelled cycles strictly beat the
untransformed baseline's on that device — exactly the comparison the
beam search makes when it ranks candidates.

Three example sources, tagged so training can hold sources out:

* ``app`` — the 11 Table III applications (sampled-group scoring, the
  search's own configuration); held out of training by default so the
  committed artifact's accuracy number means something;
* ``corpus`` — the promoted fuzz corpus under ``tests/corpus/``
  (full-grid scoring; the kernels are tiny);
* ``fuzz`` — freshly generated kernels from the deterministic fuzzer,
  seeded explicitly so every rerun labels the identical set.

Labeling fans out over the shared process pool
(:func:`repro.parallel.engine.fan_out`), one task per kernel, results
gathered in input order — the label stream is byte-identical
across worker counts and repeated processes (pinned by
``tests/test_tune_determinism.py``).  Kernels whose baseline execution
fails are skipped whole; a candidate whose transformed execution fails
is skipped (the search's keep-filter would discard it anyway); and
deterministic compile/verifier errors re-raise — a rule emitting
rejected IR is a rule bug, not a label.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.session import events

__all__ = [
    "DEFAULT_DEVICES",
    "DEFAULT_FUZZ_SEED",
    "LabeledExample",
    "enumerate_pipelines",
    "corpus_dir",
    "label_corpus",
]

#: devices labels are computed for — one CPU and both GPU vendors, so
#: the model sees the device axis vary (the trace is shared; only the
#: cost model reruns per device)
DEFAULT_DEVICES: Tuple[str, ...] = ("Fermi", "SNB", "Tahiti")

#: root seed of the freshly-fuzzed training kernels (fixed: labeling
#: must be reproducible without recording the generated sources)
DEFAULT_FUZZ_SEED = 20260808


@dataclass(frozen=True)
class LabeledExample:
    """One ground-truth-labeled candidate, ready for training."""

    kernel_id: str        # "app:NVD-MT" / "corpus:<file>" / "fuzz:<seed>:<i>"
    source: str           # "app" | "corpus" | "fuzz"
    pipeline: Tuple[str, ...]
    device: str
    features: Dict[str, float]
    win: bool
    cycles: float
    baseline_cycles: float


def enumerate_pipelines(
    rules: Optional[Sequence[str]] = None, depth: int = 2
) -> List[Tuple[str, ...]]:
    """Every ordered pipeline of distinct rules up to ``depth`` long,
    in deterministic order (the search's extension order)."""
    from repro.rules import rule_names

    names = tuple(rules) if rules else rule_names()
    level: List[Tuple[str, ...]] = [()]
    out: List[Tuple[str, ...]] = []
    for _ in range(depth):
        nxt: List[Tuple[str, ...]] = []
        for p in level:
            for n in names:
                if n not in p:
                    nxt.append(p + (n,))
        out.extend(nxt)
        level = nxt
    return out


def corpus_dir() -> str:
    """The promoted corpus shipped with the test suite."""
    from repro.tune.model import default_model_path

    return os.path.join(
        os.path.dirname(os.path.dirname(default_model_path())), "corpus"
    )


# ---------------------------------------------------------------------------
# per-kernel labeling tasks (run in pool workers)
# ---------------------------------------------------------------------------


def _cost(trace, device_name: str) -> float:
    from repro.perf import estimate_cost

    return float(estimate_cost(trace, device_name).cycles)


def _label_app_task(payload) -> List[dict]:
    """Label every (pipeline, device) of one Table III app."""
    from repro.apps.harness import compile_app, execute_app
    from repro.apps.registry import get_app
    from repro.search.engine import _apply_pipeline
    from repro.session import Session
    from repro.tune.features import candidate_features, kernel_context

    (_, app_id, pipelines, scale, sample_groups, devices) = payload
    app = get_app(app_id)
    problem = app.make_problem(scale)
    out: List[dict] = []
    with Session(env={}, workers=1, exec_backend="codegen").activate():
        baseline_kernel, _ = compile_app(app, "with")
        base_run = execute_app(
            app, baseline_kernel, variant="with", scale=scale,
            collect_trace=True, sample_groups=sample_groups, workers=1,
        )
        ctx = kernel_context(
            baseline_kernel, base_run.trace, problem.local_size
        )
        base_cycles = {d: _cost(base_run.trace, d) for d in devices}
        for pipeline in pipelines:
            kernel, _ = compile_app(app, "with")
            rewrites = _apply_pipeline(kernel, pipeline, problem.local_size)
            feats = {
                d: candidate_features(ctx, kernel, pipeline, rewrites, d)
                for d in devices
            }
            try:
                run = execute_app(
                    app, kernel, variant="with", scale=scale,
                    collect_trace=True, sample_groups=sample_groups,
                    workers=1,
                )
            except Exception:
                continue  # runtime failure: the keep-filter's territory
            for d in devices:
                cycles = _cost(run.trace, d)
                out.append(dict(
                    kernel_id=f"app:{app_id}", source="app",
                    pipeline=list(pipeline), device=d, features=feats[d],
                    win=bool(cycles < base_cycles[d]), cycles=cycles,
                    baseline_cycles=base_cycles[d],
                ))
    return out


def _label_source_task(payload) -> List[dict]:
    """Label every (pipeline, device) of one standalone kernel source
    (a corpus file or a freshly fuzzed case); full-grid scoring."""
    from repro.fuzz.oracle import input_data
    from repro.runtime import Memory
    from repro.search.engine import _apply_pipeline
    from repro.session import Session
    from repro.tune.features import candidate_features, kernel_context

    (_, kernel_id, src_tag, source, kernel_name, gsize, lsize,
     in_elems, p_value, pipelines, devices) = payload

    def launch(kernel):
        mem = Memory()
        total = int(np.prod(gsize))
        out_buf = mem.alloc(total * 4, "out")
        in_buf = mem.from_array(input_data(in_elems), "in")
        res = session.launch(
            kernel, tuple(gsize), tuple(lsize),
            {"out": out_buf, "in": in_buf, "P": p_value},
            memory=mem, collect_trace=True,
        )
        return res.trace

    out: List[dict] = []
    session = Session(env={}, workers=1, exec_backend="codegen")
    with session.activate():
        baseline_kernel = session.compile_kernel(source, kernel_name)
        try:
            base_trace = launch(baseline_kernel)
        except Exception:
            return []  # kernel faults untransformed: nothing to learn
        ctx = kernel_context(baseline_kernel, base_trace, lsize)
        base_cycles = {d: _cost(base_trace, d) for d in devices}
        for pipeline in pipelines:
            kernel = session.compile_kernel(source, kernel_name)
            rewrites = _apply_pipeline(kernel, pipeline, lsize)
            feats = {
                d: candidate_features(ctx, kernel, pipeline, rewrites, d)
                for d in devices
            }
            try:
                trace = launch(kernel)
            except Exception:
                continue
            for d in devices:
                cycles = _cost(trace, d)
                out.append(dict(
                    kernel_id=kernel_id, source=src_tag,
                    pipeline=list(pipeline), device=d, features=feats[d],
                    win=bool(cycles < base_cycles[d]), cycles=cycles,
                    baseline_cycles=base_cycles[d],
                ))
    return out


def _label_one(payload) -> List[dict]:
    if payload[0] == "app":
        return _label_app_task(payload)
    return _label_source_task(payload)


# ---------------------------------------------------------------------------
# the labeling run
# ---------------------------------------------------------------------------


def _payloads(
    sources: Sequence[str],
    pipelines: List[Tuple[str, ...]],
    scale: str,
    sample_groups: int,
    devices: Tuple[str, ...],
    fuzz_seed: int,
    fuzz_count: int,
    apps: Optional[Sequence[str]] = None,
) -> List[tuple]:
    from repro.apps.registry import table_apps
    from repro.fuzz import load_manifest
    from repro.fuzz.generate import generate_case

    out: List[tuple] = []
    if "app" in sources:
        ids = tuple(apps) if apps else tuple(a.id for a in table_apps())
        for app_id in ids:
            out.append(
                ("app", app_id, pipelines, scale, sample_groups, devices)
            )
    if "corpus" in sources:
        cdir = corpus_dir()
        for entry in load_manifest(cdir):
            if str(entry["expected"]["exec"]) != "ok":
                continue
            with open(os.path.join(cdir, str(entry["file"]))) as fh:
                source = fh.read()
            out.append((
                "source", f"corpus:{entry['file']}", "corpus", source,
                str(entry["kernel"]), tuple(entry["global_size"]),
                tuple(entry["local_size"]), int(entry["in_elems"]),
                int(entry["p_value"]), pipelines, devices,
            ))
    if "fuzz" in sources:
        for i in range(fuzz_count):
            case = generate_case(fuzz_seed, i)
            out.append((
                "source", f"fuzz:{fuzz_seed}:{i}", "fuzz", case.source(),
                case.kernel_name, case.global_size, case.local_size,
                case.in_elems, case.p_value, pipelines, devices,
            ))
    return out


def label_corpus(
    sources: Sequence[str] = ("app", "corpus", "fuzz"),
    rules: Optional[Sequence[str]] = None,
    depth: int = 2,
    scale: str = "test",
    sample_groups: int = 8,
    devices: Sequence[str] = DEFAULT_DEVICES,
    fuzz_seed: int = DEFAULT_FUZZ_SEED,
    fuzz_count: int = 12,
    workers: int = 1,
    apps: Optional[Sequence[str]] = None,
) -> List[LabeledExample]:
    """Run the oracle over every requested source; returns examples in
    deterministic (payload, pipeline, device) order."""
    from repro.parallel.engine import fan_out

    pipelines = enumerate_pipelines(rules, depth)
    payloads = _payloads(
        tuple(sources), pipelines, scale, sample_groups, tuple(devices),
        fuzz_seed, fuzz_count, apps,
    )
    per_kernel, _ = fan_out(_label_one, payloads, workers)
    rows = [r for kernel_rows in per_kernel for r in kernel_rows]

    out: List[LabeledExample] = []
    for r in rows:
        events.emit(
            "tune_label",
            kernel=r["kernel_id"],
            pipeline=list(r["pipeline"]),
            device=r["device"],
            win=r["win"],
            cycles=r["cycles"],
            baseline_cycles=r["baseline_cycles"],
        )
        out.append(LabeledExample(
            kernel_id=r["kernel_id"], source=r["source"],
            pipeline=tuple(r["pipeline"]), device=r["device"],
            features=r["features"], win=r["win"], cycles=r["cycles"],
            baseline_cycles=r["baseline_cycles"],
        ))
    return out
