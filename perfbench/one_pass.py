"""One measured pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins cold:
no experiment memo, compile cache, codegen module or warm pool worker
survives from an earlier pass.  Expected layer call counts are asserted
on every pass, so a cache that leaked in anyway fails the pass instead
of reporting a large speed-up.

The pass prints one JSON object as its last stdout line::

    {"setup_s": ..., "wall_s": ..., "items": 11, "failed": 0,
     "errors": [...], "peak_rss_mb": ..., "config": {...}, "layers": {...}}

``setup_s`` runs from ``--spawned-at`` (the parent's ``time.monotonic()``
just before it started this process; the clock is system-wide) until
the first item is ready to run: interpreter start, importing the
workload's entry point, the ``Session`` and, on ``paper-sweep-w2``,
forking the pool.  The layer wrappers are attached as the program loads
each module, so they import nothing the program would not.
``--setup-only`` stops there.  ``wall_s`` times the workload call alone;
its outputs are checked after it.

``--write-expected`` stores the program's current outputs as the
expected files under ``perfbench/expected/`` instead of checking them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

FUZZ_CASES = 200
FUZZ_DEFAULT_SEED = 7
#: workload -> items per pass (an app case, an app, a kernel)
ITEMS = {"paper-sweep": 11, "paper-sweep-w2": 11, "search-tuned": 11,
         "fuzz-campaign": FUZZ_CASES}
WORKLOADS = tuple(ITEMS)

#: layer call counts every pass must reproduce exactly (counted in the
#: benchmark process; on paper-sweep-w2 the work runs in pool workers,
#: so the parent must launch nothing — a launch there means a case fell
#: back to the serial path)
EXACT_CALLS = {
    "paper-sweep": {"runtime.launch": 22, "perf.estimate_cost": 132,
                    "perf.cpu_model": 66, "perf.gpu_model": 66,
                    "apps.make_problem": 22, "parallel.matrix": 1},
    "paper-sweep-w2": {"parallel.matrix": 1, "runtime.launch": 0,
                       "perf.estimate_cost": 0},
    "search-tuned": {"runtime.launch": 81, "frontend.compile": 146},
    "fuzz-campaign": {"fuzz.oracle": FUZZ_CASES},
}

#: modules holding each workload's entry point, imported during setup;
#: the program imports the rest itself, most of it inside the timed call
SETUP_IMPORTS = {
    "paper-sweep": ("repro.session",),
    "paper-sweep-w2": ("repro.session", "repro.parallel.engine"),
    "search-tuned": ("repro.session", "repro.search"),
    "fuzz-campaign": ("repro.session", "repro.fuzz.runner"),
}

#: layers that carry most of a workload's time; each must record calls
HEAVY = {
    "paper-sweep": ("runtime.launch", "perf.cpu_model", "perf.gpu_model"),
    "paper-sweep-w2": ("parallel.matrix",),
    "search-tuned": ("frontend.compile", "rules.apply", "runtime.launch",
                     "tune.features", "search.score", "search.verify"),
    "fuzz-campaign": ("frontend.compile", "analysis.analyze",
                      "runtime.launch", "fuzz.oracle"),
}


def _expected_path(name: str) -> str:
    return os.path.join(EXPECTED, name)


def _write_json(name: str, obj) -> None:
    os.makedirs(EXPECTED, exist_ok=True)
    with open(_expected_path(name), "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_json(name: str):
    with open(_expected_path(name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# workloads: a timed call, then a check returning (items, failed, errors)
# ---------------------------------------------------------------------------


def run_sweep(session, workers: int):
    from repro.perf.devices import DEVICES

    return session.run_matrix(devices=tuple(DEVICES), workers=workers)


def check_sweep(result, write: bool) -> Tuple[int, int, List[str]]:
    observed = {"values": result.values, "table4": result.table4_counts()}
    if write:
        _write_json("paper_sweep.json", observed)
    expected = _read_json("paper_sweep.json")
    apps = {app_id for per_app in expected["values"].values() for app_id in per_app}
    errors = []
    bad = set(result.retried)
    if set(result.apps) != apps:
        errors.append(f"apps swept {sorted(result.apps)} != expected {sorted(apps)}")
        bad = set(apps)
    if observed["table4"] != expected["table4"]:
        errors.append(f"Table IV counts {observed['table4']} != {expected['table4']}")
        bad = set(apps)
    for dev, per_app in expected["values"].items():
        for app_id, value in per_app.items():
            got = result.values.get(dev, {}).get(app_id)
            if got != value:  # bit-identical floats, serial or fanned out
                bad.add(app_id)
                errors.append(f"{app_id} on {dev}: {got!r} != expected {value!r}")
    for app_id, reason in result.retried.items():
        errors.append(f"{app_id} retried serially: {reason}")
    return len(apps), len(bad & apps), errors


def _report_rows(text: str) -> Dict[str, List[str]]:
    rows = {}
    for line in text.splitlines()[3:]:
        cells = [c.strip() for c in line.split("|")]
        rows[cells[0]] = cells
    return rows


def run_search(session):
    from repro.search import SearchOptions

    return session.search(SearchOptions(tune=True, workers=1))


def check_search(run, write: bool) -> Tuple[int, int, List[str]]:
    from repro.search.engine import render_search

    report = render_search(run)
    if write:
        with open(_expected_path("search_tuned.txt"), "w") as fh:
            fh.write(report + "\n")
    with open(_expected_path("search_tuned.txt")) as fh:
        expected = fh.read().rstrip("\n")
    got, want = _report_rows(report), _report_rows(expected)
    searched = {r.app_id for r in run.results}
    errors = []
    bad = set(want) - searched
    if bad:
        errors.append(f"apps not searched: {sorted(bad)}")
    if searched - set(want) or report.splitlines()[:3] != expected.splitlines()[:3]:
        # another app set, or another beam, depth or device
        errors.append("search report header or app set differs from the expected file")
        bad = set(want)
    # the repository's own 3-app golden must agree with the same rows
    with open(os.path.join("tests", "golden", "search.txt")) as fh:
        golden = _report_rows(fh.read())
    for r in run.results:
        if got.get(r.app_id) != want.get(r.app_id):
            errors.append(f"{r.app_id}: row {got.get(r.app_id)} != {want.get(r.app_id)}")
            bad.add(r.app_id)
        if not r.verified:
            errors.append(f"{r.app_id}: winner not verified")
            bad.add(r.app_id)
    for app_id, cells in golden.items():
        if got.get(app_id) != cells:
            errors.append(f"{app_id}: row differs from tests/golden/search.txt")
            bad.add(app_id)
    return len(want), len(bad & set(want)), errors


def _fuzz_fingerprint(results) -> str:
    """Digest of every verdict a campaign reached (wall times excluded)."""
    import hashlib

    blob = json.dumps(
        [
            {
                "source": r.source,
                "exec": r.outcome.exec_outcome,
                "analyzer": r.outcome.analyzer,
                "cats": list(r.outcome.deferral_categories),
                "grover": r.outcome.grover,
                "evictions": r.outcome.evictions,
                "cycles": r.outcome.cycles,
                "mismatches": [m.check for m in r.outcome.mismatches],
            }
            for r in results
        ],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def run_campaign(seed: int):
    from repro.fuzz.runner import FuzzOptions, run_fuzz

    return run_fuzz(FuzzOptions(
        seed=seed, count=FUZZ_CASES, workers=1,
        out_dir=os.path.join(".perfbench_out", "fuzz_repros")))


def check_campaign(run, write: bool) -> Tuple[int, int, List[str]]:
    seed = run.options.seed
    errors = [
        f"case {r.index}: {m.render()}" for r in run.mismatching
        for m in r.outcome.mismatches
    ]
    failed = len(run.mismatching)
    if len(run.results) != FUZZ_CASES:
        errors.append(f"{len(run.results)} cases judged, {FUZZ_CASES} asked")
        failed = FUZZ_CASES
    if seed == FUZZ_DEFAULT_SEED:
        fp = _fuzz_fingerprint(run.results)
        if write:
            _write_json("fuzz_seed7.json", {"seed": seed, "cases": FUZZ_CASES,
                                            "fingerprint": fp})
        want = _read_json("fuzz_seed7.json")["fingerprint"]
        if fp != want:
            errors.append(f"verdict fingerprint {fp} != expected {want}")
            failed = FUZZ_CASES
    return FUZZ_CASES, failed, errors


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from /proc (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", default="",
                   help="comma-separated CPUs to pin this pass (and its pool) to")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-expected", action="store_true")
    args = p.parse_args()
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    # -- setup: everything before the first item is ready --------------------
    from layers import EventTally, Tracer, check_spans, layer_metrics

    tracer = Tracer(spans=bool(args.trace))
    tracer.install()  # before the program's first import
    for module in SETUP_IMPORTS[args.workload]:
        importlib.import_module(module)
    import repro
    from repro.session import Session, events

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    if os.path.realpath(src_root) != os.path.realpath(os.path.join(os.getcwd(), "src")):
        print(f"repro imported from {src_root}, not from this checkout", file=sys.stderr)
        return 2

    tally = EventTally()
    if args.trace:
        events.attach(tally)
    w2 = args.workload == "paper-sweep-w2"
    session = Session(env={}, workers=1)  # caller REPRO_* vars cannot leak in
    workload, check = {
        "paper-sweep": (lambda: run_sweep(session, 1), check_sweep),
        "paper-sweep-w2": (lambda: run_sweep(session, 2), check_sweep),
        "search-tuned": (lambda: run_search(session), check_search),
        "fuzz-campaign": (lambda: run_campaign(args.seed), check_campaign),
    }[args.workload]
    worker_rss_kb = 0
    with session:
        if w2:
            from repro.parallel import pool as worker_pool
            from repro.parallel.engine import make_pool

            pool = worker_pool.acquire(2, factory=make_pool)
            if pool is None:
                print("process pool unavailable", file=sys.stderr)
                return 2
            pool.submit(os.getpid).result()  # the pool forks every worker here
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        t0 = time.perf_counter()
        result = workload()
        t1 = time.perf_counter()
        wall_s = t1 - t0
        events.detach(tally)
        # run-level checks on the timed call alone, before the output checks
        # (when one fails, no item of the pass counts as correct)
        run_errors = [
            f"{layer}: {tracer.calls[layer]} calls, expected {want}"
            for layer, want in EXACT_CALLS[args.workload].items()
            if tracer.calls[layer] != want
        ] + [
            f"{layer}: no calls recorded on a layer heavy here"
            for layer in HEAVY[args.workload] if tracer.calls[layer] == 0
        ]
        missed = tracer.coverage_misses()
        if missed:
            run_errors.append(f"unwrapped entry points or aliases: {missed}")
        layers = None
        if args.trace:
            layers = layer_metrics(tracer, tally, wall_s)
            problem = check_spans(tracer, t0, t1)
            if problem:
                run_errors.append(problem)
        items, failed, errors = check(result, args.write_expected)
        if w2:
            worker_rss_kb = sum(_vm_hwm_kb(pid) for pid in pool.worker_pids())
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
    # closing the session shut the pool down: its workers are reaped now
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu_s = max(0.0, after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    if w2 and worker_cpu_s <= 0.0:
        run_errors.append("pool workers used no CPU time")
    if layers is not None:
        layers["parallel.worker_cpu_s"] = worker_cpu_s
    if run_errors:
        errors += run_errors
        failed = items

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": items,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + worker_rss_kb) / 1024.0,
        "config": session.as_dict(),
        "layers": layers,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
