"""The repository benchmark: end-to-end and per-layer numbers for repro.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``paper-sweep`` — ``run_matrix`` over the 11 Table III apps on all six
  devices, serially: the Table IV / Figure 10 reproduction.
* ``paper-sweep-w2`` — the same call fanned out over two pool workers.
* ``search-tuned`` — the 11-app rewrite-pipeline search with the learned
  go/no-go pruning.
* ``fuzz-campaign`` — a 200-kernel fuzz campaign; the only workload
  whose inputs depend on ``--seed``.

Every pass runs in a fresh process (``one_pass.py``), so each starts
cold, and is killed after a deadline; a pass that hangs or crashes
counts all its items as failed.  Passes repeat while another one fits
in ``--seconds`` (at least one).  Before them, an untraced run starts
the pass process a few times only to set up, for the ``setup_s`` median.

Host speed.  On a shared 2-CPU virtual machine the same pass measured
anywhere from 6 s to 14 s within half an hour, because other tenants
loaded the host.  The pass process is therefore pinned to one CPU (two
on ``paper-sweep-w2``), and while it runs this process times a small
fixed chunk of interpreter-plus-numpy work on each of those CPUs every
``PROBE_INTERVAL_S`` (a few percent of a CPU, in thread CPU time so the
probe's own waiting does not count).  On that machine, probing the
pass's own CPU halved the pass-to-pass variation left after scaling,
compared with probing the other CPU.  Every reported time is the
measured time scaled by ``PROBE_REF_S`` over the mean chunk time during
that pass: the time the pass would take on a host where the chunk takes
``PROBE_REF_S``.  A change to the program shows in full; only the
host's speed is divided out.  The pass lines printed before the result
keep the raw times and the probe.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``items_per_s``
(items of one pass over its scaled wall time, median over passes),
``peak_rss_mb`` (the pass process's peak plus each pool worker's, the
highest over the passes: the pool splits the cases between its workers
differently from pass to pass, which moves that sum by about 3%) and
``ok_frac`` (items that passed every check over items attempted).
``--trace 1`` runs one untraced pass and then traced passes, and prints
the per-layer metrics (medians over the traced passes) plus
``trace.overhead_frac``: traced over untraced scaled wall time, minus 1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the host, the program's source digest, the resolved config and each
pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from one_pass import ITEMS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: pass processes started only to set up, for the setup_s median (the
#: first, which also fills the bytecode cache, is not counted)
SETUP_PROBES = 5
#: scaled times equal measured times when a probe chunk takes this long
PROBE_REF_S = 0.002
PROBE_INTERVAL_S = 0.05
#: a pass that runs longer than this is killed and all its items fail
PASS_DEADLINE_S = 60.0
#: the whole run must end well inside three minutes
RUN_DEADLINE_S = 170.0

_PROBE_ARRAY = np.arange(1024, dtype=np.int64)


def probe_chunk() -> float:
    """Thread CPU time of a fixed mix of small-numpy and interpreter work,
    the two kinds of work the program does."""
    t0 = time.thread_time()
    s = 0
    for i in range(200):
        b = (_PROBE_ARRAY * (i | 1)) % 977
        for j in range(20):
            s += j * i % 7
        s += int(b[i])
    return time.thread_time() - t0


def _log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def _source_digest(src: str) -> str:
    """sha256 over the program's Python sources (a checkout has no git)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the pass and any pool workers it forked, and wait them out."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):  # orphaned workers are reaped by init
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _probe_cpu(cpu: int, samples: List[float], stop: threading.Event) -> None:
    os.sched_setaffinity(0, {cpu})  # pins this thread only
    while not stop.is_set():
        samples.append(probe_chunk())
        stop.wait(PROBE_INTERVAL_S)


def run_pass(args, trace: int, setup_only: bool, deadline: float) -> dict:
    """One pass process, probing the speed of the CPUs it is pinned to
    while it runs; returns its JSON result (plus ``probe_s``) or a record
    with an ``error``."""
    n_cpus = 2 if args.workload == "paper-sweep-w2" else 1
    cpus = sorted(os.sched_getaffinity(0))[:n_cpus]
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--cpus", ",".join(map(str, cpus))]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    samples: List[float] = []
    stop = threading.Event()
    probes = [threading.Thread(target=_probe_cpu, args=(cpu, samples, stop))
              for cpu in cpus]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    for t in probes:
        t.start()
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        return {"error": f"pass killed after its {deadline:.0f} s deadline"}
    finally:
        if proc.poll() is None:
            _stop_group(proc)
        stop.set()
        for t in probes:
            t.join()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited with code {proc.returncode}"}
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"pass printed no result: {lines[-1][:200]!r}"}
    res["probe_s"] = statistics.fmean(samples or [probe_chunk()])
    return res


def _scale(res: dict) -> None:
    """Rescale a pass's times to the reference host speed, in place."""
    factor = PROBE_REF_S / res["probe_s"]
    res["setup_s"] *= factor
    if "wall_s" in res:
        res["wall_s"] *= factor
    for name in res.get("layers") or ():
        if name.endswith("_s"):
            res["layers"][name] *= factor


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description="repro end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    started = time.monotonic()

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - started)

    _log(json.dumps({"workload": args.workload, "seed": args.seed,
                     "trace": args.trace, "host_cpus": os.cpu_count(),
                     "python": platform.python_version(),
                     "source_sha256": _source_digest(src)}))

    setups: List[float] = []
    if not args.trace:
        for i in range(SETUP_PROBES + 1):
            res = run_pass(args, 0, True, min(PASS_DEADLINE_S, remaining()))
            if "error" in res:  # the passes below fail the same way
                break
            if i:
                _scale(res)
                setups.append(res["setup_s"])

    # untraced passes, or one untraced reference pass then traced ones
    passes: List[dict] = []
    t0 = time.monotonic()
    while True:
        trace = int(bool(args.trace and passes))
        res = run_pass(args, trace, False, min(PASS_DEADLINE_S, remaining()))
        res["trace"] = trace
        passes.append(res)
        if len(passes) == 1 and "config" in res:
            _log("config " + json.dumps(res["config"], sort_keys=True))
        _log("pass " + json.dumps({k: v for k, v in res.items()
                                   if k not in ("config", "layers")}))
        if "error" in res:
            break
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > args.seconds and not (args.trace and len(passes) == 1):
            break
        if remaining() < per_pass * 1.5 + 5:
            break

    attempted = failed = 0
    for r in passes:
        attempted += r.get("items", ITEMS[args.workload])
        failed += ITEMS[args.workload] if "error" in r else r["failed"]
    good = [r for r in passes if "error" not in r and r["failed"] == 0]
    for r in good:
        _scale(r)

    metrics: Dict[str, Dict[str, object]] = {}
    if not args.trace:
        setups += [r["setup_s"] for r in good]
        rates = [r["items"] / r["wall_s"] for r in good]
        rss = [r["peak_rss_mb"] for r in good]
        metrics = {
            "setup_s": {"value": statistics.median(setups) if setups else 0.0,
                        "unit": "s"},
            "items_per_s": {"value": statistics.median(rates) if rates else 0.0,
                            "unit": "1/s"},
            "peak_rss_mb": {"value": max(rss) if rss else 0.0,
                            "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    else:
        untraced = [r for r in good if not r["trace"]]
        traced = [r for r in good if r["trace"]]
        if traced:
            for name in traced[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in traced)
                metrics[name] = {"value": value, "unit": _unit(name)}
        overhead = 0.0
        if traced and untraced:
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        / statistics.median(r["wall_s"] for r in untraced)) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        if not traced:
            failed = attempted  # no per-layer numbers without a traced pass

    for r in passes:
        for err in r.get("errors", [])[:20] + ([r["error"]] if "error" in r else []):
            print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
