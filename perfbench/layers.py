"""Layer spans and counts for the benchmark, taken from outside the program.

:class:`Tracer` wraps the public entry point of each ``repro`` layer —
every module-level binding of a wrapped function (``launch`` alone is
bound in several modules) and the class methods behind the rest — and
counts calls per layer.  It wraps each module as the program loads it,
so the benchmark imports nothing the program would not.  With
``spans=True`` it also records one span
per call: ``[layer, start, end, parent index]``.  Calls nest on one
thread, so a layer's self time is its span minus its direct children,
and the self times of all spans sum to the wall time the root spans
cover.

:class:`EventTally` is a sink for ``repro.session.events``: it counts the
event kinds the program already emits (compile-cache hits, groups
executed, memo hits, fuzz outcomes, ...) for the per-layer counters.

Nothing here edits the program's files; the wrappers live only in the
process that installs them (and in workers it forks afterwards).  On
``paper-sweep-w2`` the cases run in pool workers, so the parent sees
only ``parallel.matrix``, the pool start and the workers' CPU time.

Which ``items_per_s`` each layer should move, written down before any
change that claims a gain:

* ``frontend.*`` — fuzz-campaign and search-tuned; barely paper-sweep.
* ``core.grover_s`` — small everywhere; a regression guard.
* ``rules.*``, ``tune.*``, ``search.*`` — search-tuned only.
* ``runtime.*`` — paper-sweep (pilot-dominated launches) and
  search-tuned (full-grid verification).
* ``perf.*`` — paper-sweep; fuzz-campaign should not change.
* ``analysis.*``, ``fuzz.*`` — fuzz-campaign.
* ``apps.make_problem_s`` — input generation, every workload.
* ``parallel.*`` — ``items_per_s`` and ``setup_s`` on paper-sweep-w2.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: (span layer, module, function): every module binding of the function
#: is rebound to its wrapper
FUNCTIONS = (
    ("runtime.launch", "repro.runtime.ndrange", "launch"),
    ("perf.estimate_cost", "repro.perf.timing", "estimate_cost"),
    ("analysis.analyze", "repro.analysis.driver", "analyze_kernel"),
    ("parallel.matrix", "repro.parallel.matrix", "run_matrix"),
    ("search.score", "repro.search.engine", "evaluate_pipeline"),
    ("search.verify", "repro.search.engine", "verify_pipeline"),
    ("tune.features", "repro.tune.features", "app_kernel_context"),
    ("tune.features", "repro.tune.features", "app_candidate_features"),
    ("fuzz.oracle", "repro.fuzz.oracle", "run_case"),
)

#: (span layer, module, class, method): the module-level shims
#: (``compile_kernel`` and friends) all call through the class, so
#: patching the class covers every alias
METHODS = (
    ("frontend.compile", "repro.session.core", "Session", "compile_source"),
    ("core.grover", "repro.core.grover", "GroverPass", "run"),
    ("perf.cpu_model", "repro.perf.cpumodel", "CPUModel", "time_kernel"),
    ("perf.gpu_model", "repro.perf.gpumodel", "GPUModel", "time_kernel"),
)

#: every layer a span can carry; ``<layer>_s`` is its self-time metric
#: (rule classes and app problem makers are found as their modules load)
LAYERS = tuple(dict.fromkeys(
    [t[0] for t in FUNCTIONS + METHODS] + ["rules.apply", "apps.make_problem"]))


class Tracer:
    """Wraps the layer entry points; counts calls, optionally records spans."""

    def __init__(self, spans: bool) -> None:
        self.record_spans = spans
        self.calls: Counter = Counter()
        self.rewrites = 0
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: original function -> its wrapper
        self._wrapped: Dict[Callable, Callable] = {}
        self._wrappers: set = set()

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, tally_rewrites: bool = False) -> Callable:
        if fn in self._wrapped:
            return self._wrapped[fn]
        calls, spans, stack = self.calls, self.spans, self._stack
        record, clock = self.record_spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if not record:
                out = fn(*args, **kwargs)
            else:
                span = [layer, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if tally_rewrites:
                self.rewrites += int(out)
            return out

        self._wrapped[fn] = wrapper
        self._wrappers.add(wrapper)
        return wrapper

    def install(self) -> None:
        """Wrap each layer's entry points as its module finishes loading.

        Install before anything imports ``repro``: the program then loads
        its modules when it would without the benchmark (many of them
        lazily, inside the timed call), so the wrapping adds no imports
        to ``setup_s`` or to the workload.
        """
        sys.meta_path.insert(0, _LoadHook(self._on_load))

    def _on_load(self, module) -> None:
        name = module.__name__
        for layer, mod_name, attr in FUNCTIONS:
            if name == mod_name:
                fn = getattr(module, attr)
                self._rebind(fn, self._wrap(layer, fn))
        for layer, mod_name, cls_name, attr in METHODS:
            if name == mod_name:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(layer, cls.__dict__[attr]))
        # rules and apps register themselves from their own modules
        rules = sys.modules.get("repro.rules.base")
        for cls in {type(r) for r in (rules.RULE_REGISTRY.values() if rules else ())}:
            fn = cls.__dict__["apply"]
            if fn not in self._wrappers:
                setattr(cls, "apply", self._wrap("rules.apply", fn, tally_rewrites=True))
        apps = sys.modules.get("repro.apps.registry")
        for app in (apps.APPS.values() if apps else ()):
            fn = app.make_problem
            if fn not in self._wrappers:
                app.make_problem = self._wrap("apps.make_problem", fn)
                self._rebind(fn, app.make_problem)
        # aliases bound while a wrapped module was still loading
        by_id = {id(fn): (fn, w) for fn, w in self._wrapped.items()}
        for alias, value in list(vars(module).items()):
            fn, wrapper = by_id.get(id(value), (None, None))
            if fn is value:
                setattr(module, alias, wrapper)

    def _rebind(self, fn: Callable, wrapper: Callable) -> None:
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)

    def coverage_misses(self) -> List[str]:
        """Entry points of loaded layer modules left unwrapped, and module
        bindings still holding an original (a miss here means calls went
        uncounted)."""
        misses = []
        for layer, mod_name, attr in FUNCTIONS:
            module = sys.modules.get(mod_name)
            if module is not None and getattr(module, attr) not in self._wrappers:
                misses.append(f"{mod_name}.{attr}")
        for layer, mod_name, cls_name, attr in METHODS:
            module = sys.modules.get(mod_name)
            if (module is not None and getattr(module, cls_name).__dict__[attr]
                    not in self._wrappers):
                misses.append(f"{mod_name}.{cls_name}.{attr}")
        originals = {id(fn): fn for fn in self._wrapped}
        misses += sorted(
            f"{module.__name__}.{name}"
            for module in _repro_modules()
            for name, value in list(vars(module).items())
            if id(value) in originals and originals[id(value)] is value
        )
        return misses

    # -- span arithmetic -----------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Layer -> total self time (span minus its direct children)."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] += (end - start) - child[i]
        return out


class _LoadHook(importlib.abc.MetaPathFinder):
    """Finds ``repro`` modules as the normal path finder would, and calls
    ``on_load(module)`` each time one has finished executing."""

    def __init__(self, on_load: Callable) -> None:
        self.on_load = on_load

    def find_spec(self, name, path=None, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module, on_load = spec.loader.exec_module, self.on_load

        def exec_then_wrap(module) -> None:
            exec_module(module)
            on_load(module)

        spec.loader.exec_module = exec_then_wrap
        return spec


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class EventTally:
    """Event-bus sink counting the kinds and payload sums the layers need."""

    def __init__(self) -> None:
        self.kinds: Counter = Counter()
        self.sums: Counter = Counter()

    def __call__(self, event) -> None:
        kind, p = event.kind, event.payload
        self.kinds[kind] += 1
        if kind == "launch_end":
            self.sums["groups_executed"] += p["groups_executed"]
        elif kind == "model_kernel_timed":
            self.sums["groups_timed"] += p["groups"]
        elif kind == "pool_start":
            self.sums["pool_start_ms"] += p["wall_ms"]
        elif kind == "search_end":
            self.sums["pruned"] += p["pruned"]
        elif kind == "search_candidate":
            if not p["error"].startswith("pruned"):
                self.sums["candidates_scored"] += 1
        elif kind == "fuzz_case":
            if p["outcome"] == "agree":
                self.sums["cases_agree"] += 1
            elif p["outcome"].startswith("skip"):
                self.sums["cases_skipped"] += 1

    def close(self) -> None:  # sink protocol
        pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tally: EventTally, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json,
    minus ``parallel.worker_cpu_s``, known once the pool is down, and
    ``trace.overhead_frac``, which needs an untraced pass too)."""
    selfs = tracer.self_times()
    k, s, c = tally.kinds, tally.sums, tracer.calls
    hits, misses = k["compile_cache_hit"], k["compile_cache_miss"]
    out = {f"{layer}_s": selfs[layer] for layer in LAYERS}
    out.update({
        "frontend.compile_calls": c["frontend.compile"],
        "frontend.cache_hit_ratio": _ratio(hits, hits + misses),
        "rules.rewrites": tracer.rewrites,
        "runtime.launch_calls": c["runtime.launch"],
        "runtime.groups_executed": s["groups_executed"],
        "runtime.tape_evictions": k["tape_evict"],
        "runtime.codegen_compiles": k["codegen_compile"],
        "perf.kernels_timed": k["model_kernel_timed"],
        "perf.memo_hit_ratio": _ratio(k["model_memo_hit"], s["groups_timed"]),
        "analysis.calls": c["analysis.analyze"],
        "analysis.deferrals": k["analysis_deferral"],
        "tune.pruned": s["pruned"],
        "search.candidates_scored": s["candidates_scored"],
        "fuzz.cases_agree": s["cases_agree"],
        "fuzz.cases_skipped": s["cases_skipped"],
        "parallel.pool_start_s": s["pool_start_ms"] / 1e3,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(selfs.values()),
    })
    return out


def check_spans(tracer: Tracer, t0: float, t1: float) -> Optional[str]:
    """Spans must nest: each lies inside its parent (a root inside the
    timed window ``[t0, t1]``) and starts after its previous sibling ends.
    Then self times sum to the root spans' total, and ``wall_s`` minus
    that total is the time no span covers."""
    last_end: Dict[int, float] = {}
    for i, (layer, start, end, parent) in enumerate(tracer.spans):
        lo, hi = (t0, t1) if parent < 0 else tracer.spans[parent][1:3]
        lo = max(lo, last_end.get(parent, lo))
        if not lo <= start <= end <= hi:
            return (f"span {i} ({layer}) [{start!r}, {end!r}] does not nest "
                    f"in [{lo!r}, {hi!r}]")
        last_end[parent] = end
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    selfs = sum(tracer.self_times().values())
    if abs(roots - selfs) > 1e-9 * max(1.0, roots):
        return f"self times sum to {selfs!r} s, root spans to {roots!r} s"
    return None
