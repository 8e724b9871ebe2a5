"""The Session: one object that owns configuration, caches and observability.

A :class:`Session` resolves every ``REPRO_*`` knob through the layered
registry of :mod:`repro.session.config` (defaults < config dict/file <
environment < explicit keywords), owns the LRU compile cache, chooses the
cache-simulation backend and the default worker count, and exposes every
pipeline entry point — ``compile_source``, ``disable_local_memory``,
``run_app``, ``launch``, ``run_matrix``, ``autotune``, ``figure10``,
``table4``, ``bench`` — as methods that run with the session active, so
config lookups deep inside ``perf/fastcache.py`` or ``parallel/engine.py``
see *this* session's values.

The historical module-level functions remain as thin shims that delegate
to :func:`current_session`, so existing code and the test suite keep
working unchanged (and produce bit-identical results — asserted by
``tests/test_session_entrypoints.py``).
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.session import events
from repro.session.config import (
    REGISTRY,
    ConfigError,
    coerce_value,
    load_config_file,
    validate_environ,
)
from repro.session.events import JsonlSink
from repro.session.passes import PassManager

__all__ = [
    "Session",
    "current_session",
    "reset_default_session",
    "session_from_flags",
]


class Session:
    """Layered configuration + owned caches + structured observability.

    Parameters
    ----------
    config:
        A dict of registry-named settings (``{"workers": 4}``) — the
        layer between registry defaults and environment variables.
    config_file:
        Path of a JSON file holding the same (loaded below ``config``).
    env:
        The environment mapping to consult (default ``os.environ``);
        unknown ``REPRO_*`` names in it are rejected here, at
        construction, so typos fail loudly.
    **overrides:
        Explicit per-session settings — the highest-precedence layer
        (``Session(cache_backend="reference", workers=2)``).
    """

    def __init__(
        self,
        config: Optional[Mapping[str, object]] = None,
        config_file: Optional[str] = None,
        env: Optional[Mapping[str, str]] = None,
        **overrides: object,
    ) -> None:
        self._env: Mapping[str, str] = os.environ if env is None else env
        validate_environ(self._env)
        layer: Dict[str, object] = {}
        if config_file is not None:
            layer.update(load_config_file(config_file))
        for name, value in (config or {}).items():
            layer[name] = coerce_value(name, value, source="config dict")
        self._config: Dict[str, object] = layer
        self._overrides: Dict[str, object] = {
            name: coerce_value(name, value, source=f"Session({name}=...)")
            for name, value in overrides.items()
        }
        self._compile_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._jsonl: Optional[JsonlSink] = None
        trace_out = self.get("trace_out")
        if trace_out:
            self._jsonl = JsonlSink(trace_out)
            events.attach(self._jsonl)

    # -- configuration ---------------------------------------------------------
    def get(self, name: str) -> object:
        """Resolve one setting: overrides > environment > config > default."""
        var = REGISTRY.get(name)
        if var is None:
            raise ConfigError(f"unknown config key {name!r}; known: {sorted(REGISTRY)}")
        if name in self._overrides:
            return self._overrides[name]
        raw = self._env.get(var.env)
        # an empty string unsets a str/bool variable (historical
        # behaviour) but is a parse error for ints ($REPRO_WORKERS="")
        if raw is not None and (raw != "" or var.type == "int"):
            return var.parse_env(raw)
        if name in self._config:
            return self._config[name]
        return var.default

    def set_config(self, name: str, value: object) -> object:
        """Set a config-layer value (still below env vars); returns the
        previous config-layer-or-default value."""
        prev = (
            self._config[name]
            if name in self._config
            else REGISTRY[name].default
            if name in REGISTRY
            else None
        )
        self._config[name] = coerce_value(name, value, source="set_config")
        return prev

    def as_dict(self) -> Dict[str, object]:
        """Every registered setting at its resolved value."""
        return {name: self.get(name) for name in REGISTRY}

    # -- lifecycle -------------------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["Session"]:
        """Make this the session that shims and config lookups resolve to."""
        _STACK.append(self)
        try:
            yield self
        finally:
            _STACK.remove(self)

    def close(self) -> None:
        """Detach and close the session's JSONL sink, if any, and tear
        down the shared worker pool when this session owns it (the
        session that first acquired it; see :mod:`repro.parallel.pool`)."""
        from repro.parallel import pool as worker_pool

        worker_pool.session_closed(self)
        if self._jsonl is not None:
            events.detach(self._jsonl)
            self._jsonl.close()
            self._jsonl = None

    def __enter__(self) -> "Session":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)
        self.close()

    # -- compile pipeline ------------------------------------------------------
    def pass_manager(
        self,
        names: Optional[List[str]] = None,
        verify_between: bool = False,
        pipeline: str = "default",
    ) -> PassManager:
        return PassManager(names=names, verify_between=verify_between, pipeline=pipeline)

    def compile_source(
        self,
        source: str,
        defines: Optional[Dict[str, object]] = None,
        module_name: str = "kernel_module",
        optimize: bool = True,
        cache: bool = True,
    ):
        """Compile OpenCL C source text into a verified IR module.

        The implementation behind ``repro.frontend.compile_source``:
        session-owned LRU cache (the cache keeps its own clone of each
        compiled module and every hit hands out a fresh
        :meth:`~repro.ir.function.Module.clone` of it), default pass
        pipeline via the :class:`PassManager`, and ``compile_*`` events
        on the bus.
        """
        from pycparser import CParser
        from pycparser.c_parser import ParseError

        from repro.frontend.errors import FrontendError
        from repro.frontend.lower import lower_translation_unit
        from repro.frontend.preprocess import preprocess
        from repro.ir.verifier import verify_module

        with self.activate():
            key = (
                source,
                tuple(sorted((str(k), str(v)) for k, v in (defines or {}).items())),
                module_name,
                optimize,
            )
            sha = hashlib.sha1(source.encode()).hexdigest()[:12]
            events.emit("compile_start", module=module_name, source_sha1=sha)
            if cache:
                hit = self._compile_cache.get(key)
                if hit is not None:
                    self._compile_cache.move_to_end(key)
                    events.emit("compile_cache_hit", module=module_name, source_sha1=sha)
                    return hit.clone()
                events.emit("compile_cache_miss", module=module_name, source_sha1=sha)
            t0 = time.perf_counter()
            pre = preprocess(source, defines)
            parser = CParser()
            try:
                ast = parser.parse(pre.text, filename=module_name)
            except ParseError as exc:
                raise FrontendError(f"parse error: {exc}") from exc
            module = lower_translation_unit(ast, pre.kernel_names, module_name)
            PassManager().run(module)
            if optimize:
                # the vendor-compiler stage of the paper's Fig. 9 pipeline
                from repro.core.optimize import vendor_optimize

                for fn in module:
                    vendor_optimize(fn)
            verify_module(module)
            events.emit(
                "compile_end",
                module=module_name,
                kernels=[fn.name for fn in module if fn.is_kernel],
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
            if cache:
                self._compile_cache[key] = module.clone()
                limit = int(self.get("compile_cache_size"))
                while len(self._compile_cache) > limit:
                    self._compile_cache.popitem(last=False)
            return module

    def compile_kernel(
        self,
        source: str,
        name: Optional[str] = None,
        defines: Optional[Dict[str, object]] = None,
        optimize: bool = True,
        cache: bool = True,
    ):
        return self.compile_source(
            source, defines, optimize=optimize, cache=cache
        ).kernel(name)

    def clear_compile_cache(self) -> None:
        self._compile_cache.clear()

    # -- transform -------------------------------------------------------------
    def disable_local_memory(
        self, kernel_or_module, kernel_name=None, local_size=None, **kwargs
    ):
        """Run the Grover pass on a kernel in place; returns the report.

        With ``analyze=True`` (``$REPRO_ANALYZE``) the static race
        analyzer vets the kernel as an independent arbiter: a decided
        intra-group race or barrier divergence — before *or* after the
        transformation — raises :class:`~repro.analysis.RaceDetected`
        instead of silently transforming an already-undefined kernel
        (Grover's Eq. 3 reasons per local array; it cannot see, e.g.,
        two individually-invertible stores that collide with each
        other).  ``local_size`` refines the check with concrete
        work-group geometry (defaults to ``reqd_work_group_size``).
        """
        from repro.core.grover import GroverPass
        from repro.ir.function import Module

        with self.activate():
            if isinstance(kernel_or_module, Module):
                kernel = kernel_or_module.kernel(kernel_name)
            else:
                kernel = kernel_or_module
            analyze = bool(self.get("analyze"))
            if analyze:
                self._veto_races(kernel, local_size, stage="pre-transform")
            report = GroverPass(**kwargs).run(kernel)
            if analyze:
                self._veto_races(kernel, local_size, stage="post-transform")
            return report

    def _veto_races(self, kernel, local_size, stage: str) -> None:
        from repro.analysis import RaceDetected, analyze_kernel

        geometry = local_size or kernel.reqd_work_group_size
        rep = analyze_kernel(kernel, geometry)
        blocking = rep.races + rep.divergences
        if blocking:
            raise RaceDetected(
                f"analyzer veto ({stage}) for kernel {kernel.name!r}: "
                + "; ".join(f.render() for f in blocking)
            )
        if rep.verdict == "undecided":
            # the gate must not pretend to have checked what it could
            # not decide (typically: no work-group geometry was given)
            import warnings

            from repro.analysis import AnalysisUndecidedWarning

            warnings.warn(
                f"analyze gate ({stage}): {rep.pairs_undecided} access "
                f"pair(s) of kernel {kernel.name!r} are statically "
                "undecided; pass local_size= (or declare "
                "reqd_work_group_size) for a decisive check",
                AnalysisUndecidedWarning,
                stacklevel=3,
            )

    # -- runtime ---------------------------------------------------------------
    def launch(self, *args, **kwargs):
        """Session-configured ``repro.runtime.launch`` (workers default,
        backend choice and events resolve against this session)."""
        from repro.runtime.ndrange import launch

        with self.activate():
            return launch(*args, **kwargs)

    # -- applications ----------------------------------------------------------
    def compile_app(self, app, variant: str = "with", **grover_kwargs):
        from repro.apps.harness import compile_app

        with self.activate():
            return compile_app(app, variant, **grover_kwargs)

    def execute_app(self, app, kernel, **kwargs):
        from repro.apps.harness import execute_app

        with self.activate():
            return execute_app(app, kernel, **kwargs)

    def run_app(self, app, variant: str = "with", scale: str = "test", **kwargs):
        from repro.apps.harness import run_app

        with self.activate():
            return run_app(app, variant, scale, **kwargs)

    # -- experiments -----------------------------------------------------------
    def run_matrix(self, **kwargs):
        from repro.parallel.matrix import run_matrix

        with self.activate():
            return run_matrix(**kwargs)

    def autotune(self, *args, **kwargs):
        from repro.autotune.tuner import autotune

        with self.activate():
            return autotune(*args, **kwargs)

    def figure10(self, device_name: str, **kwargs):
        from repro.experiments import figure10

        with self.activate():
            return figure10(device_name, **kwargs)

    def table4(self, **kwargs):
        from repro.experiments import table4

        with self.activate():
            return table4(**kwargs)

    def bench(self, **kwargs):
        from repro.perf.bench import run_bench

        with self.activate():
            return run_bench(**kwargs)

    def search(self, options=None, **kwargs):
        """Beam-search rewrite-rule pipelines (see :mod:`repro.search`).

        Accepts a prebuilt :class:`~repro.search.SearchOptions` or its
        keyword fields (``session.search(apps=("NVD-MT",), depth=2)``);
        unset knobs resolve against this session's ``search_*`` config.
        """
        from repro.search import SearchOptions, run_search

        if options is None:
            options = SearchOptions(**kwargs)
        elif kwargs:
            raise TypeError("pass either options or keyword fields, not both")
        with self.activate():
            return run_search(options)

    def tune(self, action: str = "train", **kwargs):
        """Drive the go/no-go autotuner (see :mod:`repro.tune`).

        ``action="train"`` labels the corpus with the search's scoring
        oracle and returns ``(tree, training_meta)`` —
        ``session.tune("train", sources=("corpus",), fuzz_count=0)``;
        pass ``out=`` to also write the sha256-versioned artifact.
        ``action="predict"`` returns the loaded
        :class:`~repro.tune.model.TunePredictor` for the session's
        ``tune_model`` (or the committed default artifact).
        """
        from repro.tune import label_corpus, train_model
        from repro.tune.model import default_model_path, load_model, save_model

        with self.activate():
            if action == "predict":
                if kwargs:
                    raise TypeError(f"predict takes no kwargs, got {kwargs}")
                path = self.get("tune_model") or default_model_path()
                return load_model(str(path))
            if action != "train":
                raise ValueError(f"unknown tune action {action!r}")
            out = kwargs.pop("out", None)
            fit = {
                k: kwargs.pop(k)
                for k in ("train_sources", "max_depth", "min_leaf")
                if k in kwargs
            }
            examples = label_corpus(**kwargs)
            tree, meta = train_model(examples, **fit)
            if out:
                save_model(tree, str(out), training=meta)
            return tree, meta


#: activation stack; the top is what ``current_session()`` returns
_STACK: List[Session] = []
_DEFAULT: Optional[Session] = None


def current_session() -> Session:
    """The active session (innermost ``activate()``), else the process
    default — created lazily on first use."""
    if _STACK:
        return _STACK[-1]
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session()
    return _DEFAULT


def reset_default_session() -> None:
    """Drop the lazily-created default session (tests)."""
    global _DEFAULT
    if _DEFAULT is not None:
        _DEFAULT.close()
    _DEFAULT = None


def session_from_flags(
    config_path: Optional[str] = None,
    trace_out: Optional[str] = None,
    **overrides: object,
) -> Session:
    """Build a Session from the shared CLI flags (``--config``/``--trace-out``)."""
    if trace_out:
        overrides["trace_out"] = trace_out
    return Session(config_file=config_path, **overrides)
