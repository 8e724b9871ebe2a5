"""Top-level frontend driver: OpenCL C source -> IR module / kernel.

These are thin shims over the session layer: the actual compile
pipeline — preprocess, parse, lower, the default pass pipeline, the
vendor-optimise stage, verification — lives in
:meth:`repro.session.Session.compile_source`, which also owns the LRU
compile cache (keyed on ``(source, defines, module_name, optimize)``)
and emits ``compile_start`` / ``compile_cache_hit`` /
``compile_cache_miss`` / ``compile_end`` events.

Because downstream passes (notably :class:`repro.core.GroverPass`)
mutate IR in place, every cache hit hands out a structural clone of the
cached module (:meth:`repro.ir.function.Module.clone`: same instruction
ids, names and use-list order, nothing shared but the frozen types) —
callers own their module, exactly as if it had been compiled fresh.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.function import Function, Module

#: default size of a session's LRU compile cache (see the
#: ``compile_cache_size`` / ``REPRO_COMPILE_CACHE_SIZE`` config variable)
_COMPILE_CACHE_SIZE = 32


def __getattr__(name: str):
    # legacy introspection point: the module-level ``_compile_cache``
    # now lives on the current session
    if name == "_compile_cache":
        from repro.session import current_session

        return current_session()._compile_cache
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def clear_compile_cache() -> None:
    """Drop all memoized modules (mainly for tests and memory pressure)."""
    from repro.session import current_session

    current_session().clear_compile_cache()


def compile_source(
    source: str,
    defines: Optional[Dict[str, object]] = None,
    module_name: str = "kernel_module",
    optimize: bool = True,
    cache: bool = True,
) -> Module:
    """Compile OpenCL C source text into a verified IR module.

    ``cache=False`` bypasses the compile cache (used by benchmarks to
    measure cold compiles).
    """
    from repro.session import current_session

    return current_session().compile_source(
        source, defines, module_name=module_name, optimize=optimize, cache=cache
    )


def compile_kernel(
    source: str,
    name: Optional[str] = None,
    defines: Optional[Dict[str, object]] = None,
    optimize: bool = True,
    cache: bool = True,
) -> Function:
    """Compile source and return one kernel (the only one, or by name)."""
    return compile_source(source, defines, optimize=optimize, cache=cache).kernel(name)
