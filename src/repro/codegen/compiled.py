"""Compiled SDFG wrapper: generated source + executable callable."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.codegen.emitter import generate_source
from repro.codegen.runtime import (
    bind_arguments,
    build_runtime_namespace,
    keep_binding_plan,
    load_driver,
)
from repro.ir import SDFG
from repro.util.errors import CodegenError


def _unwrap(value):
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    return value


class CompiledSDFG:
    """An SDFG compiled to a Python/NumPy function.

    Calling the object binds arguments (inferring symbolic sizes from array
    shapes), executes the generated function and returns either the single
    result container or a dict of results.  The generated source is available
    as ``.source`` for inspection; ``.backend`` names the backend that
    produced the executable (subclasses override it).
    """

    #: Canonical name of the backend that produced this object.
    backend = "numpy"

    def __init__(self, sdfg: SDFG, source: str, func, result_names: list[str]) -> None:
        self.sdfg = sdfg
        self.source = source
        self.func = func
        self.func_name = func.__name__
        self.result_names = result_names
        keep_binding_plan(sdfg)

    # -- pickling ---------------------------------------------------------
    # The executable function is an exec() product and cannot be pickled;
    # the *generated source* can.  Pickling drops the function and
    # unpickling re-executes the source in a fresh runtime namespace —
    # this "generated-source pickling" is what lets the compilation cache
    # spill finished compilations to disk (CompilationCache(persist_dir=...))
    # and warm *process starts* skip every pipeline stage.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["func"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        keep_binding_plan(self.sdfg)
        self.func = load_driver(
            self.source, self.func_name, self._runtime_namespace(), self.sdfg.name
        )

    def _runtime_namespace(self) -> dict:
        """Globals the generated driver runs in."""
        return build_runtime_namespace()

    def call_with_bindings(self, bindings: dict) -> dict:
        """Execute with an explicit name->value mapping (no inference)."""
        return self.func(**bindings)

    def with_kernel_timers(self, sink):
        """Return a clone whose individual kernels report their execution
        intervals to ``sink(kernel_name, start_ns, end_ns)``, or ``None``
        when the backend has no sub-kernel granularity to expose.

        The numpy backend emits one monolithic Python function, so there is
        nothing finer-grained than the whole call (which
        :class:`repro.obs.profile.ProfiledCompiledSDFG` already times);
        backends with named kernels (the cython backend's ``__nativeN``
        segments) override this.
        """
        return None

    def __call__(self, *args, **kwargs):
        return self._postprocess(
            self.call_with_bindings(bind_arguments(self.sdfg, args, kwargs))
        )

    def _postprocess(self, results: dict):
        if not self.result_names:
            return None
        if len(self.result_names) == 1:
            return _unwrap(results[self.result_names[0]])
        return {name: _unwrap(value) for name, value in results.items()}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.sdfg.name!r}, "
            f"backend={self.backend!r}, results={self.result_names})"
        )


#: Accepted backend spellings -> the canonical name reports and cache keys use.
BACKEND_NAMES = {None: "numpy", "numpy": "numpy", "cython": "cython", "native": "cython"}


def resolve_backend(name: Optional[str]) -> str:
    """The canonical backend name: ``None`` / ``"numpy"`` -> ``"numpy"``,
    ``"cython"`` / ``"native"`` -> ``"cython"``; anything else raises
    :class:`~repro.util.errors.CodegenError` listing the options."""
    try:
        return BACKEND_NAMES[name]
    except (KeyError, TypeError):
        options = sorted(key for key in BACKEND_NAMES if key is not None)
        raise CodegenError(f"Unknown backend {name!r}; options: {options}") from None


def compile_sdfg(
    sdfg: SDFG,
    func_name: Optional[str] = None,
    result_names: Optional[list[str]] = None,
    backend: Optional[str] = None,
) -> CompiledSDFG:
    """Generate, compile and wrap executable code for ``sdfg``.

    ``backend`` is ``"numpy"`` (the default, the emitted driver runs as
    Python) or ``"cython"`` (alias ``"native"``: hot segments become C).
    The native build may raise
    :class:`~repro.util.errors.UnsupportedFeatureError` to decline the
    program — callers wanting automatic fallback should catch it and retry
    with ``backend="numpy"`` (the pipeline's codegen stage does).
    """
    if result_names is None:
        return_name = getattr(sdfg, "return_name", None)
        result_names = [return_name] if return_name else []
    func_name = func_name or f"__generated_{sdfg.name}"
    if resolve_backend(backend) == "cython":
        from repro.codegen.cython_backend.compiled import compile_native

        return compile_native(sdfg, func_name, result_names)
    source = generate_source(sdfg, func_name, result_names)
    func = load_driver(source, func_name, build_runtime_namespace(), sdfg.name)
    return CompiledSDFG(sdfg, source, func, result_names)
