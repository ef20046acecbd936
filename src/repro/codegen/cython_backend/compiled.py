"""The native backend: compiled-object wrapper and :func:`compile_native`.

:class:`NativeCompiledSDFG` extends the generated-source pickling contract
of :class:`~repro.codegen.CompiledSDFG` to *backend artifacts*: pickling
embeds the C source, the kernel calling conventions **and the built shared
object's bytes**, so a ``CompilationCache(persist_dir=...)`` spill restores
to a working native callable on a machine with no C toolchain at all —
warm process starts skip the compiler entirely (the bytes are dropped back
into the content-addressed artifact cache of
:mod:`repro.codegen.cython_backend.build`).

Calls route through a contiguity guard: C kernels index flat row-major
memory, so non-C-contiguous array arguments (transposed views, strided
slices) are copied in, and — because SDFG programs mutate their arguments
in place — copied *back* after the call, preserving NumPy-backend semantics
exactly.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.compiled import CompiledSDFG
from repro.codegen.cython_backend.build import (
    NativeToolchainError,
    ensure_shared_object,
    find_c_compiler,
    load_library,
    make_kernel_callable,
    source_digest,
)
from repro.codegen.cython_backend.emitter import NativeSourceEmitter, render_c_source
from repro.codegen.cython_backend.lower import CKernel
from repro.codegen.runtime import binding_plan, build_runtime_namespace, load_driver
from repro.ir import SDFG
from repro.obs.clock import monotonic_ns
from repro.util.errors import UnsupportedFeatureError


def _native_namespace(library_path: str, kernels: list[CKernel]) -> dict:
    """Runtime namespace of a native driver: the NumPy namespace plus one
    ctypes trampoline per C kernel."""
    namespace = build_runtime_namespace()
    library = load_library(library_path)
    for kernel in kernels:
        namespace[kernel.name] = make_kernel_callable(library, kernel)
    return namespace


class _TimedKernel:
    """Timing shim around one ctypes kernel trampoline (profiling only)."""

    __slots__ = ("inner", "name", "sink")

    def __init__(self, inner, name: str, sink) -> None:
        self.inner = inner
        self.name = name
        self.sink = sink

    def __call__(self, *args):
        start_ns = monotonic_ns()
        result = self.inner(*args)
        self.sink(self.name, start_ns, monotonic_ns())
        return result


class NativeCompiledSDFG(CompiledSDFG):
    """A compiled SDFG whose hot segments run as C kernels via ctypes."""

    backend = "cython"

    def __init__(self, sdfg: SDFG, source: str, func, result_names: list[str],
                 c_source: str, kernels: list[CKernel], digest: str,
                 library_path: str) -> None:
        super().__init__(sdfg, source, func, result_names)
        self.c_source = c_source
        self.kernels = list(kernels)
        self.digest = digest
        self.library_path = library_path

    # -- pickling (artifact round-trip) -----------------------------------
    def __getstate__(self) -> dict:
        state = super().__getstate__()
        try:
            with open(self.library_path, "rb") as handle:
                state["_so_bytes"] = handle.read()
        except OSError:
            state["_so_bytes"] = None  # rebuildable from c_source
        return state

    def __setstate__(self, state: dict) -> None:
        state["library_path"] = ensure_shared_object(
            state["c_source"], state["digest"], so_bytes=state.pop("_so_bytes", None)
        )
        super().__setstate__(state)

    def _runtime_namespace(self) -> dict:
        return _native_namespace(self.library_path, self.kernels)

    # -- calling (contiguity guard) ---------------------------------------
    def call_with_bindings(self, bindings: dict) -> dict:
        write_back = []
        for name in binding_plan(self.sdfg).array_names:
            value = bindings.get(name)
            if isinstance(value, np.ndarray) and not value.flags.c_contiguous:
                if not write_back:
                    bindings = dict(bindings)
                bindings[name] = copy = np.ascontiguousarray(value)
                write_back.append((value, copy))
        results = self.func(**bindings)
        for original, copy in write_back:
            original[...] = copy
        return results

    # -- per-kernel profiling ----------------------------------------------
    def with_kernel_timers(self, sink):
        """Clone of this object whose C-kernel trampolines report their
        execution intervals to ``sink(kernel_name, start_ns, end_ns)``.

        The generated driver is re-``exec``-uted in a fresh namespace where
        every ``__nativeN`` trampoline is wrapped by a timing shim, so the
        unprofiled original (the object the compilation cache holds) stays
        untouched.  Used by :class:`repro.obs.profile.ProfiledCompiledSDFG`
        to split native-kernel time from NumPy-driver time.
        """
        import copy

        namespace = self._runtime_namespace()
        for kernel in self.kernels:
            namespace[kernel.name] = _TimedKernel(
                namespace[kernel.name], kernel.name, sink
            )
        clone = copy.copy(self)
        clone.func = load_driver(self.source, self.func_name, namespace, self.sdfg.name)
        return clone


def compile_native(sdfg: SDFG, func_name: str, result_names: list[str]) -> NativeCompiledSDFG:
    """Build ``sdfg`` with its lowerable segments in C (the ``"cython"``
    backend; the emitted language is plain C compiled with ``cc``).

    Raises :class:`NativeToolchainError` without a C compiler and
    :class:`~repro.util.errors.UnsupportedFeatureError` when nothing lowers.
    """
    if find_c_compiler() is None:
        raise NativeToolchainError(
            "no C compiler on PATH (install cc/gcc/clang or set $REPRO_CC)"
        )
    emitter = NativeSourceEmitter(sdfg, func_name, result_names)
    source = emitter.generate()
    if not emitter.kernels:
        details = "; ".join(emitter.decline_reasons[:3]) or "no compute"
        raise UnsupportedFeatureError(
            f"cython backend: nothing in {sdfg.name!r} lowers to C ({details})"
        )
    c_source = render_c_source(emitter.kernels)
    digest = source_digest(c_source)
    library_path = ensure_shared_object(c_source, digest)
    namespace = _native_namespace(library_path, emitter.kernels)
    return NativeCompiledSDFG(
        sdfg, source, load_driver(source, func_name, namespace, sdfg.name), result_names,
        c_source=c_source, kernels=emitter.kernels, digest=digest,
        library_path=library_path,
    )
