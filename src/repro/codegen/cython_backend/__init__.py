"""The native ("cython") backend: SDFG segments -> C -> ctypes.

Lowers sequential loop nests, scalar tasklets and small library calls —
exactly the shapes where the interpreted NumPy backend pays a Python-level
round trip per element — to C compiled with the system toolchain, while
everything already fast under NumPy (vectorised maps, BLAS matmuls,
convolutions) keeps its interpreted emission.  Programs outside the
supported subset decline with
:class:`~repro.util.errors.UnsupportedFeatureError`, and the pipeline falls
back to the NumPy backend per program (recorded in the pipeline report).

Modules: :mod:`~repro.codegen.cython_backend.cemit` (expression -> C),
:mod:`~repro.codegen.cython_backend.lower` (segments -> kernel functions),
:mod:`~repro.codegen.cython_backend.emitter` (hybrid driver emission),
:mod:`~repro.codegen.cython_backend.build` (toolchain + artifact cache),
:mod:`~repro.codegen.cython_backend.compiled` (wrapper +
:func:`~repro.codegen.cython_backend.compiled.compile_native`).

``repro.codegen.compile_sdfg`` selects it by name: ``backend="cython"`` or
the alias ``"native"``.
"""

from repro.codegen.cython_backend.build import (
    NativeToolchainError,
    find_c_compiler,
    toolchain_description,
)
from repro.codegen.cython_backend.compiled import NativeCompiledSDFG, compile_native
from repro.codegen.cython_backend.emitter import NativeSourceEmitter

__all__ = [
    "NativeCompiledSDFG",
    "compile_native",
    "NativeSourceEmitter",
    "NativeToolchainError",
    "find_c_compiler",
    "toolchain_description",
]
