"""Code generation: SDFG -> executable callable, on one of two backends.

``compile_sdfg(sdfg, backend="numpy")`` is the default interpreted path,
``backend="cython"`` (alias ``"native"``) the native one;
:func:`resolve_backend` maps every accepted spelling to its canonical name
and rejects the rest (see ``docs/backends.md``).

The default **numpy backend** emits one Python function per SDFG:

* vectorisable maps become NumPy slice expressions (so whole-array operations
  run at native NumPy/BLAS speed);
* maps that cannot be vectorised (diagonal accesses, negative-stride index
  functions) fall back to explicit loops;
* matmul library nodes are pattern-matched to BLAS calls (``np.matmul``),
  mirroring the paper's library-call lowering (Section V-A1);
* sequential loop regions become Python ``for`` loops with direct indexed
  accesses - the "cheap pointer movement" the paper contrasts with JAX's
  dynamic slicing (Section V-B);
* scalars are 0-d NumPy arrays so in-place gradient accumulation works
  uniformly.

The **cython backend** (:mod:`repro.codegen.cython_backend`) lowers
sequential loop nests and scalar tasklets — exactly where the interpreted
path is weakest — to C compiled with the system toolchain, declining
unsupported programs with :class:`~repro.util.errors.UnsupportedFeatureError`
so the pipeline can fall back per program.

The generated source is kept on the compiled object (``.source``) for
inspection and testing; ``.backend`` names the producing backend.
"""

from repro.codegen.compiled import CompiledSDFG, compile_sdfg, resolve_backend
from repro.codegen.emitter import generate_source
from repro.codegen.runtime import bind_arguments, build_runtime_namespace

__all__ = [
    "CompiledSDFG",
    "bind_arguments",
    "build_runtime_namespace",
    "compile_sdfg",
    "generate_source",
    "resolve_backend",
]
