"""Kernel registry and the :class:`KernelSpec` descriptor."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class KernelSpec:
    """Everything the test suite and benchmark harness need about one kernel.

    Attributes
    ----------
    name:
        NPBench kernel name (``seidel2d``, ``atax``, ...).
    category:
        ``"vectorized"`` (whole-array/BLAS programs, Fig. 10),
        ``"nonvectorized"`` (loop/stencil programs, Fig. 11) or ``"ml"``
        (deep-learning kernels built through the ML frontend).
    domain:
        Scientific domain label (weather, linear algebra, deep learning, ...).
    sizes:
        Size presets; ``"S"`` is used by tests, ``"paper"`` by benchmarks
        (scaled-down versions of NPBench's paper sizes - see docs/benchmarks.md).
    initialize:
        ``initialize(**size) -> dict`` producing the input containers.
    numpy_fn:
        Plain-NumPy forward implementation returning the scalar output.
    make_program:
        Zero-argument callable returning the ``@repro.program`` (or, for ML
        kernels, an object with ``to_sdfg()``); gradients are taken of this.
    jaxlike_grad:
        ``jaxlike_grad(data, wrt) -> (value, gradient)`` using the jaxlike
        baseline.
    wrt:
        The input container the evaluation differentiates with respect to.
    dtype:
        Element dtype (float32 for the deep-learning kernels, float64 else).
    paper_speedup:
        The speedup over JAX JIT the paper reports for this kernel (CPU), if
        stated; used for the paper-vs-measured tables the ``bench_fig*``
        scripts print (docs/benchmarks.md).
    """

    name: str
    category: str
    domain: str
    sizes: dict[str, dict[str, int]]
    initialize: Callable[..., dict]
    numpy_fn: Callable[..., float]
    make_program: Callable[[], object]
    jaxlike_grad: Optional[Callable[..., tuple]] = None
    wrt: str = ""
    dtype: np.dtype = np.dtype(np.float64)
    paper_speedup: Optional[float] = None
    notes: str = ""

    # -- helpers -----------------------------------------------------------------
    def data(self, preset: str = "S", seed: int = 42) -> dict:
        """Fresh input data for one run."""
        size = dict(self.sizes[preset])
        return self.initialize(**size, seed=seed)

    def program_for(self, preset: str = "S"):
        """The differentiable program.

        Python-frontend kernels have symbolic shapes and ignore the preset;
        ML-frontend kernels build their SDFG for the preset's concrete sizes.
        """
        try:
            return self.make_program(**self.sizes[preset])
        except TypeError:
            return self.make_program()

    def numpy_argument_names(self) -> list[str]:
        return [p for p in inspect.signature(self.numpy_fn).parameters]

    def run_numpy(self, data: dict) -> float:
        kwargs = {k: np.array(v, copy=True) if isinstance(v, np.ndarray) else v
                  for k, v in data.items()}
        return float(self.numpy_fn(**kwargs))

    def forward_loc(self) -> int:
        """Lines of code of the forward DaCe-AD program (code-size figure)."""
        program = self.make_program()
        func = getattr(program, "func", None)
        if func is None:
            return 0
        return _count_loc(inspect.getsource(func))

    def jaxlike_loc(self) -> int:
        """Lines of code of the jaxlike (JAX-ported) forward implementation."""
        if self.jaxlike_grad is None:
            return 0
        return _count_loc(inspect.getsource(self.jaxlike_grad))


def _count_loc(source: str) -> int:
    lines = []
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith('"""'):
            continue
        lines.append(stripped)
    return len(lines)


_REGISTRY: dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Add a kernel to the global registry (used at import time)."""
    _REGISTRY[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    return _REGISTRY[name]


def all_kernels() -> dict[str, KernelSpec]:
    return dict(_REGISTRY)


def kernels_by_category(category: str) -> list[KernelSpec]:
    return [spec for spec in _REGISTRY.values() if spec.category == category]
