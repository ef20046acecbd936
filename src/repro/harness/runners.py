"""Kernel runners: build gradient callables for both engines and compare them."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.harness.measure import Measurement, measure
from repro.npbench.registry import KernelSpec
from repro.pipeline import compile_gradient


def copy_data(data: dict) -> dict:
    """Fresh copies of a kernel-input dict (ndarrays copied, scalars as-is)
    so one dataset can feed repeated runs of in-place-mutating programs."""
    return {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
            for k, v in data.items()}


def peak_bytes(call: Callable[..., object], data: dict) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during one ``call(**args)``
    on a fresh copy of ``data``: outputs and temporaries, not the inputs
    (copied before tracing starts).  NumPy buffers are tracked; C ``malloc``
    inside native segments is not."""
    args = copy_data(data)
    gc.collect()
    tracemalloc.start()
    try:
        call(**args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dace_gradient_runner(spec: KernelSpec, preset: str = "S",
                         **options) -> Callable[[dict], np.ndarray]:
    """Compile the DaCe-AD gradient of a kernel once (through the pass
    pipeline; ``options`` are :class:`~repro.pipeline.CompileOptions` fields —
    docs/architecture.md — with ``wrt`` defaulting to the kernel's); the
    returned callable computes the gradient for one data dictionary."""
    outcome = compile_gradient(spec.program_for(preset), **{"wrt": [spec.wrt], **options})
    compiled = outcome.compiled
    result = outcome.artifacts["backward"]

    def run(data: dict):
        return compiled(**copy_data(data))

    run.compiled = compiled  # type: ignore[attr-defined]
    run.backward_result = result  # type: ignore[attr-defined]
    run.pipeline_report = outcome.report  # type: ignore[attr-defined]
    return run


def jaxlike_gradient_runner(spec: KernelSpec) -> Optional[Callable[[dict], np.ndarray]]:
    """Gradient runner for the jaxlike baseline (None if the kernel has no port)."""
    if spec.jaxlike_grad is None:
        return None

    def run(data: dict):
        _, gradient = spec.jaxlike_grad(copy_data(data), spec.wrt)
        return gradient

    return run


@dataclass
class KernelRunResult:
    """Timings of one kernel under both engines."""

    name: str
    category: str
    dace: Measurement
    jaxlike: Optional[Measurement]
    paper_speedup: Optional[float] = None
    dace_loc: int = 0
    jaxlike_loc: int = 0

    @property
    def speedup(self) -> Optional[float]:
        """jaxlike time / DaCe-AD time (>1 means DaCe AD is faster)."""
        if self.jaxlike is None:
            return None
        return self.jaxlike.median / self.dace.median


def run_kernel_comparison(
    spec: KernelSpec,
    preset: str = "S",
    repeats: int = 3,
    warmup: int = 1,
    strategy=None,
) -> KernelRunResult:
    """Time the gradient computation of one kernel under both engines."""
    data = spec.data(preset)
    dace_run = dace_gradient_runner(spec, preset, checkpointing=strategy)
    dace_measurement = measure(lambda: dace_run(data), label=f"{spec.name}/dace",
                               repeats=repeats, warmup=warmup)

    jax_run = jaxlike_gradient_runner(spec)
    jax_measurement = None
    if jax_run is not None:
        jax_measurement = measure(lambda: jax_run(data), label=f"{spec.name}/jaxlike",
                                  repeats=repeats, warmup=warmup)

    return KernelRunResult(
        name=spec.name,
        category=spec.category,
        dace=dace_measurement,
        jaxlike=jax_measurement,
        paper_speedup=spec.paper_speedup,
        dace_loc=spec.forward_loc(),
        jaxlike_loc=spec.jaxlike_loc(),
    )
