"""Simulated GPU performance model (substitute for the paper's V100 runs).

No GPU is available in this offline environment, so the Fig. 14 comparison is
reproduced with a roofline-style analytical model of an NVIDIA V100 fed by the
kernels' static FLOP and byte counts.  Results produced with this model are
clearly labelled as *simulated* in the benchmark output and docs/benchmarks.md.
"""

from repro.gpu.model import GPUDeviceModel, V100, estimate_gpu_runtime

__all__ = ["GPUDeviceModel", "V100", "estimate_gpu_runtime"]
