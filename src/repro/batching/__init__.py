"""Batching subsystem: SDFG-level ``vmap``, the transform the serving
runtime (:mod:`repro.serve`) builds on.

Two layers, built so one compilation amortises across many concurrent
requests (the serving direction of the ROADMAP):

* **The transform** (:mod:`repro.batching.transform`,
  :mod:`repro.batching.rules`): :func:`repro.vmap` rank-extends a lowered
  SDFG by a leading *symbolic* batch dimension — every batched array, map
  and memlet gains the dimension, library calls are rewritten by per-kind
  batching rules, unbatched operands broadcast.  The result is an ordinary
  SDFG, so the optimization tiers, reverse-mode AD and the
  compilation cache apply unchanged; ``vmap(grad(f))`` and
  ``grad(vmap(f))`` both work, and one cache entry serves every batch size.
* **The runtime** lives in :mod:`repro.serve`:
  :class:`~repro.serve.BatchQueue` coalesces per-sample requests into
  batched kernel calls (configurable ``max_batch`` / ``max_wait_ms``,
  optional bucketed padding) and scatters the results back to per-request
  futures, with deadlines, backpressure, supervision, bisection and circuit
  breaking (``docs/serving.md``).

See ``docs/batching.md`` for transform semantics, the batching-rules table
and a serving walkthrough; ``benchmarks/bench_batching.py`` measures the
batched-vs-per-sample throughput.
"""

from repro.batching.transform import BatchInfo, batch_sdfg, resolve_in_axes
from repro.batching.rules import BATCHING_RULES, LibraryBatchContext
from repro.batching.vmap import BatchedProgram, Vmap, vmap

__all__ = [
    "BatchInfo",
    "batch_sdfg",
    "resolve_in_axes",
    "BATCHING_RULES",
    "LibraryBatchContext",
    "BatchedProgram",
    "Vmap",
    "vmap",
]
