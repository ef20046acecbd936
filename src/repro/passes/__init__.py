"""Analysis and optimisation passes over SDFGs.

* :mod:`repro.passes.flops` - static floating-point-operation counts, the
  recomputation cost model of the ILP checkpointing formulation (Section IV-A:
  "we use the number of floating point operations to estimate the
  recomputation cost").
* :mod:`repro.passes.memory` - container sizes and footprint summaries used by
  the memory-measurement sequence.
* :mod:`repro.passes.simplification` - dead code elimination and
  constant-condition pruning (the paper's pre-AD cleanup of configuration
  control flow), the ``optimize="O1"`` tier.
* :mod:`repro.passes.liveness` - per-container live intervals over the
  program order of :func:`repro.ir.usage.collect_uses` (loops, branches,
  loop-carried values), the analysis memory planning builds on.
* :mod:`repro.passes.gvn` - global value numbering: duplicate element-wise
  maps (within and across states) and repeated memlet reads
  (``optimize="O2"``).
* :mod:`repro.passes.planning` - liveness-driven memory planning: coloring
  non-overlapping transient live ranges into shared buffers, with in-place
  map execution (``optimize="O2"``, docs/memory-planning.md).
* :mod:`repro.passes.fusion` - map fusion: inlining element-wise producers
  into their sole consumer, eliminating materialised intermediate arrays
  (``optimize="O2"``); with a cost model also across distinct stencil
  offsets and gradient-aware (``optimize="O3"``).
* :mod:`repro.passes.cost` - the combined FLOP + memory-traffic cost model
  that prices those decisions (``optimize="O3"``, docs/cost-model.md).

These modules implement the raw SDFG-to-SDFG rewrites; the pipeline stage
wrappers that run them (with cache fingerprints and report notes) live in
:mod:`repro.pipeline.stages`.
"""

from repro.passes.cost import (
    CostModel,
    CostModelConfig,
    FusionDecision,
    summarize_decisions,
)
from repro.passes.flops import (
    count_node_flops,
    count_sdfg_flops,
    count_state_flops,
    expr_op_count,
)
from repro.passes.fusion import fuse_elementwise_maps
from repro.ir.usage import is_identity_elementwise_write
from repro.passes.gvn import GVNResult, dedupe_connectors, global_value_numbering
from repro.passes.liveness import compute_liveness, top_level_uses
from repro.passes.memory import (
    container_size_bytes,
    total_argument_bytes,
    total_transient_bytes,
    transient_footprint,
)
from repro.passes.planning import MemoryPlan, apply_memory_plan, plan_memory
from repro.passes.simplification import eliminate_dead_code, prune_constant_branches

__all__ = [
    "CostModel",
    "CostModelConfig",
    "FusionDecision",
    "summarize_decisions",
    "count_node_flops",
    "count_state_flops",
    "count_sdfg_flops",
    "expr_op_count",
    "container_size_bytes",
    "transient_footprint",
    "total_argument_bytes",
    "total_transient_bytes",
    "dedupe_connectors",
    "eliminate_dead_code",
    "fuse_elementwise_maps",
    "is_identity_elementwise_write",
    "prune_constant_branches",
    "GVNResult",
    "global_value_numbering",
    "compute_liveness",
    "top_level_uses",
    "MemoryPlan",
    "apply_memory_plan",
    "plan_memory",
]
