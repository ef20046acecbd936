"""ILP-based automatic checkpointing (paper Section IV).

The re-materialisation problem - which forwarded values to *store* and which
to *recompute* in the backward pass - is modelled as a 0/1 integer linear
program:

* one binary decision variable per forwarded array container;
* the objective minimises the total recomputation cost (static FLOP model);
* the constraints bound every entry of a *memory measurement sequence*
  (a timeline of allocations/deallocations, parametric in the decision
  variables) by a user-given memory limit, for every control-flow path.

Solver: SciPy's MILP (HiGHS); exhaustive enumeration cross-checks it in
tests.

The strategies in :mod:`repro.checkpointing.strategy` plug into
:func:`repro.autodiff.add_backward_pass` / :func:`repro.grad`.
"""

from repro.checkpointing.costs import CandidateCosts, compute_candidate_costs
from repro.checkpointing.memseq import MemoryTerm, build_memory_sequence
from repro.checkpointing.ilp import CheckpointILP, build_ilp
from repro.checkpointing.solvers import solve_bruteforce, solve_with_scipy
from repro.checkpointing.strategy import (
    CheckpointingStrategy,
    ILPCheckpointing,
    ILPReport,
    RecomputeAll,
    StoreAll,
    UserSelection,
)

__all__ = [
    "CandidateCosts",
    "compute_candidate_costs",
    "MemoryTerm",
    "build_memory_sequence",
    "CheckpointILP",
    "build_ilp",
    "solve_with_scipy",
    "solve_bruteforce",
    "CheckpointingStrategy",
    "StoreAll",
    "RecomputeAll",
    "UserSelection",
    "ILPCheckpointing",
    "ILPReport",
]
