"""ILP solvers for the checkpointing problem.

Both return ``(decisions, objective)`` where ``decisions`` maps candidate
key -> 0/1 (0 = recompute, 1 = store):

* :func:`solve_with_scipy` - SciPy's HiGHS-based MILP solver, the one
  :class:`~repro.checkpointing.ILPCheckpointing` uses;
* :func:`solve_bruteforce` - exhaustive enumeration (reference for tests).
"""

from repro.checkpointing.solvers.scipy_backend import solve_with_scipy
from repro.checkpointing.solvers.exact import solve_bruteforce

__all__ = [
    "solve_with_scipy",
    "solve_bruteforce",
]
