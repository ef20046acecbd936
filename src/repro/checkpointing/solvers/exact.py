"""Exhaustive enumeration: the reference the tests check the MILP solver
against on small problems."""

from __future__ import annotations

import itertools

from repro.checkpointing.ilp import CheckpointILP
from repro.util.errors import CheckpointingError


def solve_bruteforce(problem: CheckpointILP) -> tuple[dict[str, int], float]:
    """Exhaustive enumeration (reference solver; exponential)."""
    keys = problem.keys
    if not keys:
        return {}, 0.0
    if len(keys) > 22:
        raise CheckpointingError("Brute-force solver limited to 22 decision variables")
    best: dict[str, int] | None = None
    best_cost = float("inf")
    for assignment in itertools.product((1, 0), repeat=len(keys)):
        decisions = dict(zip(keys, assignment))
        if not problem.feasible(decisions):
            continue
        cost = problem.objective(decisions)
        if cost < best_cost - 1e-12:
            best, best_cost = decisions, cost
    if best is None:
        raise CheckpointingError("No feasible store/recompute assignment under the memory limit")
    return best, best_cost
