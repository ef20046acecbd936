"""Checkpointing strategies pluggable into the AD engine.

A strategy's ``decide(sdfg, candidates)`` receives the re-materialisation
candidates discovered by the storage planner and returns, per candidate key,
``"store"`` or ``"recompute"``.

* :class:`StoreAll` - the store-all default used by most AD frameworks (and by
  the paper's headline benchmark runs).
* :class:`RecomputeAll` - recompute every eligible value (maximal memory
  savings, maximal extra compute).
* :class:`UserSelection` - explicit per-array choices, reproducing the paper's
  "user can manually decide to recompute specific arrays".
* :class:`ILPCheckpointing` - the paper's contribution: automatic decisions
  under a memory limit via the ILP of Section IV.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.autodiff.storage import RematCandidate
from repro.checkpointing.costs import CandidateCosts, compute_candidate_costs
from repro.checkpointing.ilp import build_ilp
from repro.checkpointing.memseq import MemoryTerm, build_memory_sequence, peak_memory
from repro.checkpointing.solvers import solve_with_scipy
from repro.ir import SDFG
from repro.util.errors import CheckpointingError


class CheckpointingStrategy:
    """Base class; the default stores every forwarded value."""

    def decide(self, sdfg: SDFG, candidates: Sequence[RematCandidate]) -> dict[str, str]:
        return {candidate.key: "store" for candidate in candidates}

    def cache_fingerprint(self) -> tuple:
        """Identity of this strategy's *configuration* for the compilation
        cache (diagnostic state such as ``last_report`` must not leak in).
        Subclasses with configuration must extend this."""
        return ()


class StoreAll(CheckpointingStrategy):
    """Store every forwarded value (the default of most AD frameworks)."""


class RecomputeAll(CheckpointingStrategy):
    """Recompute every value that can be recomputed."""

    def decide(self, sdfg, candidates):
        return {
            candidate.key: "recompute" if candidate.recompute_eligible else "store"
            for candidate in candidates
        }


class UserSelection(CheckpointingStrategy):
    """Explicit user choices by container name (unlisted containers are stored)."""

    def __init__(self, recompute: Sequence[str]) -> None:
        self.recompute = set(recompute)

    def cache_fingerprint(self) -> tuple:
        return (tuple(sorted(self.recompute)),)

    def decide(self, sdfg, candidates):
        return {
            candidate.key: "recompute"
            if candidate.data in self.recompute and candidate.recompute_eligible
            else "store"
            for candidate in candidates
        }


@dataclass
class ILPReport:
    """Diagnostics of one ILP run (consumed by the benchmarks)."""

    candidate_costs: list[CandidateCosts] = field(default_factory=list)
    memory_terms: list[MemoryTerm] = field(default_factory=list)
    decisions: dict[str, int] = field(default_factory=dict)
    decisions_by_data: dict[str, str] = field(default_factory=dict)
    objective_flops: float = 0.0
    modeled_peak_bytes: float = 0.0
    memory_limit_bytes: float = 0.0
    solve_time_seconds: float = 0.0
    num_variables: int = 0


class ILPCheckpointing(CheckpointingStrategy):
    """Automatic store/recompute selection under a memory limit (Section IV),
    solved with SciPy's MILP (HiGHS).

    Parameters
    ----------
    memory_limit_mib:
        The user-defined memory constraint in MiB; it bounds the
        decision-dependent containers (see :mod:`repro.checkpointing.memseq`).
    symbol_values:
        Concrete values of the SDFG's size symbols (needed to evaluate sizes
        and FLOP counts statically).
    """

    def __init__(
        self,
        memory_limit_mib: float,
        symbol_values: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.memory_limit_mib = float(memory_limit_mib)
        self.symbol_values = dict(symbol_values or {})
        self.last_report: Optional[ILPReport] = None

    def cache_fingerprint(self) -> tuple:
        from repro.pipeline.cache import stable_repr, unique_token

        symbols = tuple(
            (name, stable_repr(value) or unique_token())
            for name, value in sorted(self.symbol_values.items())
        )
        return (self.memory_limit_mib, symbols)

    def decide(self, sdfg: SDFG, candidates: Sequence[RematCandidate]) -> dict[str, str]:
        if not candidates:
            return {}
        symbol_values = dict(self.symbol_values)
        missing = {
            sym
            for candidate in candidates
            for sym in sdfg.arrays[candidate.data].free_symbols()
            if sym not in symbol_values
        }
        if missing:
            raise CheckpointingError(
                f"ILP checkpointing needs concrete values for symbols {sorted(missing)}; "
                "pass them via symbol_values="
            )

        costs = [compute_candidate_costs(sdfg, c, symbol_values) for c in candidates]
        cost_map = {c.key: c for c in costs}
        terms = build_memory_sequence(sdfg, candidates, cost_map)
        limit_bytes = self.memory_limit_mib * 2**20
        problem = build_ilp(costs, terms, limit_bytes)

        start = time.perf_counter()
        decisions, objective = solve_with_scipy(problem)
        elapsed = time.perf_counter() - start

        by_data = {}
        for candidate in candidates:
            by_data[candidate.data] = "store" if decisions.get(candidate.key, 1) else "recompute"
        self.last_report = ILPReport(
            candidate_costs=costs,
            memory_terms=terms,
            decisions=decisions,
            decisions_by_data=by_data,
            objective_flops=objective,
            modeled_peak_bytes=peak_memory(terms, decisions),
            memory_limit_bytes=limit_bytes,
            solve_time_seconds=elapsed,
            num_variables=len(candidates),
        )
        return {
            candidate.key: "store" if decisions.get(candidate.key, 1) else "recompute"
            for candidate in candidates
        }
