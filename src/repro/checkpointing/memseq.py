"""The memory measurement sequence (paper Section IV-A/IV-B).

The program's memory usage is modelled as a timeline of measurements, each of
the form ``base + sum(coeff_i * v_i)`` where ``v_i`` is the binary
store/recompute decision for candidate ``i``:

* during the forward pass a candidate occupies its size between its
  definition and its last forward use regardless of the decision, and
  *continues* to occupy it afterwards only if stored (``v_i = 1``);
* at the backward use of a recomputed candidate (``v_i = 0``) the
  recomputation overhead ``R_i`` plus a fresh allocation of the value itself
  appears, and the overhead disappears immediately after (m21/m22 in the
  paper's example);
* a top-level conditional is one position of the sequence, so a candidate
  any branch defines counts on every path: each path respects the limit
  (Fig. 9), conservatively.

Like the paper's reported measurements, which are "adjusted by removing the
program context overhead", the model only tracks the decision-dependent
containers (the forwarded candidates and their recomputation chains).

The model is intentionally static - it feeds the ILP constraints; measured
peak memory for the evaluation figure comes from actually running the
generated code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.autodiff.storage import RematCandidate
from repro.checkpointing.costs import CandidateCosts
from repro.ir import SDFG
from repro.passes.liveness import TopLevelUse, top_level_uses


@dataclass
class MemoryTerm:
    """One entry of the memory measurement sequence:
    ``bytes = base + sum(coeffs[key] * v[key])``."""

    label: str
    base: float
    coeffs: dict[str, float] = field(default_factory=dict)

    def evaluate(self, decisions: Mapping[str, int]) -> float:
        return self.base + sum(coeff * decisions.get(key, 1) for key, coeff in self.coeffs.items())


def _candidate_positions(candidates: Sequence[RematCandidate],
                         uses: Mapping[str, TopLevelUse]) -> dict[str, tuple[int, int]]:
    """(definition index, last forward use index) of each candidate at
    top-level granularity."""
    positions: dict[str, tuple[int, int]] = {}
    for candidate in candidates:
        use = uses.get(candidate.data, TopLevelUse())
        positions[candidate.key] = (use.first_write, use.last_read)
    return positions


def build_memory_sequence(
    sdfg: SDFG,
    candidates: Sequence[RematCandidate],
    costs: Mapping[str, CandidateCosts],
) -> list[MemoryTerm]:
    """Build the memory measurement sequence of the forward+backward program
    (sizes come from ``costs``, evaluated at concrete symbol values)."""
    terms: list[MemoryTerm] = []
    positions = _candidate_positions(candidates, top_level_uses(sdfg))

    # Forward phase -----------------------------------------------------------
    for index in range(len(sdfg.root.elements)):
        coeffs: dict[str, float] = {}
        base = 0.0
        for candidate in candidates:
            def_index, last_use = positions[candidate.key]
            size = costs[candidate.key].store_bytes
            if def_index <= index <= last_use:
                base += size
            elif index > last_use:
                coeffs[candidate.key] = coeffs.get(candidate.key, 0.0) + size
        terms.append(MemoryTerm(label=f"fwd_{index}", base=base, coeffs=coeffs))

    # Backward phase ------------------------------------------------------------
    # Candidates are consumed in reverse order of their forward consumer
    # position; a stored candidate can be released after its backward use.
    order = sorted(candidates, key=lambda c: positions[c.key][1], reverse=True)
    still_needed = {c.key for c in candidates}
    for candidate in order:
        coeffs: dict[str, float] = {}
        base = 0.0
        for other_key in still_needed:
            coeffs[other_key] = coeffs.get(other_key, 0.0) + costs[other_key].store_bytes
        # Recomputing this candidate costs its own allocation plus the chain
        # intermediates while the chain runs: (1 - v_i) * (S_i + R_i), i.e. a
        # constant added and the same amount subtracted from the coefficient.
        overhead = costs[candidate.key].store_bytes + costs[candidate.key].recompute_extra_bytes
        base += overhead
        coeffs[candidate.key] = coeffs.get(candidate.key, 0.0) - overhead
        terms.append(MemoryTerm(label=f"bwd_{candidate.data}", base=base, coeffs=coeffs))
        still_needed.discard(candidate.key)

    return terms


def peak_memory(terms: Sequence[MemoryTerm], decisions: Mapping[str, int]) -> float:
    """Modelled peak memory (bytes) for a concrete store/recompute assignment."""
    if not terms:
        return 0.0
    return max(term.evaluate(decisions) for term in terms)
