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
* for programs with top-level control flow, one measurement is produced per
  branch (every path must respect the limit, Fig. 9).

Like the paper's reported measurements, which are "adjusted by removing the
program context overhead", the default model only tracks the
decision-dependent containers (the forwarded candidates and their
recomputation chains).  ``include_arguments`` /
``include_noncandidate_transients`` add the remaining containers (with
first-definition-to-last-use lifetimes) for a more conservative model.

The model is intentionally static - it feeds the ILP constraints; measured
peak memory for the evaluation figure comes from actually running the
generated code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.autodiff.storage import RematCandidate
from repro.checkpointing.costs import CandidateCosts
from repro.ir import ConditionalRegion, SDFG
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


def _element_transients(sdfg: SDFG, element) -> set[str]:
    """Transient containers accessed by a control-flow element."""
    accessed = set(element.read_data()) | set(element.written_data())
    return {name for name in accessed if name in sdfg.arrays and sdfg.arrays[name].transient}


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
    symbol_values: Mapping[str, int],
    include_arguments: bool = False,
    include_noncandidate_transients: bool = False,
) -> list[MemoryTerm]:
    """Build the memory measurement sequence of the forward+backward program."""
    terms: list[MemoryTerm] = []
    candidate_data = {c.data for c in candidates}
    uses = top_level_uses(sdfg)
    positions = _candidate_positions(candidates, uses)
    elements = list(sdfg.root.elements)

    base_bytes = 0.0
    if include_arguments:
        for desc in sdfg.arrays.values():
            if not desc.transient:
                base_bytes += desc.size_bytes(symbol_values)

    noncandidate_live: dict[str, tuple[int, int]] = {}
    if include_noncandidate_transients:
        for name, desc in sdfg.arrays.items():
            if desc.transient and name not in candidate_data:
                use = uses.get(name, TopLevelUse())
                noncandidate_live[name] = (use.first_write, use.last_access)

    def noncandidate_bytes_at(index: int, restrict_to: set[str] | None = None) -> float:
        total = 0.0
        for name, (first, last) in noncandidate_live.items():
            if restrict_to is not None and name not in restrict_to:
                continue
            if first <= index <= last:
                total += sdfg.arrays[name].size_bytes(symbol_values)
        return total

    # Forward phase -----------------------------------------------------------
    for index, element in enumerate(elements):
        if isinstance(element, ConditionalRegion) and include_noncandidate_transients:
            # One measurement per branch: only that branch's transients count.
            paths = []
            shared = set(noncandidate_live) - _element_transients(sdfg, element)
            for branch_index, (_, branch) in enumerate(element.branches):
                branch_names = shared | {
                    name for name in _element_transients(sdfg, element)
                    if name in set(branch.read_data()) | set(branch.written_data())
                }
                paths.append((f"fwd_{index}_path{branch_index}", branch_names))
        else:
            paths = [(f"fwd_{index}", None)]

        for label, restrict in paths:
            coeffs: dict[str, float] = {}
            base = base_bytes + noncandidate_bytes_at(index, restrict)
            for candidate in candidates:
                def_index, last_use = positions[candidate.key]
                size = costs[candidate.key].store_bytes
                if def_index <= index <= last_use:
                    base += size
                elif index > last_use:
                    coeffs[candidate.key] = coeffs.get(candidate.key, 0.0) + size
            terms.append(MemoryTerm(label=label, base=base, coeffs=coeffs))

    # Backward phase ------------------------------------------------------------
    # Candidates are consumed in reverse order of their forward consumer
    # position; a stored candidate can be released after its backward use.
    order = sorted(candidates, key=lambda c: positions[c.key][1], reverse=True)
    still_needed = {c.key for c in candidates}
    for candidate in order:
        coeffs: dict[str, float] = {}
        base = base_bytes
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
