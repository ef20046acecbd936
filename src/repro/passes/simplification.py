"""Simplification passes: dead code elimination and constant-branch pruning.

``prune_constant_branches`` is the reproduction of the paper's pre-AD
transformation that removes configuration control flow ("much of the control
flow is used to choose which model configuration is used and can be removed
when executing a specific configuration", Section IV-B): once configuration
symbols are substituted with concrete values, branches whose conditions fold
to constants are resolved statically.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.ir import (
    ConditionalRegion,
    ControlFlowRegion,
    LoopRegion,
    SDFG,
    State,
)
from repro.ir.usage import opaque_containers
from repro.symbolic import Const, substitute
from repro.symbolic.simplify import simplify


def _referenced_containers(sdfg: SDFG, include_outputs: bool) -> set[str]:
    """Containers referenced by reads, branch conditions and loop bounds
    (conservatively includes loop/branch bodies).  With ``include_outputs``
    every written container counts too; otherwise only accumulation targets,
    whose prior contents are live."""
    referenced = opaque_containers(sdfg)
    for state in sdfg.all_states():
        for node in state:
            referenced |= node.read_data()
            if include_outputs or node.output.accumulate:
                referenced.add(node.output.data)
    return referenced


def eliminate_dead_code(
    sdfg: SDFG,
    keep: Optional[set[str]] = None,
    extra_keep: Iterable[str] = (),
) -> int:
    """Remove compute nodes whose result can never reach an output.

    ``keep`` is the set of containers that must be preserved (defaults to all
    non-transient containers plus the return container); ``extra_keep`` adds
    to that set without replacing the default.  Returns the number of removed
    nodes.  The pass iterates to a fixed point.
    """
    if keep is None:
        keep = {name for name, desc in sdfg.arrays.items() if not desc.transient}
        return_name = getattr(sdfg, "return_name", None)
        if return_name:
            keep.add(return_name)
    keep = set(keep) | set(extra_keep)

    removed_total = 0
    while True:
        read_somewhere = keep | _referenced_containers(sdfg, include_outputs=False)
        removed = 0
        for state in sdfg.all_states():
            kept_nodes = []
            for node in state.nodes:
                if node.output.data in read_somewhere:
                    kept_nodes.append(node)
                else:
                    removed += 1
            state.nodes = kept_nodes
        removed_total += removed
        if removed == 0:
            break

    # Drop transient descriptors nothing references any more, so codegen does
    # not allocate dead arrays.
    referenced = keep | _referenced_containers(sdfg, include_outputs=True)
    for name in list(sdfg.arrays):
        if sdfg.arrays[name].transient and name not in referenced:
            del sdfg.arrays[name]
    return removed_total


def prune_constant_branches(sdfg: SDFG, symbol_values: Optional[Mapping[str, object]] = None) -> int:
    """Resolve conditionals whose conditions are compile-time constants.

    ``symbol_values`` optionally binds configuration symbols before folding.
    Returns the number of conditionals removed.
    """
    symbol_values = dict(symbol_values or {})
    removed = 0

    def process(region: ControlFlowRegion) -> None:
        nonlocal removed
        new_elements = []
        for element in region.elements:
            if isinstance(element, ConditionalRegion):
                resolved = _resolve_conditional(element, symbol_values)
                if resolved is None:
                    for _, branch in element.branches:
                        process(branch)
                    new_elements.append(element)
                else:
                    removed += 1
                    process(resolved)
                    new_elements.extend(resolved.elements)
            elif isinstance(element, LoopRegion):
                process(element.body)
                new_elements.append(element)
            else:
                new_elements.append(element)
        region.elements = new_elements

    process(sdfg.root)
    return removed


def _resolve_conditional(conditional: ConditionalRegion,
                         symbol_values: Mapping[str, object]) -> Optional[ControlFlowRegion]:
    """If every relevant condition folds to a constant, return the region of
    the branch that will execute (possibly an empty region)."""
    for condition, region in conditional.branches:
        if condition is None:
            return region
        folded = simplify(substitute(condition, symbol_values))
        if not isinstance(folded, Const):
            return None
        if bool(folded.value):
            return region
    return ControlFlowRegion(label="pruned_empty")
