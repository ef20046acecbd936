"""Critical Computation Subgraph (CCS) extraction.

The CCS is the part of the program through which the independent variables
(``wrt``) contribute to the dependent variable (paper Section II).  It is the
intersection of two sets, and the backward pass emits work only inside it:

* the **reverse set** — compute nodes whose result can reach the output.  It
  is found by a reverse, flow-sensitive traversal over the control-flow
  structure: the *active set* starts with the dependent variable; walking
  states backwards, a node enters if it writes active data and its
  floating-point inputs become active; a full, non-accumulating overwrite
  outside loops kills the activity of the overwritten container for earlier
  program points; loop bodies are iterated to a fixed point (paper Fig. 6) and
  never kill; conditional branches are analysed independently and unioned
  (the compile-time over-approximation pruned at runtime, Fig. 3).
* the **varied set** — floating-point containers the requested inputs can
  reach.  It starts from ``wrt``; a node's output becomes varied when the
  node reads a varied container; all compute nodes are revisited until
  nothing changes.

A node is in the CCS when it is in the reverse set and its output is varied.
Such a node may read nothing varied (``X[0:3] = D[0:3]`` after ``X = C``): it
then contributes to no input gradient, but its rule still clears the
overwritten part of ``X``'s gradient.  A gradient contribution to an input is
emitted only when that input is varied (:meth:`ActivityAnalysis.carries_gradient`).

The varied set ignores program order, so loops and branches need no rule of
their own: every container a requested input reaches along *some* path is
varied, which is a superset of the containers it reaches on the executed
path.  A superset only keeps work that a tighter analysis would drop; it never
drops a contribution a requested gradient needs, because a gradient only flows
from a container to the inputs of a node writing it, and a node reading
nothing varied has no varied input to flow to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.ir import (
    ConditionalRegion,
    ControlFlowRegion,
    LoopRegion,
    SDFG,
    State,
)
from repro.ir.nodes import ComputeNode
from repro.util import OrderedSet


@dataclass
class ActivityAnalysis:
    """Result of the CCS computation."""

    #: node ids of compute nodes inside the CCS
    active_nodes: set[int] = field(default_factory=set)
    #: containers that are both varied and needed by the output
    active_data: OrderedSet = field(default_factory=OrderedSet)
    #: floating-point containers the requested inputs reach
    varied: OrderedSet = field(default_factory=OrderedSet)
    #: node ids the reverse set alone would keep but no requested input reaches
    pruned_nodes: set[int] = field(default_factory=set)
    #: conditionals that guard CCS nodes (their conditions must be available
    #: in the backward pass)
    active_conditionals: set[int] = field(default_factory=set)

    def is_active_node(self, node: ComputeNode) -> bool:
        return node.node_id in self.active_nodes

    def carries_gradient(self, data: str) -> bool:
        """Whether the backward pass emits gradient contributions to ``data``:
        it is a floating-point container some requested input reaches."""
        return data in self.varied


def _is_float(sdfg: SDFG, data: str) -> bool:
    """Only floating-point containers carry gradients (conditions, counters
    and index arrays do not)."""
    return np.issubdtype(sdfg.arrays[data].dtype, np.floating)


def default_inputs(sdfg: SDFG) -> list[str]:
    """All floating-point, non-transient containers, in signature order."""
    return [
        name for name in sdfg.arg_names
        if name in sdfg.arrays and not sdfg.arrays[name].transient and _is_float(sdfg, name)
    ]


def compute_activity(sdfg: SDFG, output: str,
                     wrt: Optional[Sequence[str]] = None) -> ActivityAnalysis:
    """Compute the CCS of ``sdfg`` between the independent variables ``wrt``
    (default: every floating-point argument) and the dependent variable
    ``output``."""
    reverse_nodes: set[int] = set()
    needed: OrderedSet = OrderedSet([output])
    _process_region(sdfg, sdfg.root, OrderedSet([output]), reverse_nodes, needed,
                    inside_loop=False)

    result = ActivityAnalysis()
    result.varied = _varied_containers(sdfg, default_inputs(sdfg) if wrt is None else wrt)
    outputs = {node.node_id: node.output.data
               for state in sdfg.all_states() for node in state.nodes}
    result.active_nodes = {n for n in reverse_nodes if outputs[n] in result.varied}
    result.pruned_nodes = reverse_nodes - result.active_nodes
    result.active_data = OrderedSet(d for d in needed if d in result.varied)
    result.active_conditionals = {
        id(conditional) for conditional in sdfg.all_conditionals()
        if any(result.is_active_node(node)
               for _, branch in conditional.branches
               for state in branch.all_states() for node in state.nodes)
    }
    return result


def _varied_containers(sdfg: SDFG, wrt: Sequence[str]) -> OrderedSet:
    """Fixed point of "a node reading varied data varies its output",
    over all compute nodes regardless of program order."""
    varied: OrderedSet = OrderedSet(wrt)
    nodes = [node for state in sdfg.all_states() for node in state.nodes
             if _is_float(sdfg, node.output.data)]
    changed = True
    while changed:
        changed = False
        for node in nodes:
            out = node.output.data
            if out not in varied and any(data in varied for data in node.read_data()):
                varied.add(out)
                changed = True
    return varied


def _process_region(
    sdfg: SDFG,
    region: ControlFlowRegion,
    active: OrderedSet,
    nodes: set[int],
    needed: OrderedSet,
    inside_loop: bool,
) -> None:
    for element in reversed(region.elements):
        if isinstance(element, State):
            _process_state(sdfg, element, active, nodes, needed, inside_loop)
        elif isinstance(element, LoopRegion):
            # Fixed-point iteration: each pass may activate more data because
            # a later iteration's reads feed an earlier iteration's writes.
            # Activity is only accumulated inside loops, so this terminates.
            while True:
                size_before = (len(active), len(nodes))
                _process_region(sdfg, element.body, active, nodes, needed, inside_loop=True)
                if (len(active), len(nodes)) == size_before:
                    break
        elif isinstance(element, ConditionalRegion):
            # The union over branches (plus the incoming set) over-approximates
            # the runtime CCS; the backward pass prunes it by re-evaluating the
            # stored condition (paper Fig. 3).
            merged: OrderedSet = OrderedSet()
            for _, branch in element.branches:
                branch_active = active.copy()
                _process_region(sdfg, branch, branch_active, nodes, needed, inside_loop=True)
                merged.update(branch_active)
            active.update(merged)


def _process_state(
    sdfg: SDFG,
    state: State,
    active: OrderedSet,
    nodes: set[int],
    needed: OrderedSet,
    inside_loop: bool,
) -> None:
    for node in reversed(state.nodes):
        out = node.output.data
        if out not in active or not _is_float(sdfg, out):
            continue
        nodes.add(node.node_id)
        needed.add(out)
        reads = node.read_data()
        # A full, non-accumulating overwrite kills earlier definitions of the
        # container - but only outside loops (an earlier iteration's value may
        # still matter) and only if the node does not read the container it
        # writes.
        if (
            not inside_loop
            and not node.output.accumulate
            and node.output.is_full_write(sdfg.arrays[out].shape)
            and out not in reads
        ):
            active.discard(out)
        for data in sorted(reads):
            if _is_float(sdfg, data):
                active.add(data)
                needed.add(data)
