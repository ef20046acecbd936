"""Backward-region construction: reversing states, loops and conditionals.

The forward control-flow structure is mirrored in reverse order (paper
Section II step 3 and Section III):

* states are reversed node-by-node (delegating to
  :class:`~repro.autodiff.rules.BackwardRuleEmitter`);
* sequential loops become loops over the *reversed* iteration set, without
  unrolling (Fig. 6e);
* conditionals are re-emitted guarded by the stored/recomputed condition so
  the backward pass prunes the branches not taken in the forward pass
  (Fig. 3b);
* stack-tape pointers are popped exactly once per reversed state / reversed
  conditional, pairing with the pushes inserted by the storage planner.
"""

from __future__ import annotations

from typing import Optional

from repro.autodiff.analysis import ActivityAnalysis
from repro.autodiff.rules import BackwardRuleEmitter, GradientNames
from repro.autodiff.storage import StoragePlanner
from repro.ir import (
    ConditionalRegion,
    ControlFlowRegion,
    Index,
    LibraryCall,
    LoopRegion,
    MapCompute,
    Memlet,
    SDFG,
    State,
    Subset,
)
from repro.ir.nodes import ComputeNode
from repro.symbolic import Const, Expr, Sym, UnOp, substitute
from repro.symbolic.simplify import simplify
from repro.util.errors import AutodiffError


def clone_node_with_rename(node: ComputeNode, rename: dict[str, str]) -> ComputeNode:
    """Copy a compute node, renaming the containers its memlets reference."""

    def rename_memlet(memlet: Memlet) -> Memlet:
        return Memlet(rename.get(memlet.data, memlet.data), memlet.subset, memlet.accumulate)

    inputs = {conn: rename_memlet(memlet) for conn, memlet in node.inputs.items()}
    output = rename_memlet(node.output)
    if isinstance(node, MapCompute):
        return MapCompute(node.params, node.ranges, node.expr, inputs, output,
                          label=f"rc_{node.label}")
    if isinstance(node, LibraryCall):
        return LibraryCall(node.kind, inputs, output, attrs=dict(node.attrs),
                           label=f"rc_{node.label}")
    raise AutodiffError(f"Cannot clone node {node!r}")


def reversed_loop_bounds(loop: LoopRegion) -> tuple[Expr, Expr, Expr]:
    """Iteration bounds visiting the forward loop's index set in reverse order.

    The trip count comes from :meth:`repro.ir.subsets.Range.length_expr` —
    the one length formula in the codebase (handles negative constant steps
    with the downward-counting division).
    """
    from repro.ir.subsets import Range

    start, stop, step = loop.start, loop.stop, loop.step
    trip = Range(start, stop, step).length_expr()
    last = simplify(start + (trip - Const(1)) * step)
    if isinstance(simplify(step), Const) and simplify(step).value < 0:
        return last, simplify(start + Const(1)), simplify(UnOp("-", step))
    return last, simplify(start - Const(1)), simplify(UnOp("-", step))


class BackwardBuilder:
    """Builds the backward control-flow region for one forward SDFG."""

    def __init__(self, sdfg: SDFG, activity: ActivityAnalysis,
                 storage: StoragePlanner, grads: GradientNames) -> None:
        self.sdfg = sdfg
        self.activity = activity
        self.storage = storage
        self.grads = grads
        self.rules = BackwardRuleEmitter(sdfg, storage, grads)

    # ------------------------------------------------------------------ top --
    def reverse_region(self, region: ControlFlowRegion) -> list:
        """Reversed elements for a forward region (in backward execution order)."""
        reversed_elements = []
        for element in reversed(region.elements):
            if isinstance(element, State):
                new_state = self._reverse_state(element)
                if new_state is not None:
                    reversed_elements.append(new_state)
            elif isinstance(element, LoopRegion):
                new_loop = self._reverse_loop(element)
                if new_loop is not None:
                    reversed_elements.append(new_loop)
            elif isinstance(element, ConditionalRegion):
                reversed_elements.extend(self._reverse_conditional(element))
        return reversed_elements

    # ------------------------------------------------------------------ states --
    def _reverse_state(self, state: State) -> Optional[State]:
        pops = self.storage.state_tape_pops.get(id(state), [])
        active_nodes = [n for n in state.nodes if self.activity.is_active_node(n)]
        recomputes = self.storage.state_recomputes.get(id(state), [])
        if not pops and not active_nodes and not recomputes:
            return None
        reversed_state = State(self.sdfg.make_name(f"rev_{state.label}"))
        for ptr in pops:
            reversed_state.add(self._pointer_decrement(ptr))
        for resolution in recomputes:
            for chain_node in resolution.recompute_chain:
                reversed_state.add(clone_node_with_rename(chain_node, resolution.recompute_rename))
        for node in reversed(active_nodes):
            self.rules.emit(node, reversed_state)
        if reversed_state.is_empty():
            return None
        return reversed_state

    def _pointer_decrement(self, ptr: str) -> MapCompute:
        return MapCompute(
            params=[], ranges=[], expr=Const(-1), inputs={},
            output=Memlet(ptr, Subset(()), accumulate=True),
            label=f"pop_{ptr}",
        )

    # ------------------------------------------------------------------ loops --
    def _reverse_loop(self, loop: LoopRegion) -> Optional[LoopRegion]:
        body_elements = self.reverse_region(loop.body)
        if not body_elements:
            return None
        start, stop, step = reversed_loop_bounds(loop)
        reversed_loop = LoopRegion(
            loop.itervar, start, stop, step,
            label=self.sdfg.make_name(f"rev_{loop.label}"),
        )
        reversed_loop.body.elements = body_elements
        return reversed_loop

    # ------------------------------------------------------------------ branches --
    def _reverse_conditional(self, conditional: ConditionalRegion) -> list:
        elements: list = []
        reversed_branches = []
        any_content = False
        for condition, region in conditional.branches:
            body_elements = self.reverse_region(region)
            any_content = any_content or bool(body_elements)
            reversed_branches.append((condition, body_elements))
        if not any_content:
            return []

        # Restore taped conditions (pop the pointer, then rewrite the stored
        # condition value into the original container).
        restore_state = State(self.sdfg.make_name("restore_cond"))
        condition_rename: dict[str, str] = {}
        for condition, _ in conditional.branches:
            if condition is None:
                continue
            for sym in sorted(condition.free_symbols()):
                if sym not in self.sdfg.arrays:
                    continue
                resolution = self.storage.resolve(conditional, sym, "condition")
                if resolution.kind == "tape":
                    restore_state.add(self._pointer_decrement(resolution.ptr))
                    restore_state.add(
                        MapCompute(
                            params=[], ranges=[], expr=Sym("__v"),
                            inputs={"__v": Memlet(resolution.container,
                                                  Subset([Index(Sym(resolution.ptr))]))},
                            output=Memlet(sym, Subset(())),
                            label=f"restore_{sym}",
                        )
                    )
                elif resolution.kind == "snapshot":
                    condition_rename[sym] = resolution.container
        if not restore_state.is_empty():
            elements.append(restore_state)

        reversed_conditional = ConditionalRegion(
            label=self.sdfg.make_name(f"rev_{conditional.label}")
        )
        for (condition, body_elements) in reversed_branches:
            if condition is not None and condition_rename:
                condition = substitute(condition, {k: Sym(v) for k, v in condition_rename.items()})
            branch_region = reversed_conditional.add_branch(condition)
            branch_region.elements = body_elements
        elements.append(reversed_conditional)
        return elements
