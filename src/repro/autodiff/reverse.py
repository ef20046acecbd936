"""Backward-region construction: reversing states, loops and conditionals.

The forward control-flow structure is mirrored in reverse order (paper
Section II step 3 and Section III):

* states are reversed node-by-node (delegating to
  :class:`~repro.autodiff.rules.BackwardRuleEmitter`);
* sequential loops become loops over the *reversed* iteration set, without
  unrolling (Fig. 6e);
* conditionals are re-emitted guarded by the forward branch condition so
  the backward pass prunes the branches not taken in the forward pass
  (Fig. 3b).

Everything that brings a saved forward value back comes from the
:class:`~repro.autodiff.storage.StoragePlanner`: a reversed state starts
with the planner's ``state_prologue`` (tape pops, recompute chains) and a
reversed conditional with its ``condition_values`` (restored or renamed
conditions).  This module builds no tape index, pop or recompute clone.
"""

from __future__ import annotations

from typing import Optional

from repro.autodiff.analysis import ActivityAnalysis
from repro.autodiff.rules import BackwardRuleEmitter, GradientNames
from repro.autodiff.storage import StoragePlanner
from repro.ir import ConditionalRegion, ControlFlowRegion, LoopRegion, SDFG, State
from repro.symbolic import Const, Expr, UnOp, substitute
from repro.symbolic.simplify import simplify


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
        prologue = self.storage.state_prologue(state)
        active_nodes = [n for n in state.nodes if self.activity.is_active_node(n)]
        if not prologue and not active_nodes:
            return None
        reversed_state = State(self.sdfg.make_name(f"rev_{state.label}"))
        reversed_state.extend(prologue)
        for node in reversed(active_nodes):
            self.rules.emit(node, reversed_state)
        return None if reversed_state.is_empty() else reversed_state

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
        reversed_branches = [(condition, self.reverse_region(region))
                             for condition, region in conditional.branches]
        if not any(body for _, body in reversed_branches):
            return []
        restores, rename = self.storage.condition_values(conditional)
        restore_state = State(self.sdfg.make_name("restore_cond"))
        restore_state.extend(restores)
        reversed_conditional = ConditionalRegion(
            label=self.sdfg.make_name(f"rev_{conditional.label}")
        )
        for condition, body in reversed_branches:
            if condition is not None and rename:
                condition = substitute(condition, rename)
            reversed_conditional.add_branch(condition).elements = body
        return ([] if restore_state.is_empty() else [restore_state]) + [reversed_conditional]
