"""Control-flow constructs: regions, sequential loops and conditionals.

These mirror the paper's Loop Region (Fig. 2) and the multi-state conditional
control flow of Fig. 3.  A :class:`ControlFlowRegion` is an ordered sequence
of elements executed one after another; loops and conditionals nest regions.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from repro.ir.state import State
from repro.symbolic import Const, Expr, as_expr
from repro.util import OrderedSet

ControlFlowElement = Union[State, "LoopRegion", "ConditionalRegion"]


class ControlFlowRegion:
    """An ordered sequence of states / loops / conditionals."""

    def __init__(self, label: str = "region") -> None:
        self.label = label
        self.elements: list[ControlFlowElement] = []

    # -- construction ------------------------------------------------------
    def add(self, element: ControlFlowElement) -> ControlFlowElement:
        self.elements.append(element)
        return element

    def add_state(self, label: str = "state") -> State:
        state = State(label)
        self.elements.append(state)
        return state

    # -- traversal ---------------------------------------------------------
    def __iter__(self) -> Iterator[ControlFlowElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def walk(self, path: tuple = ()) -> Iterator[
        tuple[ControlFlowElement, "ControlFlowRegion", int, tuple]
    ]:
        """Every element below this region, depth first in program order, as
        ``(element, region, index, path)``: ``region.elements[index]`` is
        ``element`` and ``path`` holds the enclosing loops and conditionals,
        outermost first (empty for this region's own elements).  Each element
        is yielded before the elements nested in it."""
        for index, element in enumerate(self.elements):
            yield element, self, index, path
            if isinstance(element, LoopRegion):
                yield from element.body.walk(path + (element,))
            elif isinstance(element, ConditionalRegion):
                for _, branch in element.branches:
                    yield from branch.walk(path + (element,))

    def all_states(self) -> Iterator[State]:
        """All states in this region, depth first, in program order."""
        return (element for element, _, _, _ in self.walk() if isinstance(element, State))

    def all_elements(self) -> Iterator[ControlFlowElement]:
        """All elements (states, loops, conditionals) in this region, depth first."""
        return (element for element, _, _, _ in self.walk())

    # -- dataflow summaries --------------------------------------------------
    def read_data(self) -> OrderedSet[str]:
        result: OrderedSet[str] = OrderedSet()
        for element in self.elements:
            result.update(element.read_data())
        return result

    def written_data(self) -> OrderedSet[str]:
        result: OrderedSet[str] = OrderedSet()
        for element in self.elements:
            result.update(element.written_data())
        return result

    def __repr__(self) -> str:
        return f"ControlFlowRegion({self.label!r}, {len(self.elements)} elements)"


class LoopRegion:
    """A sequential counted loop ``for itervar in range(start, stop, step)``.

    The loop header expressions may reference SDFG symbols and outer loop
    iterators (affine or loop-invariant non-affine, per the paper's taxonomy);
    the body must not modify them.  ``step`` may be negative.
    """

    def __init__(
        self,
        itervar: str,
        start,
        stop,
        step=1,
        label: str = "loop",
    ) -> None:
        self.label = label
        self.itervar = itervar
        self.start: Expr = as_expr(start)
        self.stop: Expr = as_expr(stop)
        self.step: Expr = as_expr(step)
        self.body = ControlFlowRegion(label=f"{label}_body")

    def trip_count_expr(self) -> Expr:
        """Number of iterations (assumes the range is non-empty or clamps to 0
        at runtime; used for tape sizing and cost models)."""
        from repro.symbolic.simplify import simplify

        span = self.stop - self.start
        return simplify((span + self.step - Const(1)) // self.step)

    def read_data(self) -> OrderedSet[str]:
        return self.body.read_data()

    def written_data(self) -> OrderedSet[str]:
        return self.body.written_data()

    def __repr__(self) -> str:
        return (
            f"LoopRegion({self.itervar}=range({self.start!r}, {self.stop!r}, {self.step!r}), "
            f"{len(self.body.elements)} elements)"
        )


class ConditionalRegion:
    """Multi-way branch.  ``branches`` is a list of (condition, region) pairs;
    a ``None`` condition is the final ``else`` branch."""

    def __init__(self, label: str = "if") -> None:
        self.label = label
        self.branches: list[tuple[Optional[Expr], ControlFlowRegion]] = []

    def add_branch(self, condition: Optional[Expr], label: str = "") -> ControlFlowRegion:
        region = ControlFlowRegion(label=label or f"{self.label}_branch{len(self.branches)}")
        condition_expr = as_expr(condition) if condition is not None else None
        self.branches.append((condition_expr, region))
        return region

    def read_data(self) -> OrderedSet[str]:
        result: OrderedSet[str] = OrderedSet()
        for _, region in self.branches:
            result.update(region.read_data())
        return result

    def written_data(self) -> OrderedSet[str]:
        result: OrderedSet[str] = OrderedSet()
        for _, region in self.branches:
            result.update(region.written_data())
        return result

    def __repr__(self) -> str:
        return f"ConditionalRegion({self.label!r}, {len(self.branches)} branches)"
