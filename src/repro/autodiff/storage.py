"""Forward-value storage planning: the store/recompute machinery.

Reverse-mode AD must make the values used by non-linear operations available
to the backward pass (paper Section IV).  For every such *required value* the
planner chooses a resolution:

``direct``
    The container still holds the right value when the backward pass runs
    (it is never overwritten after the consuming node); read it directly.
``snapshot``
    The container is overwritten later but the consumer is not inside a loop:
    copy it into a ``__fwd_*`` container right before the consuming node.
``tape``
    The consumer sits inside sequential loops: push the value onto a stack
    tape (``__tape_*`` plus a pointer scalar) each forward iteration and pop
    it in the reversed loop.  Pushes and pops pair up exactly because the
    backward pass visits iterations in exact reverse order.
``recompute``
    Do not keep the value; re-derive it in the backward pass from containers
    that are still available (re-materialisation).  Only values defined by
    straight-line top-level code are eligible.

Which *eligible* values are stored and which are recomputed is decided by a
checkpointing strategy (``strategy.decide``); the default stores everything
(the store-all baseline of the paper).  The ILP strategy of
:mod:`repro.checkpointing` plugs in here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.autodiff.analysis import ActivityAnalysis
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
from repro.symbolic import Call, Const, Expr, Sym, diff, substitute
from repro.symbolic.simplify import simplify
from repro.util.errors import AutodiffError


# ---------------------------------------------------------------------------
# Required-value discovery
# ---------------------------------------------------------------------------


def needed_value_connectors(node: ComputeNode,
                            carries_gradient: Callable[[str], bool]) -> tuple[set[str], bool]:
    """Which input connectors' *values* the backward rule of ``node`` reads,
    and whether it also reads the node's output value.

    ``carries_gradient`` is the predicate the rules use to decide which
    inputs receive a contribution (:meth:`ActivityAnalysis.carries_gradient`):
    a value only the contribution to an unrequested input would read is not
    needed."""
    varied = {conn for conn, memlet in node.inputs.items() if carries_gradient(memlet.data)}
    if isinstance(node, MapCompute):
        needed: set[str] = set()
        for conn in varied:
            needed |= simplify(diff(node.expr, conn)).free_symbols() & set(node.inputs)
        return needed, False
    if isinstance(node, LibraryCall):
        kind = node.kind
        if kind in ("matmul", "outer"):
            # Each operand's gradient is the output gradient times the other.
            return {other for conn, other in (("_a", "_b"), ("_b", "_a")) if conn in varied}, False
        if kind in ("reduce_sum", "transpose", "copy", "flatten"):
            return set(), False
        if kind in ("reduce_max", "reduce_min"):
            return ({"_in"}, True) if "_in" in varied else (set(), False)
        if kind in ("relu", "maxpool2d"):
            return varied & {"_in"}, False
        if kind == "softmax":
            return set(), "_in" in varied
        if kind == "conv2d":
            return {other for conn, other in (("_in", "_w"), ("_w", "_in")) if conn in varied}, False
        raise AutodiffError(f"No backward rule for library node kind {kind!r}")
    raise AutodiffError(f"Unknown compute node type {type(node).__name__}")


@dataclass
class RequiredValue:
    """One forward value needed by the backward pass."""

    key: str
    data: str
    role: str  # 'input' | 'output' | 'condition'
    node: Optional[ComputeNode]
    state: Optional[State]
    conditional: Optional[ConditionalRegion]
    region: ControlFlowRegion
    enclosing_loops: tuple[LoopRegion, ...]
    overwritten_after: bool
    transient: bool


@dataclass
class RematCandidate:
    """A required value the checkpointing strategy may decide about.

    ``chain`` is the list of forward compute nodes that recompute the value
    from available containers (empty when recomputation is not possible, in
    which case the only valid decision is ``store``).
    """

    key: str
    data: str
    required: RequiredValue
    recompute_eligible: bool
    chain: list[ComputeNode] = field(default_factory=list)
    chain_transients: list[str] = field(default_factory=list)


@dataclass
class Resolution:
    """How the backward pass obtains one required value."""

    kind: str  # 'direct' | 'snapshot' | 'tape' | 'recompute'
    container: str
    ptr: Optional[str] = None
    recompute_chain: list[ComputeNode] = field(default_factory=list)
    recompute_rename: dict[str, str] = field(default_factory=dict)


def conservative_capacity(loops: tuple[LoopRegion, ...]) -> Expr:
    """Upper bound on the total number of iterations of a loop nest.

    Trip counts that depend on outer iterators (triangular loops) are bounded
    by evaluating them at both extremes of the outer iterator.
    """
    total: Expr = Const(1)
    for index, loop in enumerate(loops):
        trip = loop.trip_count_expr()
        for outer in loops[:index]:
            last = simplify(
                outer.start + (outer.trip_count_expr() - Const(1)) * outer.step
            )
            at_start = substitute(trip, {outer.itervar: outer.start})
            at_end = substitute(trip, {outer.itervar: last})
            trip = Call("maximum", (at_start, at_end))
        trip = Call("maximum", (simplify(trip), Const(0)))
        total = total * trip
    return simplify(total)


class StoragePlanner:
    """Plans and inserts forward-value storage, and resolves reads for the
    backward builder."""

    def __init__(self, sdfg: SDFG, activity: ActivityAnalysis, strategy=None) -> None:
        self.sdfg = sdfg
        self.activity = activity
        self.strategy = strategy
        self.required: list[RequiredValue] = []
        self.candidates: dict[str, RematCandidate] = {}
        self.resolutions: dict[str, Resolution] = {}
        #: (state id) -> list of tape pointer names to decrement at the start
        #: of the reversed state
        self.state_tape_pops: dict[int, list[str]] = {}
        #: id(conditional) -> list of tape pointer names to decrement right
        #: before the reversed conditional
        self.conditional_tape_pops: dict[int, list[str]] = {}
        # internal dedup: (id(state-or-conditional), data) -> Resolution
        self._save_cache: dict[tuple[int, str], Resolution] = {}
        self._counter = 0

    # ------------------------------------------------------------------ plan --
    def plan(self) -> None:
        """Discover required values, consult the strategy, insert saves."""
        self._collect_region(self.sdfg.root, (), set())
        self._build_candidates()
        decisions = self._decide()
        for req in self.required:
            self.resolutions[req.key] = self._materialize(req, decisions.get(req.key, "store"))

    # -- discovery ---------------------------------------------------------------
    def _collect_region(self, region: ControlFlowRegion,
                        loops: tuple[LoopRegion, ...], written_later: set[str]) -> None:
        elements = region.elements
        suffix_writes: list[set[str]] = [set() for _ in range(len(elements) + 1)]
        for index in range(len(elements) - 1, -1, -1):
            suffix_writes[index] = suffix_writes[index + 1] | set(elements[index].written_data())
        for index, element in enumerate(elements):
            later = written_later | suffix_writes[index + 1]
            if isinstance(element, State):
                self._collect_state(element, region, loops, later)
            elif isinstance(element, LoopRegion):
                self._collect_region(
                    element.body, loops + (element,), later | set(element.written_data())
                )
            elif isinstance(element, ConditionalRegion):
                self._collect_conditional(element, region, loops, later)
                for _, branch in element.branches:
                    self._collect_region(branch, loops, later)

    def _collect_state(self, state: State, region: ControlFlowRegion,
                       loops: tuple[LoopRegion, ...], later: set[str]) -> None:
        node_writes = [node.output.data for node in state.nodes]
        for position, node in enumerate(state.nodes):
            if node.node_id not in self.activity.active_nodes:
                continue
            needed_inputs, needs_output = needed_value_connectors(
                node, self.activity.carries_gradient)
            for conn in sorted(needed_inputs):
                data = node.inputs[conn].data
                overwritten = data in later or data in node_writes[position:]
                self._add_required(data, "input", node, state, None, region, loops, overwritten)
            if needs_output:
                data = node.output.data
                overwritten = data in later or data in node_writes[position + 1:]
                self._add_required(data, "output", node, state, None, region, loops, overwritten)

    def _collect_conditional(self, conditional: ConditionalRegion, region: ControlFlowRegion,
                             loops: tuple[LoopRegion, ...], later: set[str]) -> None:
        if id(conditional) not in self.activity.active_conditionals:
            return
        for condition, _ in conditional.branches:
            if condition is None:
                continue
            for sym in sorted(condition.free_symbols()):
                if sym in self.sdfg.arrays:
                    overwritten = sym in later
                    self._add_required(sym, "condition", None, None, conditional, region,
                                       loops, overwritten)

    def _add_required(self, data: str, role: str, node, state, conditional, region,
                      loops, overwritten) -> RequiredValue:
        self._counter += 1
        owner = node.node_id if node is not None else id(conditional)
        req = RequiredValue(
            key=f"{data}#{role}#{owner}#{self._counter}",
            data=data,
            role=role,
            node=node,
            state=state,
            conditional=conditional,
            region=region,
            enclosing_loops=loops,
            overwritten_after=overwritten,
            transient=self.sdfg.arrays[data].transient,
        )
        self.required.append(req)
        return req

    # -- candidates and decisions -----------------------------------------------------
    def _build_candidates(self) -> None:
        for req in self.required:
            if req.role != "input" or req.enclosing_loops or not req.transient:
                continue  # only top-level transient inputs are decision candidates
            if req.state not in self.sdfg.root.elements:
                continue  # consumers inside conditionals are stored, not decided
            chain, chain_transients, eligible = self._defining_chain(req)
            self.candidates[req.key] = RematCandidate(
                key=req.key,
                data=req.data,
                required=req,
                recompute_eligible=eligible,
                chain=chain,
                chain_transients=chain_transients,
            )

    def _defining_chain(self, req: RequiredValue):
        """Find the top-level straight-line chain recomputing ``req.data``.

        Returns (chain nodes in execution order, intermediate transients that
        the chain recomputes, eligible flag).
        """
        # Map: data -> last top-level node writing it before the consumer state.
        last_writer: dict[str, ComputeNode] = {}
        writers_in_loops: set[str] = set()
        consumer_state = req.state
        for element in self.sdfg.root.elements:
            if element is consumer_state:
                # Include nodes of the consumer state that precede the consumer.
                for node in element.nodes:
                    if node is req.node:
                        break
                    last_writer[node.output.data] = node
                break
            if isinstance(element, State):
                for node in element.nodes:
                    last_writer[node.output.data] = node
            else:
                for name in element.written_data():
                    writers_in_loops.add(name)

        ever_written = set()
        for state in self.sdfg.all_states():
            ever_written |= set(state.written_data())

        chain: list[ComputeNode] = []
        chain_transients: list[str] = []
        visited: set[str] = set()

        def resolve(data: str) -> bool:
            if data in visited:
                return True
            visited.add(data)
            desc = self.sdfg.arrays[data]
            if not desc.transient:
                # Arguments are available at backward time only if never written.
                return data not in ever_written
            if data in writers_in_loops:
                return False
            writer = last_writer.get(data)
            if writer is None:
                return False
            for memlet in writer.inputs.values():
                if not resolve(memlet.data):
                    return False
            chain.append(writer)
            chain_transients.append(data)
            return True

        eligible = resolve(req.data)
        if not eligible:
            return [], [], False
        return chain, chain_transients, True

    def _decide(self) -> dict[str, str]:
        """Consult the strategy; default is store-all."""
        if self.strategy is None or not self.candidates:
            return {key: "store" for key in self.candidates}
        decisions = self.strategy.decide(self.sdfg, list(self.candidates.values()))
        cleaned = {}
        for key, candidate in self.candidates.items():
            decision = decisions.get(key, "store")
            if decision == "recompute" and not candidate.recompute_eligible:
                decision = "store"
            cleaned[key] = decision
        return cleaned

    # -- materialisation --------------------------------------------------------------
    def _materialize(self, req: RequiredValue, decision: str) -> Resolution:
        if decision == "recompute" and req.key in self.candidates:
            return self._materialize_recompute(self.candidates[req.key])
        if not req.overwritten_after:
            return Resolution(kind="direct", container=req.data)
        if req.enclosing_loops:
            return self._materialize_tape(req)
        return self._materialize_snapshot(req)

    def _materialize_recompute(self, candidate: RematCandidate) -> Resolution:
        rename = {}
        for data in candidate.chain_transients:
            desc = self.sdfg.arrays[data]
            new_desc = self.sdfg.add_transient(f"__rc_{data}", desc.shape, desc.dtype,
                                               zero_init=desc.zero_init)
            rename[data] = new_desc.name
        return Resolution(
            kind="recompute",
            container=rename[candidate.data],
            recompute_chain=list(candidate.chain),
            recompute_rename=rename,
        )

    def _save_owner_key(self, req: RequiredValue) -> tuple[int, str]:
        owner = req.state if req.state is not None else req.conditional
        return (id(owner), req.data)

    def _materialize_snapshot(self, req: RequiredValue) -> Resolution:
        cache_key = self._save_owner_key(req)
        if cache_key in self._save_cache:
            return self._save_cache[cache_key]
        desc = self.sdfg.arrays[req.data]
        snap = self.sdfg.add_transient(f"__fwd_{req.data}", desc.shape, desc.dtype)
        copy_node = LibraryCall(
            "copy",
            inputs={"_in": Memlet(req.data, None)},
            output=Memlet(snap.name, None),
            label=f"save_{req.data}",
        )
        self._insert_save(req, [copy_node])
        resolution = Resolution(kind="snapshot", container=snap.name)
        self._save_cache[cache_key] = resolution
        return resolution

    def _materialize_tape(self, req: RequiredValue) -> Resolution:
        cache_key = self._save_owner_key(req)
        if cache_key in self._save_cache:
            return self._save_cache[cache_key]
        desc = self.sdfg.arrays[req.data]
        capacity = conservative_capacity(req.enclosing_loops)
        tape = self.sdfg.add_transient(
            f"__tape_{req.data}", (capacity,) + tuple(desc.shape), desc.dtype
        )
        ptr = self.sdfg.add_transient(f"{tape.name}_ptr", (), np.int64, zero_init=True)

        # tape[ptr, ...] = data  (one map over the data's index space)
        params = [f"__s{i}" for i in range(desc.ndim)]
        from repro.ir.subsets import Range as IRRange

        ranges = [IRRange(Const(0), dim, Const(1)) for dim in desc.shape_exprs()]
        element = [Index(Sym(p)) for p in params]
        save_node = MapCompute(
            params=params,
            ranges=ranges,
            expr=Sym("__val"),
            inputs={"__val": Memlet(req.data, Subset(element) if element else Subset(()))},
            output=Memlet(tape.name, Subset([Index(Sym(ptr.name))] + element)),
            label=f"tape_save_{req.data}",
        )
        bump = MapCompute(
            params=[], ranges=[], expr=Const(1), inputs={},
            output=Memlet(ptr.name, Subset(()), accumulate=True),
            label=f"tape_bump_{req.data}",
        )
        self._insert_save(req, [save_node, bump])

        # Register the pop (pointer decrement) with the owning state/conditional.
        if req.state is not None:
            self.state_tape_pops.setdefault(id(req.state), []).append(ptr.name)
        else:
            self.conditional_tape_pops.setdefault(id(req.conditional), []).append(ptr.name)

        resolution = Resolution(kind="tape", container=tape.name, ptr=ptr.name)
        self._save_cache[cache_key] = resolution
        return resolution

    def _insert_save(self, req: RequiredValue, nodes: list[ComputeNode]) -> None:
        """Insert save nodes right before the consuming node (or, for
        conditions, in a new state right before the conditional)."""
        if req.state is not None and req.node is not None:
            position = req.state.nodes.index(req.node)
            if req.role == "output":
                position += 1
            for offset, node in enumerate(nodes):
                req.state.nodes.insert(position + offset, node)
        else:
            save_state = State(self.sdfg.make_name(f"save_cond"))
            save_state.extend(nodes)
            index = req.region.elements.index(req.conditional)
            req.region.elements.insert(index, save_state)

    # ------------------------------------------------------------------ queries --
    def resolve(self, node: ComputeNode, data: str, role: str = "input") -> Resolution:
        """Resolution for a (node, data) pair; falls back to direct access."""
        for req in self.required:
            if req.node is node and req.data == data and req.role == role:
                return self.resolutions[req.key]
        return Resolution(kind="direct", container=data)

    def resolve_condition(self, conditional: ConditionalRegion, data: str) -> Resolution:
        for req in self.required:
            if req.conditional is conditional and req.data == data:
                return self.resolutions[req.key]
        return Resolution(kind="direct", container=data)

    def read_memlet(self, resolution: Resolution, original: Memlet) -> Memlet:
        """Build the memlet the backward pass uses to read a required value."""
        if resolution.kind in ("direct",):
            return Memlet(resolution.container, original.subset)
        if resolution.kind in ("snapshot", "recompute"):
            return Memlet(resolution.container, original.subset)
        if resolution.kind == "tape":
            dims = [Index(Sym(resolution.ptr))]
            if original.subset is not None:
                dims.extend(original.subset.dims)
            else:
                desc = self.sdfg.arrays[original.data]
                dims.extend(Subset.full(desc.shape).dims)
            return Memlet(resolution.container, Subset(dims))
        raise AutodiffError(f"Unknown resolution kind {resolution.kind!r}")
