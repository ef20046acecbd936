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
from typing import Callable, Optional, Union

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
from repro.ir.usage import ProgramUses, collect_uses
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
    """One forward value needed by the backward pass: ``data`` as read by
    ``owner``, a compute node (``role`` ``'input'`` / ``'output'``) or the
    conditional whose branch condition names it (``'condition'``).

    ``pos`` is the read's program position in the numbering of
    :func:`repro.ir.usage.collect_uses`: the consuming node's position, one
    past it for the node's own output, and the position of the conditional's
    first nested node for a condition.  ``state`` is the consuming node's
    state (``None`` for a condition) and ``ctrl_path`` the enclosing loops
    and conditionals, outermost first.
    """

    key: str
    data: str
    role: str  # 'input' | 'output' | 'condition'
    owner: Union[ComputeNode, ConditionalRegion]
    state: Optional[State]
    region: ControlFlowRegion
    ctrl_path: tuple
    pos: int
    overwritten_after: bool
    transient: bool

    @property
    def enclosing_loops(self) -> tuple[LoopRegion, ...]:
        return tuple(e for e in self.ctrl_path if isinstance(e, LoopRegion))


@dataclass
class RematCandidate:
    """A required value the checkpointing strategy may decide about.

    ``chain`` is the list of forward compute nodes that recompute the value
    from available containers (empty when recomputation is not possible, in
    which case the only valid decision is ``store``).
    """

    key: str
    data: str
    chain: list[ComputeNode] = field(default_factory=list)
    chain_transients: list[str] = field(default_factory=list)

    @property
    def recompute_eligible(self) -> bool:
        return bool(self.chain)


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
        #: (state id) -> list of tape pointer names to decrement at the start
        #: of the reversed state
        self.state_tape_pops: dict[int, list[str]] = {}
        #: (state id) -> recompute resolutions whose chains the reversed state
        #: re-runs before its rules
        self.state_recomputes: dict[int, list[Resolution]] = {}
        # (id(owner), data, role) -> Resolution: every read a rule may make
        self._resolutions: dict[tuple[int, str, str], Resolution] = {}
        # internal dedup: (id(state-or-conditional), data) -> Resolution
        self._save_cache: dict[tuple[int, str], Resolution] = {}
        self._counter = 0

    # ------------------------------------------------------------------ plan --
    def plan(self) -> None:
        """Discover required values, consult the strategy, insert saves."""
        uses = collect_uses(self.sdfg)
        self._discover(uses)
        self._build_candidates(uses)
        recomputed = self._recomputed()
        for req in self.required:
            if req.key in recomputed:
                resolution = self._materialize_recompute(self.candidates[req.key])
                self.state_recomputes.setdefault(id(req.state), []).append(resolution)
            else:
                resolution = self._materialize(req)
            self._resolutions.setdefault((id(req.owner), req.data, req.role), resolution)

    # -- discovery ---------------------------------------------------------------
    def _discover(self, uses: ProgramUses) -> None:
        """Record every value a backward rule reads, in program order.

        ``pos`` counts compute nodes in the order of ``collect_uses``, which
        walks the same tree the same way.
        """
        pos = 0
        for element, region, _, path in self.sdfg.root.walk():
            if isinstance(element, ConditionalRegion):
                if id(element) not in self.activity.active_conditionals:
                    continue
                for condition, _ in element.branches:
                    if condition is None:
                        continue
                    for sym in sorted(condition.free_symbols()):
                        if sym in self.sdfg.arrays:
                            self._add_required(uses, sym, "condition", element, None,
                                               region, path, pos)
            elif isinstance(element, State):
                for node in element.nodes:
                    if node.node_id in self.activity.active_nodes:
                        needed_inputs, needs_output = needed_value_connectors(
                            node, self.activity.carries_gradient)
                        for conn in sorted(needed_inputs):
                            self._add_required(uses, node.inputs[conn].data, "input", node,
                                               element, region, path, pos)
                        if needs_output:
                            self._add_required(uses, node.output.data, "output", node,
                                               element, region, path, pos + 1)
                    pos += 1

    def _add_required(self, uses: ProgramUses, data: str, role: str, owner, state,
                      region, path, pos) -> None:
        """Append a required value.  It is *overwritten after* its read when
        the container is written at or after ``pos`` (a node's own write
        overwrites its inputs; branches count in program order, as liveness
        lays them out) or anywhere in a loop enclosing the read (the next
        iteration's write precedes this iteration's backward read)."""
        self._counter += 1
        loops = [e for e in path if isinstance(e, LoopRegion)]
        overwritten = any(
            write.pos >= pos or any(loop in write.ctrl_path for loop in loops)
            for write in uses[data].writes
        )
        owner_id = id(owner) if role == "condition" else owner.node_id
        self.required.append(RequiredValue(
            key=f"{data}#{role}#{owner_id}#{self._counter}",
            data=data,
            role=role,
            owner=owner,
            state=state,
            region=region,
            ctrl_path=path,
            pos=pos,
            overwritten_after=overwritten,
            transient=self.sdfg.arrays[data].transient,
        ))

    # -- candidates and decisions -----------------------------------------------------
    def _build_candidates(self, uses: ProgramUses) -> None:
        for req in self.required:
            # Only transient inputs of top-level nodes are decision
            # candidates; consumers inside loops or conditionals are stored.
            if req.role != "input" or req.ctrl_path or not req.transient:
                continue
            chain, chain_transients = self._defining_chain(req, uses)
            self.candidates[req.key] = RematCandidate(req.key, req.data, chain, chain_transients)

    def _defining_chain(self, req: RequiredValue, uses: ProgramUses):
        """Find the top-level straight-line chain recomputing ``req.data``.

        Returns (chain nodes in execution order, intermediate transients that
        the chain recomputes); both are empty when recomputation is not
        possible.  Every container is judged at the consumer's position: an
        argument is available only if it is never written, and a transient
        only if its last write before the consumer is top-level with no
        earlier write inside a loop or conditional.
        """
        chain: list[ComputeNode] = []
        chain_transients: list[str] = []
        visited: set[str] = set()

        def resolve(data: str) -> bool:
            if data in visited:
                return True
            visited.add(data)
            writes = uses[data].writes
            if not self.sdfg.arrays[data].transient:
                return not writes
            before = [write for write in writes if write.pos < req.pos]
            if not before or any(write.ctrl_path for write in before):
                return False
            writer = before[-1].node
            if not all(resolve(memlet.data) for memlet in writer.inputs.values()):
                return False
            chain.append(writer)
            chain_transients.append(data)
            return True

        if not resolve(req.data):
            return [], []
        return chain, chain_transients

    def _recomputed(self) -> set[str]:
        """Keys of the candidates the strategy recomputes (none without a
        strategy: store-all); an ineligible candidate is always stored."""
        if self.strategy is None or not self.candidates:
            return set()
        decisions = self.strategy.decide(self.sdfg, list(self.candidates.values()))
        return {key for key, candidate in self.candidates.items()
                if decisions.get(key) == "recompute" and candidate.recompute_eligible}

    # -- materialisation --------------------------------------------------------------
    def _materialize(self, req: RequiredValue) -> Resolution:
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
        return (id(req.owner if req.state is None else req.state), req.data)

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

        # Register the pop (pointer decrement) with the owning state; the
        # reversed conditional pops a taped condition through ``ptr``.
        if req.state is not None:
            self.state_tape_pops.setdefault(id(req.state), []).append(ptr.name)

        resolution = Resolution(kind="tape", container=tape.name, ptr=ptr.name)
        self._save_cache[cache_key] = resolution
        return resolution

    def _insert_save(self, req: RequiredValue, nodes: list[ComputeNode]) -> None:
        """Insert save nodes right before the consuming node (or, for
        conditions, in a new state right before the conditional)."""
        if req.state is not None:
            position = req.state.nodes.index(req.owner)
            if req.role == "output":
                position += 1
            for offset, node in enumerate(nodes):
                req.state.nodes.insert(position + offset, node)
        else:
            save_state = State(self.sdfg.make_name(f"save_cond"))
            save_state.extend(nodes)
            index = req.region.elements.index(req.owner)
            req.region.elements.insert(index, save_state)

    # ------------------------------------------------------------------ queries --
    def resolve(self, owner: Union[ComputeNode, ConditionalRegion], data: str,
                role: str = "input") -> Resolution:
        """Resolution for ``data`` as read by ``owner`` (a compute node, or a
        conditional for ``role='condition'``).  A read the planner did not
        plan raises: the live container may have been overwritten since."""
        resolution = self._resolutions.get((id(owner), data, role))
        if resolution is None:
            raise AutodiffError(
                f"No forward value of {data!r} ({role}) was planned for {owner!r}; "
                "needed_value_connectors must list every value a backward rule reads"
            )
        return resolution

    def read_memlet(self, resolution: Resolution, original: Memlet) -> Memlet:
        """Build the memlet the backward pass uses to read a required value."""
        if resolution.kind != "tape":
            return Memlet(resolution.container, original.subset)
        dims = [Index(Sym(resolution.ptr))]
        if original.subset is not None:
            dims.extend(original.subset.dims)
        else:
            desc = self.sdfg.arrays[original.data]
            dims.extend(Subset.full(desc.shape).dims)
        return Memlet(resolution.container, Subset(dims))
