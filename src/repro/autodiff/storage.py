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
    The consumer sits inside sequential loops: each forward iteration pushes
    the read's *footprint* (the elements it touches over the consumer's map
    domain) onto a stack tape (``__tape_*`` plus a pointer scalar), and the
    reversed loop pops it.  Reads of one container in one state whose
    footprints differ by provable constants share one tape shaped like their
    bounding box.  Pushes and pops pair up exactly because the backward pass
    visits iterations in exact reverse order.
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
    Range,
    SDFG,
    State,
    Subset,
)
from repro.ir.nodes import ComputeNode
from repro.ir.usage import ProgramUses, collect_uses
from repro.symbolic import (Call, Const, Expr, Sym, affine_coefficients, diff,
                            provable_constant, substitute)
from repro.symbolic.affine import cancel_affine
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

    ``read`` is the memlet subset as the owner reads it (``None``: the whole
    container) and ``footprint`` the elements that read touches over the
    owner's whole map domain (:func:`read_footprint`).

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
    read: Optional[Subset]
    footprint: Subset
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
    """How the backward pass obtains one required value.  A tape records
    ``footprint`` (the bounding box of the reads it serves) each iteration."""

    kind: str  # 'direct' | 'snapshot' | 'tape' | 'recompute'
    container: str
    ptr: Optional[str] = None
    footprint: Optional[Subset] = None
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


def read_footprint(owner, memlet: Memlet, shape) -> Subset:
    """The elements ``memlet`` touches over ``owner``'s whole map domain.

    An index that is a map parameter plus an offset becomes that parameter's
    range, shifted; an index free of map parameters stays an index; any
    other index covers its whole dimension.  A library call's (or a branch
    condition's) memlet is its own footprint.  Every range of a footprint is
    unit-step: a strided slice covers its whole dimension."""
    whole = Subset.full(shape)
    if memlet.subset is None:
        return whole
    domain = dict(zip(owner.params, owner.ranges)) if isinstance(owner, MapCompute) else {}
    return Subset(_dim_footprint(dim, full, domain) for dim, full in zip(memlet.subset, whole))


def _dim_footprint(dim, full: Range, domain: dict[str, Range]):
    if not dim.free_symbols() & domain.keys():
        return dim if isinstance(dim, Index) or simplify(dim.step) == Const(1) else full
    if isinstance(dim, Index):
        coeffs = affine_coefficients(dim.value, list(domain))
        moving = [] if coeffs is None else [p for p in domain if coeffs[p] != Const(0)]
        if len(moving) == 1 and coeffs[moving[0]] == Const(1):
            rng = domain[moving[0]]
            if simplify(rng.step) == Const(1) and not rng.free_symbols() & domain.keys():
                offset = coeffs[""]
                return Range(simplify(rng.start + offset), simplify(rng.stop + offset))
    return full


def merge_footprints(a: Subset, b: Subset) -> Optional[Subset]:
    """The bounding box of two footprints of one container, or ``None``
    unless every bound of one differs from the other's by a provable
    constant (:func:`~repro.symbolic.affine.provable_constant`)."""
    dims = []
    for x, y in zip(a, b):
        if x == y:
            dims.append(x)
            continue
        (lo_x, hi_x), (lo_y, hi_y) = _bounds(x), _bounds(y)
        lo, hi = provable_constant(lo_x - lo_y), provable_constant(hi_x - hi_y)
        if lo is None or hi is None:
            return None
        dims.append(Range(lo_y if lo > 0 else lo_x, hi_x if hi > 0 else hi_y))
    return Subset(dims)


def _bounds(dim) -> tuple[Expr, Expr]:
    """First and one-past-last element of a footprint dimension."""
    if isinstance(dim, Index):
        return dim.value, simplify(dim.value + Const(1))
    return dim.start, dim.stop


def _shift(dim, start: Expr):
    """``dim`` in coordinates that begin at ``start``."""
    if start == Const(0):
        return dim
    if isinstance(dim, Index):
        return Index(cancel_affine(dim.value - start))
    return Range(cancel_affine(dim.start - start), cancel_affine(dim.stop - start), dim.step)


class StoragePlanner:
    """Plans and inserts forward-value storage, and hands the backward pass
    everything that brings a value back: the memlet a rule reads it through
    (:meth:`read_memlet`), the pops and recompute chains a reversed state
    runs first (:meth:`state_prologue`) and the restored branch conditions
    of a reversed conditional (:meth:`condition_values`).  No other module
    knows how a saved value is laid out."""

    def __init__(self, sdfg: SDFG, activity: ActivityAnalysis, strategy=None) -> None:
        self.sdfg = sdfg
        self.activity = activity
        self.strategy = strategy
        self.required: list[RequiredValue] = []
        self.candidates: dict[str, RematCandidate] = {}
        # (id(owner), data, role, read) -> Resolution: every read a rule may make
        self._resolutions: dict[tuple, Resolution] = {}
        # (id(state-or-conditional), data, footprint) -> Resolution: one save
        # per owner and tape footprint (``None`` for a snapshot)
        self._save_cache: dict[tuple, Resolution] = {}
        # state id -> the tapes it pushes and the values it recomputes, in
        # plan order: what its reversed state runs before the rules
        self._prologues: dict[int, list[Resolution]] = {}
        self._counter = 0

    # ------------------------------------------------------------------ plan --
    def plan(self) -> None:
        """Discover required values, consult the strategy, insert saves."""
        uses = collect_uses(self.sdfg)
        self._discover(uses)
        self._build_candidates(uses)
        recomputed = self._recomputed()
        boxes = self._tape_footprints()
        for req in self.required:
            resolution = (self._materialize_recompute(req) if req.key in recomputed
                          else self._materialize(req, boxes.get(req.key)))
            self._resolutions.setdefault((id(req.owner), req.data, req.role, req.read),
                                         resolution)

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
                for sym in self._condition_containers(element):
                    self._add_required(uses, Memlet(sym), "condition", element, None,
                                       region, path, pos)
            elif isinstance(element, State):
                for node in element.nodes:
                    if node.node_id in self.activity.active_nodes:
                        needed_inputs, needs_output = needed_value_connectors(
                            node, self.activity.carries_gradient)
                        for conn in sorted(needed_inputs):
                            self._add_required(uses, node.inputs[conn], "input", node,
                                               element, region, path, pos)
                        if needs_output:
                            self._add_required(uses, node.output, "output", node,
                                               element, region, path, pos + 1)
                    pos += 1

    def _add_required(self, uses: ProgramUses, memlet: Memlet, role: str, owner, state,
                      region, path, pos) -> None:
        """Append the value ``owner`` reads through ``memlet``.  It is
        *overwritten after* its read when the container is written at or
        after ``pos`` (a node's own write overwrites its inputs; branches
        count in program order, as liveness lays them out) or anywhere in a
        loop enclosing the read (the next iteration's write precedes this
        iteration's backward read)."""
        data = memlet.data
        desc = self.sdfg.arrays[data]
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
            read=memlet.subset,
            footprint=read_footprint(owner, memlet, desc.shape_exprs()),
            state=state,
            region=region,
            ctrl_path=path,
            pos=pos,
            overwritten_after=overwritten,
            transient=desc.transient,
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
    def _tape_footprints(self) -> dict[str, Subset]:
        """The footprint the tape of each taped read records, by key.
        Within one state (or one conditional's conditions), reads of one
        container whose footprints differ by provable constants share one
        tape: their bounding box (:func:`merge_footprints`)."""
        groups: dict[tuple[int, str], list[list[Subset]]] = {}
        cells: dict[str, list[Subset]] = {}
        for req in self.required:
            if not (req.overwritten_after and req.enclosing_loops):
                continue
            boxes = groups.setdefault(
                (id(req.owner if req.state is None else req.state), req.data), [])
            for cell in boxes:
                merged = merge_footprints(cell[0], req.footprint)
                if merged is not None:
                    cell[0] = merged
                    break
            else:
                cell = [req.footprint]
                boxes.append(cell)
            cells[req.key] = cell
        return {key: cell[0] for key, cell in cells.items()}

    def _materialize(self, req: RequiredValue, footprint: Optional[Subset]) -> Resolution:
        """Resolve a stored value.  Inside loops it is taped with the given
        ``footprint``; every read of ``req.data`` in one state (or one
        conditional's conditions) that shares the footprint, or that needs
        a snapshot, shares one save."""
        if not req.overwritten_after:
            return Resolution(kind="direct", container=req.data)
        cache_key = (id(req.owner if req.state is None else req.state), req.data, footprint)
        resolution = self._save_cache.get(cache_key)
        if resolution is None:
            if footprint is not None:
                resolution = self._materialize_tape(req, footprint)
            else:
                resolution = self._materialize_snapshot(req)
            self._save_cache[cache_key] = resolution
        return resolution

    def _materialize_recompute(self, req: RequiredValue) -> Resolution:
        candidate = self.candidates[req.key]
        rename = {}
        for data in candidate.chain_transients:
            desc = self.sdfg.arrays[data]
            new_desc = self.sdfg.add_transient(f"__rc_{data}", desc.shape, desc.dtype,
                                               zero_init=desc.zero_init)
            rename[data] = new_desc.name
        resolution = Resolution(
            kind="recompute",
            container=rename[candidate.data],
            recompute_chain=list(candidate.chain),
            recompute_rename=rename,
        )
        self._prologues.setdefault(id(req.state), []).append(resolution)
        return resolution

    def _materialize_snapshot(self, req: RequiredValue) -> Resolution:
        desc = self.sdfg.arrays[req.data]
        snap = self.sdfg.add_transient(f"__fwd_{req.data}", desc.shape, desc.dtype)
        copy_node = LibraryCall(
            "copy",
            inputs={"_in": Memlet(req.data, None)},
            output=Memlet(snap.name, None),
            label=f"save_{req.data}",
        )
        self._insert_save(req, [copy_node])
        return Resolution(kind="snapshot", container=snap.name)

    def _materialize_tape(self, req: RequiredValue, footprint: Subset) -> Resolution:
        """A stack of footprints: each iteration copies the elements
        ``footprint`` covers, ``tape[ptr, ...] = data[footprint]``, then
        ``ptr += 1``.  An index dimension of the footprint has no tape axis.
        A range keeps its length when that is a provable constant or free
        of loop iterators; otherwise the container's dimension bounds it.
        :meth:`read_memlet` is the one reader of this layout, and the push
        writes through it too."""
        desc = self.sdfg.arrays[req.data]
        ranges, extents = [], []
        for dim, size in zip(footprint, desc.shape):
            if isinstance(dim, Range):
                # The push map runs over each kept dimension from 0, as every map does.
                ranges.append(_shift(dim, dim.start))
                extents.append(self._tape_extent(ranges[-1].stop, size))
        capacity = conservative_capacity(req.enclosing_loops)
        tape = self.sdfg.add_transient(f"__tape_{req.data}", (capacity, *extents), desc.dtype)
        ptr = self.sdfg.add_transient(f"{tape.name}_ptr", (), np.int64, zero_init=True)
        resolution = Resolution(kind="tape", container=tape.name, ptr=ptr.name,
                                footprint=footprint)

        params = [f"__s{i}" for i in range(len(ranges))]
        names = iter(params)
        element = Subset(Index(cancel_affine(dim.start + Sym(next(names))))
                         if isinstance(dim, Range) else dim for dim in footprint)
        save_node = MapCompute(
            params=params,
            ranges=ranges,
            expr=Sym("__val"),
            inputs={"__val": Memlet(req.data, element)},
            output=self.read_memlet(resolution, Memlet(req.data, element)),
            label=f"tape_save_{req.data}",
        )
        bump = MapCompute(
            params=[], ranges=[], expr=Const(1), inputs={},
            output=Memlet(ptr.name, Subset(()), accumulate=True),
            label=f"tape_bump_{req.data}",
        )
        self._insert_save(req, [save_node, bump])
        # A taped condition is popped by ``condition_values`` instead.
        if req.state is not None:
            self._prologues.setdefault(id(req.state), []).append(resolution)
        return resolution

    def _tape_extent(self, length: Expr, size):
        """Tape axis length for a footprint range of ``length`` elements of
        a ``size`` dimension; a symbolic length is clamped at 0, as
        :func:`conservative_capacity` clamps trip counts (``A[1:-1]`` at
        ``N == 1``)."""
        constant = provable_constant(length)
        if constant is not None:
            return max(int(constant), 0)
        if length == size or not length.free_symbols() <= set(self.sdfg.symbols):
            return size
        return Call("maximum", (length, Const(0)))

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
                role: str = "input", read: Optional[Subset] = None) -> Resolution:
        """Resolution for ``data`` as ``owner`` reads it through the subset
        ``read`` (a compute node's memlet subset; a conditional, for
        ``role='condition'``, reads the whole container).  A read the
        planner did not plan raises: the live container may have been
        overwritten since."""
        resolution = self._resolutions.get((id(owner), data, role, read))
        if resolution is None:
            raise AutodiffError(
                f"No forward value of {data!r} ({role}) was planned for {owner!r}; "
                "needed_value_connectors must list every value a backward rule reads"
            )
        return resolution

    def read_memlet(self, resolution: Resolution, original: Memlet) -> Memlet:
        """The memlet reading ``original``'s elements of a required value:
        the same subset of a direct, snapshot or recompute container, or
        that subset of the tape's top entry, relative to the tape's
        footprint (its index dimensions dropped, every kept dimension
        shifted by the footprint's start)."""
        if resolution.kind != "tape":
            return Memlet(resolution.container, original.subset)
        subset = original.subset
        if subset is None:
            subset = Subset.full(self.sdfg.arrays[original.data].shape)
        dims = [Index(Sym(resolution.ptr))]
        for dim, box in zip(subset, resolution.footprint):
            if isinstance(box, Range):
                dims.append(_shift(dim, box.start))
        return Memlet(resolution.container, Subset(dims))

    def saved_counts(self) -> dict[str, int]:
        """How many planned reads each resolution kind serves."""
        counts = dict.fromkeys(("direct", "snapshot", "tape", "recompute"), 0)
        for resolution in self._resolutions.values():
            counts[resolution.kind] += 1
        return counts

    def state_prologue(self, state: State) -> list[ComputeNode]:
        """Nodes the reversed ``state`` runs before its rules: one pop per
        tape the state pushes, then the recompute chains of the values its
        rules read recomputed."""
        saves = self._prologues.get(id(state), [])
        pops = [_pop(resolution.ptr) for resolution in saves if resolution.kind == "tape"]
        return pops + [
            clone_node_with_rename(node, resolution.recompute_rename)
            for resolution in saves if resolution.kind == "recompute"
            for node in resolution.recompute_chain
        ]

    def condition_values(self, conditional: ConditionalRegion) -> tuple[list[ComputeNode],
                                                                         dict[str, Expr]]:
        """How the reversed ``conditional`` sees its forward branch
        conditions: nodes that pop each taped condition back into its
        container, and the substitution of each snapshotted one by its
        copy."""
        restores: list[ComputeNode] = []
        rename: dict[str, Expr] = {}
        for sym in self._condition_containers(conditional):
            resolution = self.resolve(conditional, sym, "condition")
            if resolution.kind == "tape":
                restores.append(_pop(resolution.ptr))
                restores.append(MapCompute(
                    params=[], ranges=[], expr=Sym("__v"),
                    inputs={"__v": self.read_memlet(resolution, Memlet(sym, Subset(())))},
                    output=Memlet(sym, Subset(())),
                    label=f"restore_{sym}",
                ))
            elif resolution.kind == "snapshot":
                rename[sym] = Sym(resolution.container)
        return restores, rename

    def _condition_containers(self, conditional: ConditionalRegion) -> list[str]:
        """Containers named by the conditional's branch conditions, each
        once, in branch order."""
        names: dict[str, None] = {}
        for condition, _ in conditional.branches:
            if condition is not None:
                names.update(dict.fromkeys(sorted(condition.free_symbols() & self.sdfg.arrays.keys())))
        return list(names)


def _pop(ptr: str) -> MapCompute:
    """``ptr -= 1``: the reversed iteration's pop of a tape."""
    return MapCompute(
        params=[], ranges=[], expr=Const(-1), inputs={},
        output=Memlet(ptr, Subset(()), accumulate=True),
        label=f"pop_{ptr}",
    )


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
