"""Map fusion: inline element-wise producers into their sole consumer.

The frontend materialises every assignment statement into its own transient
and its own element-wise map, so a chain like ::

    u = x * 2.0 + 1.0
    v = u * y
    return np.sum(v)

allocates and traverses a full-size array for ``u`` (and ``v``) even though
each is consumed exactly once.  :func:`fuse_elementwise_maps` rewrites the
consumer's expression with the producer's expression substituted in — the
intermediate array, its allocation, its write and its read all disappear, and
codegen emits one fused NumPy statement.

A producer/consumer pair ``(P, C)`` over transient ``T`` is fused when

* ``P`` is an *identity element-wise full write* of ``T`` (map parameter
  ``k`` writes element ``k``, every element written once, no accumulation —
  see :func:`repro.ir.usage.is_identity_elementwise_write`), and ``P`` is
  the only writer of ``T`` anywhere in the SDFG;
* every read of ``T`` anywhere in the SDFG is by the single compute node
  ``C`` (a :class:`MapCompute`), through per-element subsets;
* ``C`` executes after ``P`` in the same control-flow region, with only
  plain states in between, and no node between them writes ``T`` or any
  container ``P`` reads (the producer's operands still hold the values they
  had at ``P``);
* ``C`` does not write a container ``P`` reads — the fused body would
  otherwise interleave ``P``'s loads with ``C``'s stores.

Reads at a *single* common subset always qualify (the ``"O2"`` tier).  Reads
at **several distinct offsets** (stencil neighbourhoods, ``u[2:] - u[:-2]``)
additionally require a cost model: inlining duplicates the producer's tree
once per offset, which is only worth it when code generation can evaluate
the duplicates once over their union window (offset-shifted hoisting,
:mod:`repro.codegen.stencil`) or when the modelled recompute cost stays
below the saved memory traffic.  Pass a
:class:`~repro.passes.cost.CostModel` to enable this (the ``"O3"`` tier);
without one the O2 behaviour — skip distinct offsets — is preserved.

With ``gradient_aware=True`` (and a cost model) fusion also prices the
backward pass: a transient whose value the AD rules would read (the
consumer is *nonlinear* in it, e.g. ``maximum(pre, 0)`` needs ``pre`` to
gate the gradient) must be recomputed element-wise inside every gradient
map once it is fused away.  Such candidates are declined when the modelled
backward recomputation outweighs the forward traffic saved — closing the
"fused forward, slower gradient" regression recorded for O2.

The rewrite composes index functions: producer parameter ``k`` is replaced
by the consumer-side index expression of the read, so the producer's input
memlets become consumer-space memlets and the fused node stays vectorisable
(affine compositions of affine index maps).  Fusion runs before AD and
substitutes mathematically identical expressions, so gradients remain exact.

Repeated subexpressions created by inlining (a connector used several times
in the consumer expression) are handled downstream: connector-level CSE
merges duplicate memlets here, and code generation hoists repeated
subexpressions into temporaries (:mod:`repro.codegen.subexpr`) and
offset-shifted producer copies into union-window temporaries
(:mod:`repro.codegen.stencil`).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.ir import MapCompute, Memlet, SDFG, State
from repro.ir.control_flow import ControlFlowRegion
from repro.ir.subsets import Index
from repro.ir.usage import UseSite, UseSites, collect_uses, is_identity_elementwise_write
from repro.passes.gvn import dedupe_connectors
from repro.symbolic import (
    Const,
    Expr,
    Sym,
    diff,
    substitute,
)
from repro.symbolic.affine import unit_shift, window_fits
from repro.symbolic.simplify import simplify


def _fresh_connector(taken: set[str]) -> str:
    """Lowest-numbered ``__fusedN`` not in ``taken`` — deterministic per
    node, so compiling the same program twice names connectors identically."""
    counter = 0
    while True:
        name = f"__fused{counter}"
        counter += 1
        if name not in taken:
            return name


def _consumer_read_indices(
    memlet: Memlet, nparams: int
) -> Optional[tuple[Expr, ...]]:
    """The per-dimension index expressions of a consumer-side read of the
    transient, or ``None`` if the read is not a per-element access matching
    the producer's dimensionality."""
    dims = tuple(memlet.subset) if memlet.subset is not None else ()
    if len(dims) != nparams:
        return None
    if not all(isinstance(dim, Index) for dim in dims):
        return None
    return tuple(dim.value for dim in dims)


def _consumer_groups(sites: UseSites) -> Optional[tuple]:
    """If all reads are by one node through connectored memlets, return
    ``(consumer_site, groups)`` with the connectors grouped by read subset
    (one group per distinct offset); else ``None``."""
    if sites.sole_reader() is None:
        return None
    if any(read.conn is None for read in sites.reads):
        return None  # accumulate-read of the transient itself
    groups: dict = {}
    for read in sites.reads:
        groups.setdefault(read.memlet.subset, []).append(read.conn)
    return sites.reads[0], list(groups.items())


def _clear_window(
    region: ControlFlowRegion,
    producer: UseSite,
    consumer: UseSite,
    blocked: set[str],
) -> bool:
    """True if no node strictly between producer and consumer (in program
    order within ``region``) writes a container in ``blocked``, and the
    window contains no nested control flow (whose bodies could execute
    between them an unknown number of times)."""
    lo, hi = producer.element_index, consumer.element_index
    if lo > hi or (lo == hi and producer.node_index >= consumer.node_index):
        return False
    for element in region.elements[lo : hi + 1]:
        if not isinstance(element, State):
            return False
    for element_index in range(lo, hi + 1):
        state = region.elements[element_index]
        start = producer.node_index + 1 if element_index == lo else 0
        stop = consumer.node_index if element_index == hi else len(state.nodes)
        for node in state.nodes[start:stop]:
            if node.output.data in blocked:
                return False
    return True


def _offset_info(
    producer: MapCompute,
    consumer: MapCompute,
    group_indices: list[tuple[list[str], tuple[Expr, ...]]],
) -> tuple[list[tuple[int, ...]], bool, Optional[list[Expr]]]:
    """Classify a multi-offset read pattern.

    Returns ``(offsets, hoistable, dim_lengths)``: one integer offset tuple
    per group; whether code generation will evaluate the inlined producer
    once over the union window (offset-shifted hoisting); and, for pure
    shift patterns, the consumer-side iteration length per producer
    dimension (for the cost model's window-overhang estimate).

    ``hoistable`` mirrors the conditions of :mod:`repro.codegen.stencil`
    *and* the vectorizer constraints its bindings must satisfy: pure
    ``param + const`` reads with a distinct consumer parameter per dimension
    in increasing parameter order, normalised ranges, non-negative offsets,
    and a union window provably inside the producer's domain.  Non-shift
    patterns yield zero offset tuples (their count still prices the
    per-offset recompute) and ``hoistable=False``.
    """
    ndims = len(producer.params)
    consumer_ranges = dict(zip(consumer.params, consumer.ranges))
    offsets: list[tuple[int, ...]] = []
    dim_params: list[Optional[str]] = [None] * ndims
    pure_shift = True
    for _, indices in group_indices:
        shifts = []
        for dim, expr in enumerate(indices):
            # Shared classifier with codegen's stencil hoisting
            # (repro/symbolic/affine.py), so pricing and emission agree on
            # what counts as a pure shift.
            shift = unit_shift(expr, consumer.params)
            if shift is None or (dim_params[dim] not in (None, shift[0])):
                pure_shift = False
                break
            param, constant = shift
            dim_params[dim] = param
            shifts.append(constant)
        if not pure_shift:
            break
        offsets.append(tuple(shifts))
    if not pure_shift:
        return [(0,) * ndims for _ in group_indices], False, None

    dim_lengths = [
        consumer_ranges[dim_params[dim]].length_expr() for dim in range(ndims)
    ]
    hoistable = len(set(dim_params)) == ndims  # one distinct param per dim
    if hoistable:
        # The hoisted binding's slices need the parameters in increasing
        # axis order (vectorizer constraint, repro/codegen/vectorize.py).
        order = [consumer.params.index(p) for p in dim_params]
        hoistable = order == sorted(order)
    for dim in range(ndims):
        if not hoistable:
            break
        rng = consumer_ranges[dim_params[dim]]
        if simplify(rng.start) != Const(0) or simplify(rng.step) != Const(1):
            hoistable = False
            break
        lo = min(group[dim] for group in offsets)
        hi = max(group[dim] for group in offsets)
        if lo < 0:
            # A negative offset with a zero-based consumer range means the
            # original program read T[-1] (NumPy wrap semantics the composed
            # indices would not preserve); the frontend never lowers to this
            # shape, so stay conservative rather than model it.
            hoistable = False
            break
        # Shared bounds proof with codegen's union-window hoisting
        # (repro/symbolic/affine.py), so a candidate priced hoistable is
        # exactly one codegen will hoist.
        if not window_fits(producer.ranges[dim].stop, rng.stop, hi):
            hoistable = False
            break
    return offsets, hoistable, dim_lengths


def _backward_value_uses(sdfg: SDFG, consumer: MapCompute,
                         transient_conns: Iterable[str]) -> int:
    """Number of backward-pass maps that would read the transient's stored
    value: one per float input connector whose partial derivative of the
    consumer expression references the transient (nonlinear consumption)."""
    conns = set(transient_conns)
    uses = 0
    for conn, memlet in consumer.inputs.items():
        desc = sdfg.arrays.get(memlet.data)
        if desc is None or not np.issubdtype(desc.dtype, np.floating):
            continue
        derivative = simplify(diff(consumer.expr, conn))
        if derivative == Const(0):
            continue
        if conns & derivative.free_symbols():
            uses += 1
    return uses


def _inline(sdfg: SDFG, producer: MapCompute, consumer: MapCompute,
            conns: list[str]) -> None:
    """Substitute the producer's expression into the consumer for every
    connector in ``conns`` (all reading the producer's output with the same
    subset), merging the producer's re-indexed input memlets.

    Connector-level deduplication is the *caller's* job, after every offset
    group has been inlined: deduping here would delete a later group's
    duplicate connectors out from under it.
    """
    read_memlet = consumer.inputs[conns[0]]
    indices = _consumer_read_indices(read_memlet, len(producer.params))
    param_map = dict(zip(producer.params, indices))

    taken = set(consumer.inputs) | set(consumer.params) | set(sdfg.arrays)
    conn_map: dict[str, Expr] = {}
    for pconn, pmemlet in producer.inputs.items():
        fresh = _fresh_connector(taken)
        taken.add(fresh)
        subset = (
            pmemlet.subset.substituted(param_map)
            if pmemlet.subset is not None
            else None
        )
        consumer.inputs[fresh] = Memlet(pmemlet.data, subset, pmemlet.accumulate)
        conn_map[pconn] = Sym(fresh)

    inlined = substitute(producer.expr, {**param_map, **conn_map})
    rename = {conn: inlined for conn in conns}
    for conn in conns:
        del consumer.inputs[conn]
    consumer.expr = substitute(consumer.expr, rename)


def fuse_elementwise_maps(
    sdfg: SDFG,
    protect: Iterable[str] = (),
    cost_model=None,
    gradient_aware: bool = False,
) -> int:
    """Fuse producer/consumer element-wise map pairs until a fixed point.

    ``protect`` names containers that must stay materialised (user-selected
    gradient targets); the return container is always protected.
    ``cost_model`` (a :class:`~repro.passes.cost.CostModel`) enables
    multi-offset stencil fusion and prices every candidate; ``gradient_aware``
    additionally charges backward-pass recomputation for values the AD rules
    would read (see module docstring).  Returns the number of producers
    inlined (equivalently, transient arrays eliminated).
    """
    protected = set(protect)
    return_name = getattr(sdfg, "return_name", None)
    if return_name:
        protected.add(return_name)

    fused = 0
    while _fuse_one(sdfg, protected, cost_model, gradient_aware):
        fused += 1
    return fused


def _fuse_one(sdfg: SDFG, protected: set[str], cost_model,
              gradient_aware: bool) -> bool:
    uses = collect_uses(sdfg)
    for name, desc in sdfg.arrays.items():
        if not desc.transient or name in protected:
            continue
        sites = uses.get(name)
        if sites is None or sites.opaque_reads or len(sites.writes) != 1:
            continue
        producer_site = sites.writes[0]
        producer = producer_site.node
        if not is_identity_elementwise_write(producer, desc):
            continue
        grouped = _consumer_groups(sites)
        if grouped is None:
            continue
        consumer_site, groups = grouped
        consumer = consumer_site.node
        if consumer is producer or not isinstance(consumer, MapCompute):
            continue
        if consumer_site.region is not producer_site.region:
            continue
        if len(groups) > 1 and cost_model is None:
            # O2 behaviour: reads at several distinct offsets would duplicate
            # the producer's work; only the cost-model tier may decide that.
            continue
        group_indices = []
        for subset, conns in groups:
            indices = _consumer_read_indices(
                consumer.inputs[conns[0]], len(producer.params)
            )
            if indices is None:
                group_indices = None
                break
            group_indices.append((conns, indices))
        if group_indices is None:
            continue
        producer_reads = {m.data for m in producer.inputs.values()}
        if consumer.output.data == name or consumer.output.data in producer_reads:
            continue
        if name in producer_reads:
            continue
        if not _clear_window(
            consumer_site.region, producer_site, consumer_site,
            producer_reads | {name},
        ):
            continue
        if cost_model is not None:
            offsets, hoistable, dim_lengths = _offset_info(
                producer, consumer, group_indices
            )
            backward_uses = 0
            if gradient_aware:
                backward_uses = _backward_value_uses(
                    sdfg, consumer, [c for conns, _ in group_indices for c in conns]
                )
            decision = cost_model.price_fusion(
                producer, consumer, name,
                offsets=offsets, hoistable=hoistable,
                backward_value_uses=backward_uses,
                dim_lengths=dim_lengths,
                gradient_mode=gradient_aware,
            )
            if not decision.fuse:
                continue
        for conns, _ in group_indices:
            _inline(sdfg, producer, consumer, conns)
        dedupe_connectors(consumer)
        producer_site.state.nodes.remove(producer)
        del sdfg.arrays[name]
        return True
    return False
