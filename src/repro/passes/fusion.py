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

Every read must use one common subset.  Reads at several distinct offsets
(stencil neighbourhoods, ``u[2:] - u[:-2]``) never fuse: inlining would
evaluate the producer once per offset.

With ``decline_recompute=True`` (an ``"O3"`` gradient compile on the
``numpy`` backend) one more candidate is declined: the producer does
arithmetic and a partial derivative of the consumer reads the transient
(the consumer is *nonlinear* in it, e.g. ``maximum(pre, 0)`` needs ``pre``
to gate the gradient).  Fused away, that value would be recomputed
element-wise, one vectorised NumPy statement per operation, inside every
backward map that reads it.

The rewrite composes index functions: producer parameter ``k`` is replaced
by the consumer-side index expression of the read, so the producer's input
memlets become consumer-space memlets and the fused node stays vectorisable
(affine compositions of affine index maps).  Fusion runs before AD and
substitutes mathematically identical expressions, so gradients remain exact.

Repeated subexpressions created by inlining (a connector used several times
in the consumer expression) are handled downstream: connector-level CSE
merges duplicate memlets here, and code generation hoists repeated
subexpressions into temporaries (:mod:`repro.codegen.subexpr`).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.ir import MapCompute, Memlet, SDFG, State
from repro.ir.control_flow import ControlFlowRegion
from repro.ir.subsets import Index
from repro.ir.usage import UseSite, UseSites, collect_uses, is_identity_elementwise_write
from repro.passes.flops import expr_op_count
from repro.passes.gvn import dedupe_connectors
from repro.symbolic import Expr, Sym, diff, substitute
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


def _consumer_connectors(sites: UseSites) -> Optional[tuple]:
    """If all reads are by one node through connectored memlets at one
    common subset, return ``(consumer_site, connectors)``; else ``None``."""
    if sites.sole_reader() is None:
        return None
    if any(read.conn is None for read in sites.reads):
        return None  # accumulate-read of the transient itself
    if len({read.memlet.subset for read in sites.reads}) != 1:
        return None  # several offsets: fusing would recompute per offset
    return sites.reads[0], [read.conn for read in sites.reads]


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


def _derivative_reads(sdfg: SDFG, consumer: MapCompute, conns: list[str]) -> bool:
    """True if a partial derivative of the consumer expression by one of its
    float inputs references a connector in ``conns``: the backward pass
    would read the transient's value (nonlinear consumption)."""
    for conn, memlet in consumer.inputs.items():
        desc = sdfg.arrays.get(memlet.data)
        if desc is None or not np.issubdtype(desc.dtype, np.floating):
            continue
        if set(conns) & simplify(diff(consumer.expr, conn)).free_symbols():
            return True
    return False


def _inline(sdfg: SDFG, producer: MapCompute, consumer: MapCompute,
            conns: list[str]) -> None:
    """Substitute the producer's expression into the consumer for every
    connector in ``conns`` (all reading the producer's output with the same
    subset), merging the producer's re-indexed input memlets."""
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
    decline_recompute: bool = False,
    declined: Optional[set[str]] = None,
) -> int:
    """Fuse producer/consumer element-wise map pairs until a fixed point.

    ``protect`` names containers that must stay materialised (user-selected
    gradient targets); the return container is always protected.
    ``decline_recompute`` keeps a transient whose value the backward pass
    would have to recompute (see module docstring); the names it keeps are
    added to ``declined`` when given.  Returns the number of producers
    inlined (equivalently, transient arrays eliminated).
    """
    protected = set(protect)
    return_name = getattr(sdfg, "return_name", None)
    if return_name:
        protected.add(return_name)

    fused = 0
    while True:
        kept: set[str] = set()
        if not _fuse_one(sdfg, protected, decline_recompute, kept):
            break
        fused += 1
    if declined is not None:
        declined |= kept
    return fused


def _fuse_one(sdfg: SDFG, protected: set[str], decline_recompute: bool,
              declined: set[str]) -> bool:
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
        found = _consumer_connectors(sites)
        if found is None:
            continue
        consumer_site, conns = found
        consumer = consumer_site.node
        if consumer is producer or not isinstance(consumer, MapCompute):
            continue
        if consumer_site.region is not producer_site.region:
            continue
        if _consumer_read_indices(consumer.inputs[conns[0]], len(producer.params)) is None:
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
        if (
            decline_recompute
            and expr_op_count(producer.expr) > 0
            and _derivative_reads(sdfg, consumer, conns)
        ):
            declined.add(name)
            continue
        _inline(sdfg, producer, consumer, conns)
        dedupe_connectors(consumer)
        producer_site.state.nodes.remove(producer)
        del sdfg.arrays[name]
        return True
    return False
