"""Global value numbering across the control-flow tree.

Two redundancies appear in lowered programs (and multiply after map fusion):

* **repeated memlet reads** — one compute node reading the same container
  element(s) through several connectors (``out * out`` lowers to two
  connectors over the same subset); :func:`dedupe_connectors` merges them;
* **duplicate compute nodes** — two element-wise maps computing the same
  expression over the same inputs into two different transients, in one
  state or — the common case, since the frontend gives every assignment its
  own state — in two (``a = x*y+1`` followed later by ``b = x*y+1``).
  :func:`global_value_numbering` matches them by a canonical key
  (:func:`_node_key`: alpha-renamed expression, input memlets, output
  shape/dtype) over the *global* program order produced by
  :func:`repro.ir.usage.collect_uses`, keeps the first, redirects every read of
  the second transient to the first and drops the duplicate node and its
  descriptor.

Scope and safety:

* Both definitions must sit in the **same control-flow region** — two states
  of the same (possibly nested) region body.  This makes the merge
  unconditionally sound: whenever the duplicate executes, the survivor has
  executed in the same iteration of every enclosing loop, and the
  no-intervening-write window check below guarantees equal inputs.
  Definitions in different conditional branches, or inside vs. outside a
  loop, are **not** merged — the survivor might not have executed (or might
  hold another iteration's value) on the duplicate's path.  Those remain
  pinned as unsupported.
* Between the two definitions there must be **no write** (at any nesting
  depth — conditional and loop-body writes count) to any input of the
  survivor or to its output; otherwise the later node takes over as the
  merge candidate.
* The duplicate's output must be an unprotected transient with no opaque
  (control-flow) reads, and both nodes must be the sole writers of their
  containers.

Every merged duplicate also removes one container from the program before
AD runs — the backward pass then stores and streams one value instead of
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.ir import MapCompute, SDFG
from repro.ir.nodes import ComputeNode
from repro.ir.usage import UseSites, collect_uses, is_identity_elementwise_write
from repro.symbolic import Sym, substitute


def dedupe_connectors(node: ComputeNode) -> int:
    """Merge input connectors of ``node`` that read the same data through the
    same subset (and accumulate flag).  The expression is rewritten to use the
    surviving connector; returns the number of connectors removed.

    Only :class:`MapCompute` connectors are merged — library-node connectors
    (``_a``/``_b``/``_in`` ...) are semantic slots the code generator looks up
    by name, even when two of them read the same data.
    """
    if not isinstance(node, MapCompute):
        return 0
    canonical: dict[tuple, str] = {}
    rename: dict[str, Sym] = {}
    new_inputs = {}
    for conn, memlet in node.inputs.items():
        key = (memlet.data, memlet.subset, memlet.accumulate)
        keep = canonical.get(key)
        if keep is None:
            canonical[key] = conn
            new_inputs[conn] = memlet
        else:
            rename[conn] = Sym(keep)
    if not rename:
        return 0
    node.inputs = new_inputs
    node.expr = substitute(node.expr, rename)
    return len(rename)


def _node_key(node: MapCompute, sdfg: SDFG) -> Optional[tuple]:
    """Canonical identity of an element-wise map: two nodes get equal keys iff
    they compute the same expression over the same input memlets onto outputs
    of the same shape/dtype.  Map parameters and connector names are
    alpha-renamed so spelling differences do not matter."""
    desc = sdfg.arrays.get(node.output.data)
    if desc is None or not is_identity_elementwise_write(node, desc):
        return None
    param_map = {p: Sym(f"__p{k}") for k, p in enumerate(node.params)}
    items = []
    for conn, memlet in node.inputs.items():
        subset = memlet.subset.substituted(param_map) if memlet.subset is not None else None
        items.append((memlet.data, repr(subset), memlet.accumulate, conn))
    items.sort()
    conn_map = {conn: Sym(f"__c{i}") for i, (_, _, _, conn) in enumerate(items)}
    expr = substitute(node.expr, {**param_map, **conn_map})
    ranges = tuple(rng.substituted(param_map) for rng in node.ranges)
    return (
        len(node.params),
        repr(ranges),
        tuple((data, sub, acc) for data, sub, acc, _ in items),
        repr(expr),
        desc.dtype.str,
        desc.zero_init,
    )


def _redirect_reads(sdfg: SDFG, old: str, new: str) -> None:
    for state in sdfg.all_states():
        for node in state.nodes:
            for conn, memlet in node.inputs.items():
                if memlet.data == old:
                    memlet.data = new



def _sole_writer(uses: dict, name: str, node: ComputeNode) -> bool:
    writes = uses.get(name, UseSites()).writes
    return len(writes) == 1 and writes[0].node is node


@dataclass
class GVNResult:
    """Counts from one :func:`global_value_numbering` run."""

    nodes_merged: int = 0
    connectors_merged: int = 0
    #: ``(removed container, surviving container)`` per merge, in order.
    merged: list = None

    def __post_init__(self) -> None:
        if self.merged is None:
            self.merged = []


def global_value_numbering(
    sdfg: SDFG, protect: Iterable[str] = ()
) -> GVNResult:
    """Merge duplicate element-wise maps across states (module docstring has
    the exact soundness conditions).  ``protect`` names containers that must
    survive; the return container always does."""
    protected = set(protect)
    return_name = getattr(sdfg, "return_name", None)
    if return_name:
        protected.add(return_name)

    result = GVNResult()
    for state in sdfg.all_states():
        for node in state.nodes:
            result.connectors_merged += dedupe_connectors(node)

    # One merge per sweep: every merge renames reads SDFG-wide, which can
    # make two previously distinct nodes identical, so re-analyze until a
    # fixed point — program sizes keep this cheap.
    merged = _merge_one(sdfg, protected)
    while merged is not None:
        result.nodes_merged += 1
        result.merged.append(merged)
        merged = _merge_one(sdfg, protected)
    return result


def _merge_one(sdfg: SDFG, protected: set):
    uses = collect_uses(sdfg)

    def window_written_between(window: set, lo: int, hi: int) -> bool:
        return any(
            lo < site.pos < hi for name in window for site in uses[name].writes
        )

    seen: dict[tuple, object] = {}
    for rec in uses.nodes:
        node = rec.node
        if not isinstance(node, MapCompute):
            continue
        key = _node_key(node, sdfg)
        if key is None:
            continue
        scoped = (key, id(rec.region))
        earlier = seen.get(scoped)
        if earlier is None:
            seen[scoped] = rec
            continue
        first = earlier.node
        window = {m.data for m in first.inputs.values()} | {first.output.data}
        if window_written_between(window, earlier.pos, rec.pos):
            # The duplicate no longer observes the survivor's input values;
            # it becomes the new merge candidate for later lookalikes.
            seen[scoped] = rec
            continue
        dup_name = node.output.data
        keep_name = first.output.data
        if dup_name == keep_name:
            continue
        dup_desc = sdfg.arrays.get(dup_name)
        dup_sites = uses.get(dup_name)
        if (
            dup_desc is None
            or not dup_desc.transient
            or dup_name in protected
            or (dup_sites is not None and dup_sites.opaque_reads)
            or not _sole_writer(uses, dup_name, node)
            or not _sole_writer(uses, keep_name, first)
        ):
            continue
        assert rec.state.nodes[rec.node_index] is node
        rec.state.nodes.pop(rec.node_index)
        _redirect_reads(sdfg, dup_name, keep_name)
        del sdfg.arrays[dup_name]
        return (dup_name, keep_name)
    return None


__all__ = [
    "GVNResult",
    "dedupe_connectors",
    "global_value_numbering",
]
