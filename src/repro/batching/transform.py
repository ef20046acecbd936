"""The SDFG-level batching transform behind :func:`repro.vmap`.

``batch_sdfg`` rewrites a forward SDFG so that one compiled kernel processes
a whole *batch* of independent samples per call, JAX-``vmap`` style but as an
IR transformation:

* every batched :class:`~repro.ir.arrays.ArrayDesc` gains a leading symbolic
  batch dimension ``B`` (:meth:`ArrayDesc.with_leading_dim`);
* every :class:`~repro.ir.nodes.MapCompute` writing batched data gains an
  outer batch iterator, and its memlets into batched containers are
  rank-extended by that iterator (:meth:`Memlet.with_leading`) — unbatched
  operands are left alone and broadcast;
* every :class:`~repro.ir.nodes.LibraryCall` is rewritten by a per-kind
  batching rule (:mod:`repro.batching.rules`); kinds without a rule raise
  :class:`~repro.util.errors.UnsupportedFeatureError` with a clear message.

Which containers are batched is decided by forward propagation: the inputs
selected by ``in_axes`` seed the set, and any container written by a node
that reads batched data becomes batched itself, to a fixed point.  Arguments
with ``in_axes=None`` must stay unbatched — a program that writes one is
rejected (the write would race across samples).

The result is an ordinary SDFG: the optimization tiers (``O0``–``O3``),
reverse-mode AD and the compilation cache all apply unchanged,
and because ``B`` is symbolic (inferred from argument shapes at call time,
like every other size symbol) one compilation serves **any** batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.ir import LibraryCall, MapCompute, SDFG
from repro.ir.subsets import Index, Range
from repro.symbolic import Const, Sym
from repro.util.errors import UnsupportedFeatureError

#: Default name of the symbolic batch dimension.  A fresh name is chosen when
#: the program already uses it.
BATCH_SYMBOL = "B"

#: Default name of the per-map batch iterator.
BATCH_PARAM = "__b"

InAxes = Union[int, None, Sequence, Mapping[str, Optional[int]]]


@dataclass
class BatchInfo:
    """What :func:`batch_sdfg` did to one SDFG.

    Attributes
    ----------
    sdfg:
        The rewritten (batched) SDFG — a new object; the input is untouched.
    batch_symbol:
        Name of the leading batch-size symbol (``"B"`` unless taken).
    in_axes:
        The resolved per-argument axis map (``0`` = batched, ``None`` =
        broadcast), one entry per non-transient container.
    batched:
        Every container (arguments *and* transients) that gained the leading
        batch dimension.
    """

    sdfg: SDFG
    batch_symbol: str
    in_axes: dict[str, Optional[int]]
    batched: set[str] = field(default_factory=set)


def resolve_in_axes(sdfg: SDFG, in_axes: InAxes) -> dict[str, Optional[int]]:
    """Normalise an ``in_axes`` spec to ``{argument name: 0 | None}``.

    Accepted forms mirror ``jax.vmap``, restricted to leading-axis batching:

    * ``0`` — batch every non-transient container argument;
    * a mapping ``{name: 0 | None}`` — unnamed arguments default to ``None``
      (broadcast);
    * a sequence aligned with the SDFG's array-argument order.

    Axes other than ``0``/``None`` are rejected: the transform only prepends
    a leading dimension (move your batch axis to the front before calling).
    """
    names = sdfg.argument_arrays
    if isinstance(in_axes, int):
        resolved: dict[str, Optional[int]] = {name: in_axes for name in names}
    elif in_axes is None:
        raise UnsupportedFeatureError(
            "vmap with in_axes=None would batch nothing; pass 0, a mapping or a sequence"
        )
    elif isinstance(in_axes, Mapping):
        unknown = sorted(set(in_axes) - set(names))
        if unknown:
            raise UnsupportedFeatureError(
                f"in_axes names unknown arguments {unknown}; arguments are {names}"
            )
        resolved = {name: in_axes.get(name) for name in names}
    else:
        axes = list(in_axes)
        if len(axes) != len(names):
            raise UnsupportedFeatureError(
                f"in_axes has {len(axes)} entries for {len(names)} array arguments {names}"
            )
        resolved = dict(zip(names, axes))
    for name, axis in resolved.items():
        if axis not in (0, None):
            raise UnsupportedFeatureError(
                f"in_axes={axis!r} for {name!r}: only leading-axis batching "
                "(0) or broadcasting (None) is supported"
            )
    if not any(axis == 0 for axis in resolved.values()):
        raise UnsupportedFeatureError(
            "vmap needs at least one batched input (every in_axes entry is None)"
        )
    return resolved


def _propagate_batched(sdfg: SDFG, seeds: set[str]) -> set[str]:
    """Forward closure: a container written by a node that reads (or
    accumulates over) batched data is batched too."""
    batched = set(seeds)
    nodes = [node for state in sdfg.all_states() for node in state]
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node.output.data in batched:
                continue
            if {m.data for m in node.inputs.values()} & batched:
                batched.add(node.output.data)
                changed = True
    return batched


def _check_batchable(sdfg: SDFG, batched: set[str],
                     in_axes: dict[str, Optional[int]]) -> None:
    """Reject programs the transform cannot batch soundly."""
    for name in sorted(batched):
        desc = sdfg.arrays[name]
        if not desc.transient and in_axes.get(name) is None:
            raise UnsupportedFeatureError(
                f"Argument {name!r} has in_axes=None but is written with "
                "batch-dependent data; every sample of the batch would race "
                "on it.  Batch it (in_axes=0) instead."
            )
    # Control flow must be batch-invariant: a condition or loop bound that
    # reads a batched value would have to diverge per sample.
    for conditional in sdfg.all_conditionals():
        for condition, _ in conditional.branches:
            if condition is None:
                continue
            used = sorted(condition.free_symbols() & batched)
            if used:
                raise UnsupportedFeatureError(
                    f"Branch condition depends on batched data {used}; "
                    "per-sample control flow is outside the supported batching class"
                )
    for loop in sdfg.all_loops():
        for bound in (loop.start, loop.stop, loop.step):
            used = sorted(bound.free_symbols() & batched)
            if used:
                raise UnsupportedFeatureError(
                    f"Loop bound of {loop.itervar!r} depends on batched data {used}; "
                    "per-sample trip counts are outside the supported batching class"
                )


def _fresh_batch_names(sdfg: SDFG, override: Optional[str] = None) -> tuple[str, str]:
    """(batch symbol, batch map parameter), both collision-free.

    An explicit ``override`` for the batch symbol must not collide with any
    existing name — silently aliasing a program dimension would constrain
    the batch size to equal it."""
    taken = set(sdfg.arrays) | set(sdfg.symbols)
    for loop in sdfg.all_loops():
        taken.add(loop.itervar)
    for state in sdfg.all_states():
        for node in state:
            taken.update(node.inputs)
            if isinstance(node, MapCompute):
                taken.update(node.params)
    if override is not None:
        if override in taken:
            raise UnsupportedFeatureError(
                f"batch_symbol {override!r} collides with an existing symbol, "
                "container, iterator or connector of the program"
            )
        taken.add(override)

    def fresh(preferred: str) -> str:
        if preferred not in taken:
            taken.add(preferred)
            return preferred
        counter = 0
        while f"{preferred}_{counter}" in taken:
            counter += 1
        name = f"{preferred}_{counter}"
        taken.add(name)
        return name

    return fresh(BATCH_SYMBOL), fresh(BATCH_PARAM)


def _batch_map(node: MapCompute, batched: set[str], old_shapes: dict,
               batch_param: str, batch_size: Sym) -> None:
    """Give ``node`` an outer batch iterator and rank-extend its memlets."""
    index = Index(Sym(batch_param))
    for conn, memlet in list(node.inputs.items()):
        if memlet.data in batched:
            node.inputs[conn] = memlet.with_leading(
                index, full_shape=old_shapes[memlet.data]
            )
    node.output = node.output.with_leading(
        index, full_shape=old_shapes[node.output.data]
    )
    node.params = (batch_param,) + node.params
    node.ranges = (Range(Const(0), batch_size, Const(1)),) + node.ranges


def batch_sdfg(
    sdfg: SDFG,
    in_axes: InAxes = 0,
    batch_symbol: Optional[str] = None,
) -> BatchInfo:
    """Rank-extend ``sdfg`` by a leading symbolic batch dimension.

    Returns a :class:`BatchInfo` whose ``sdfg`` computes, for every sample
    ``b`` of the batch, exactly what the input SDFG computes for that
    sample's slice of the batched arguments.  The input SDFG is not mutated.

    Raises :class:`~repro.util.errors.UnsupportedFeatureError` for programs
    outside the batchable class: per-sample control flow, writes into
    ``in_axes=None`` arguments, or library calls without a batching rule
    (see :mod:`repro.batching.rules`).
    """
    from repro.batching.rules import apply_library_rule

    axes = resolve_in_axes(sdfg, in_axes)
    result = sdfg.copy()
    result.name = f"{sdfg.name}_vmap"

    seeds = {name for name, axis in axes.items() if axis == 0}
    batched = _propagate_batched(result, seeds)
    _check_batchable(result, batched, axes)

    symbol, batch_param = _fresh_batch_names(result, override=batch_symbol)
    if batch_symbol is not None:
        symbol = batch_symbol
    result.add_symbol(symbol)
    batch_size = Sym(symbol)

    # Rank-extend the descriptors, remembering pre-extension shapes (memlet
    # rewriting needs them to spell out whole-container subsets).
    old_shapes = {name: desc.shape for name, desc in result.arrays.items()}
    for name in batched:
        result.arrays[name] = result.arrays[name].with_leading_dim(batch_size)

    for state in result.all_states():
        for node in state:
            touched = node.output.data in batched or (
                {m.data for m in node.inputs.values()} & batched
            )
            if not touched:
                continue
            if isinstance(node, MapCompute):
                _batch_map(node, batched, old_shapes, batch_param, batch_size)
            elif isinstance(node, LibraryCall):
                apply_library_rule(
                    node, batched, old_shapes, batch_size=batch_size
                )
            else:  # pragma: no cover - no other node kinds exist
                raise UnsupportedFeatureError(f"Cannot batch node {node!r}")

    result.validate()
    return BatchInfo(sdfg=result, batch_symbol=symbol, in_axes=axes, batched=batched)
