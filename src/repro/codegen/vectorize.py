"""Vectorisation of MapCompute nodes.

A map whose memlet index functions are affine in the map parameters, touch at
most one parameter per dimension and use the parameters in increasing axis
order can be emitted as a single NumPy slice expression.  Anything else falls
back to explicit Python loops (handled by the emitter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codegen.subexpr import hoist_common_subexpressions
from repro.ir.nodes import MapCompute
from repro.ir.subsets import Range, Subset
from repro.symbolic import Const, Expr, to_python
from repro.symbolic.affine import affine_coefficients
from repro.symbolic.simplify import simplify


@dataclass
class SlicedRef:
    """A vectorised reference to a memlet: ``data[index_src]`` plus the map
    parameters that appear in it, in axis order."""

    source: str
    params_in_order: list[str]


def _render(expr: Expr) -> str:
    return to_python(expr)


def slice_for_dimension(
    index_expr: Expr, params: tuple[str, ...], ranges: tuple[Range, ...]
) -> Optional[tuple[Optional[str], str]]:
    """Convert one per-element index expression into slice source.

    Returns ``(param_or_None, source)`` where ``source`` is either a scalar
    index (param is None) or a slice ``lo:hi:step`` covering the whole range of
    the single parameter involved.  Returns ``None`` if the dimension cannot be
    vectorised (multiple parameters, non-affine, negative stride).
    """
    coeffs = affine_coefficients(index_expr, params)
    if coeffs is None:
        return None
    used = [p for p in params if simplify(coeffs[p]) != Const(0)]
    if not used:
        return (None, _render(simplify(index_expr)))
    if len(used) > 1:
        return None
    param = used[0]
    coeff = simplify(coeffs[param])
    if not isinstance(coeff, Const):
        return None
    step_factor = coeff.value
    if not float(step_factor).is_integer() or step_factor <= 0:
        return None
    step_factor = int(step_factor)
    offset = simplify(coeffs[""])
    rng = ranges[params.index(param)]
    # The map parameter iterates range(start, stop, step); the accessed indices
    # are offset + coeff * param.
    if simplify(rng.step) != Const(1) or simplify(rng.start) != Const(0):
        # Normalised maps always start at 0 with unit step (frontend + AD
        # guarantee this); anything else falls back to loops.
        return None
    lo = offset
    hi = simplify(offset + coeff * rng.stop)
    lo_src = _render(lo)
    hi_src = _render(hi)
    if step_factor == 1:
        return (param, f"{lo_src}:{hi_src}")
    return (param, f"{lo_src}:{hi_src}:{step_factor}")


def vectorize_memlet(
    data: str, subset: Optional[Subset], node: MapCompute
) -> Optional[SlicedRef]:
    """Vectorise one memlet of a map.  ``None`` if not possible."""
    if subset is None:
        # Whole-container access inside a map is only meaningful for scalars.
        return SlicedRef(source=data, params_in_order=[])
    pieces: list[str] = []
    params_in_order: list[str] = []
    for dim in subset:
        if isinstance(dim, Range):
            # Range dims inside a per-element subset should not appear (the
            # frontend always emits per-element Index subsets inside maps).
            return None
        result = slice_for_dimension(dim.value, node.params, node.ranges)
        if result is None:
            return None
        param, source = result
        if param is not None:
            if param in params_in_order:
                return None  # same parameter twice (e.g. A[i, i]): fall back
            params_in_order.append(param)
        pieces.append(source)
    # Parameters must appear in increasing axis order for broadcasting to work.
    order = [node.params.index(p) for p in params_in_order]
    if order != sorted(order):
        return None
    if pieces:
        return SlicedRef(source=f"{data}[{', '.join(pieces)}]", params_in_order=params_in_order)
    return SlicedRef(source=data, params_in_order=params_in_order)


def broadcast_adjustment(ref: SlicedRef, output_params: list[str]) -> str:
    """Append a ``[None, :, ...]`` adjustment so the sliced input broadcasts
    against the output slice laid out over ``output_params`` (in axis order)."""
    if not output_params or ref.params_in_order == output_params:
        return ref.source
    if not ref.params_in_order:
        return ref.source  # scalar: broadcasts everywhere
    pieces = []
    needs_adjustment = False
    for param in output_params:
        if param in ref.params_in_order:
            pieces.append(":")
        else:
            pieces.append("None")
            needs_adjustment = True
    if not needs_adjustment:
        return ref.source
    return f"({ref.source})[{', '.join(pieces)}]"


def try_vectorize_map(
    node: MapCompute,
    rename_extra: Optional[dict] = None,
    taken: "Optional[set[str]]" = None,
) -> Optional[list[str]]:
    """Emit a vectorised NumPy statement for a map, or ``None`` to fall back.

    The returned value is a list of source lines (without indentation).
    ``taken`` names identifiers already in scope of the generated function
    (containers, symbols, parameters) that hoisted temporaries must not
    shadow.
    """
    output_ref = vectorize_memlet(node.output.data, node.output.subset, node)
    if output_ref is None:
        return None
    input_refs: dict[str, SlicedRef] = {}
    for conn, memlet in node.inputs.items():
        ref = vectorize_memlet(memlet.data, memlet.subset, node)
        if ref is None:
            return None
        input_refs[conn] = ref

    out_params = output_ref.params_in_order
    missing_from_output = [p for p in node.params if p not in out_params]

    if missing_from_output and not node.output.accumulate:
        # Writing the same element from several map iterations without
        # accumulation is order-dependent; keep the loop form.
        return None

    if not missing_from_output:
        layout_params = out_params
    else:
        # Parameters that do not reach the output are reduced over: lay the
        # right-hand side out over *all* used parameters and sum the missing
        # axes away.  (This is how gradient accumulation for broadcast reads,
        # e.g. a scalar or vector read inside a 2-D map, stays vectorised.)
        used_params = set(out_params)
        for ref in input_refs.values():
            used_params.update(ref.params_in_order)
        layout_params = [p for p in node.params if p in used_params]

    rename = {conn: broadcast_adjustment(ref, layout_params) for conn, ref in input_refs.items()}
    if rename_extra:
        for key, value in rename_extra.items():
            rename.setdefault(key, value)
    # Hoist repeated subexpressions (fusion inlines producers once per use)
    # into temporaries; np.where evaluates eagerly, so this never changes
    # which subexpressions get evaluated.
    bindings, residual = hoist_common_subexpressions(
        node.expr, taken=set(taken or ()) | set(rename)
    )
    lines = [
        f"{name} = {to_python(value, rename=rename, vectorized=True)}"
        for name, value in bindings
    ]
    rhs = to_python(residual, rename=rename, vectorized=True)

    if missing_from_output:
        reduced_axes = [
            axis for axis, param in enumerate(layout_params) if param not in out_params
        ]
        if reduced_axes:
            if out_params:
                axes = ", ".join(str(a) for a in reduced_axes)
                rhs = f"np.sum({rhs}, axis=({axes},))"
            else:
                rhs = f"np.sum({rhs})"
        # Missing parameters that appear in no memlet at all: the body is
        # constant along them, so the reduction is a multiplication by the
        # domain size.
        constant_params = [p for p in missing_from_output if p not in layout_params]
        if constant_params:
            sizes = " * ".join(
                f"({_render(node.ranges[node.params.index(p)].length_expr())})"
                for p in constant_params
            )
            rhs = f"({rhs}) * ({sizes})"

    target = output_ref.source
    if target == node.output.data:
        target = f"{node.output.data}[...]"
    op = "+=" if node.output.accumulate else "="
    lines.append(f"{target} {op} {rhs}")
    return lines
