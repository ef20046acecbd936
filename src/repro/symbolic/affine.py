"""Affine-form analysis of symbolic expressions.

Memlet subsets and loop bounds in the supported program class are affine in
the loop iterators (paper, Fig. 5: "affine loops ... fully supported").  The
code generator uses :func:`affine_coefficients` to turn per-element index
expressions such as ``i + 1`` or ``2*j`` into NumPy slices, and the AD engine
uses it to reason about loop normalisation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.symbolic.expr import BinOp, Call, Compare, Const, Expr, Sym, UnOp, as_expr


def affine_coefficients(
    expr: Expr | int | float, variables: Iterable[str]
) -> Optional[dict[str, Expr]]:
    """Decompose ``expr`` as ``c0 + sum(c_v * v)`` over ``variables``.

    Returns a dict mapping each variable name to its coefficient expression
    plus the key ``""`` for the constant term, or ``None`` if the expression
    is not affine in the given variables.  Coefficients and the constant term
    may still reference *other* symbols (e.g. array-size parameters).
    """
    variables = list(variables)
    var_set = set(variables)
    result = _affine(expr, var_set)
    if result is None:
        return None
    # Fill missing entries with 0 for a stable interface.
    from repro.symbolic.simplify import simplify

    out: dict[str, Expr] = {"": simplify(result.get("", Const(0)))}
    for var in variables:
        out[var] = simplify(result.get(var, Const(0)))
    return out


def is_affine_in(expr: Expr | int | float, variables: Iterable[str]) -> bool:
    """True if ``expr`` is an affine function of ``variables``."""
    return affine_coefficients(expr, variables) is not None


def unit_shift(expr: Expr | int | float, variables: Iterable[str]):
    """Decompose ``expr`` as ``var + c`` over exactly one of ``variables``.

    Returns ``(var, c)`` with integer ``c`` when the expression is a
    unit-coefficient shift of a single variable, or ``None`` otherwise
    (several variables, non-unit coefficient, non-integer or symbolic
    constant).  This is the *one* classifier for stencil-offset reads —
    shared by the O3 fusion pass (pricing) and offset-shifted hoisting in
    code generation (emission), so the two can never drift apart on what
    counts as a pure shift.
    """
    variables = list(variables)
    coeffs = affine_coefficients(expr, variables)
    if coeffs is None:
        return None
    used = [v for v in variables if coeffs[v] != Const(0)]
    if len(used) != 1 or coeffs[used[0]] != Const(1):
        return None
    constant = coeffs[""]
    if not isinstance(constant, Const) or isinstance(constant.value, bool):
        return None
    if not float(constant.value).is_integer():
        return None
    return used[0], int(constant.value)


def provable_constant(expr: Expr | int | float):
    """The numeric value of ``expr`` if it is *provably* constant, else ``None``.

    Simplification alone cannot cancel structurally-different spellings of
    the same quantity (``(N - 2 + 1 - 1) // 1`` vs ``N - 2``); decomposing
    into affine form over every free symbol and requiring all symbol
    coefficients to fold to zero can.  Used by the O3 stencil machinery to
    prove window bounds (``producer_stop - consumer_stop - max_offset >= 0``)
    without concrete sizes.
    """
    if isinstance(expr, (int, float)):
        return expr
    symbols = sorted(expr.free_symbols())
    coeffs = affine_coefficients(expr, symbols)
    if coeffs is None:
        return None
    for name in symbols:
        if not isinstance(coeffs[name], Const) or coeffs[name].value != 0:
            return None
    constant = coeffs[""]
    if not isinstance(constant, Const) or isinstance(constant.value, bool):
        return None
    return constant.value


def window_fits(limit, stop, offset: int = 0) -> bool:
    """Prove ``stop + offset <= limit`` for symbolic bounds — the *one*
    hoistability bounds proof of the stencil machinery.

    ``limit`` is the domain being read (a producer's range stop or an array
    dimension), ``stop`` the consumer/union-window stop and ``offset`` the
    constant stencil shift.  Both the O3 fusion pass (pricing a candidate as
    hoistable, :func:`repro.passes.fusion._offset_info`) and offset-shifted
    hoisting in code generation (:mod:`repro.codegen.stencil`) decide bounds
    through this predicate, so what fusion prices as a single union-window
    evaluation is exactly what codegen emits — the two can no longer run
    drifting proofs.  Memory planning proves with it that a guest dimension
    fits its host's (``offset=0``).  Returns ``False`` whenever the slack is
    not provably non-negative (:func:`provable_constant`); callers must then
    stay conservative (don't fuse / don't hoist / don't share).
    """
    from repro.symbolic.simplify import simplify

    slack = provable_constant(
        simplify(as_expr(limit) - (as_expr(stop) + Const(offset)))
    )
    return slack is not None and slack >= 0


def _scale(terms: dict[str, Expr], factor: Expr) -> dict[str, Expr]:
    return {key: BinOp("*", coeff, factor) for key, coeff in terms.items()}


def _add(a: dict[str, Expr], b: dict[str, Expr], sign: int = 1) -> dict[str, Expr]:
    out = dict(a)
    for key, coeff in b.items():
        term = coeff if sign > 0 else UnOp("-", coeff)
        if key in out:
            out[key] = BinOp("+", out[key], term)
        else:
            out[key] = term
    return out


def _floor_divide(terms: dict[str, Expr], divisor: Expr) -> Optional[dict[str, Expr]]:
    """``floor((sum c_v * v + c0) / d)`` as an affine form — exact only when
    every variable coefficient is an integer multiple of the constant ``d``
    (then ``sum (c_v / d) * v`` is an integer and the floor applies to
    ``c0 / d`` alone).  ``(N + 1) // 2`` is not affine in ``N``."""
    from repro.symbolic.simplify import simplify

    d = simplify(divisor)
    if not _is_integer(d) or d.value == 0:
        return None
    out: dict[str, Expr] = {}
    for key, coeff in terms.items():
        if key == "":
            out[key] = BinOp("//", coeff, d)
            continue
        c = simplify(coeff)
        if not _is_integer(c) or c.value % d.value != 0:
            return None
        out[key] = Const(c.value // d.value)
    return out


def _is_integer(expr: Expr) -> bool:
    return (
        isinstance(expr, Const)
        and not isinstance(expr.value, bool)
        and isinstance(expr.value, (int, float))
        and float(expr.value).is_integer()
    )


def _affine(expr, var_set: set[str]) -> Optional[dict[str, Expr]]:
    if isinstance(expr, (int, float)):
        return {"": Const(expr)}
    if isinstance(expr, Const):
        return {"": expr}
    if isinstance(expr, Sym):
        if expr.name in var_set:
            return {expr.name: Const(1)}
        return {"": expr}
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = _affine(expr.operand, var_set)
        if inner is None:
            return None
        return {key: UnOp("-", coeff) for key, coeff in inner.items()}
    if isinstance(expr, BinOp):
        if expr.op in ("+", "-"):
            left = _affine(expr.left, var_set)
            right = _affine(expr.right, var_set)
            if left is None or right is None:
                return None
            return _add(left, right, 1 if expr.op == "+" else -1)
        if expr.op == "*":
            left = _affine(expr.left, var_set)
            right = _affine(expr.right, var_set)
            if left is None or right is None:
                return None
            left_vars = set(left) - {""}
            right_vars = set(right) - {""}
            if left_vars and right_vars:
                return None  # product of two variable-dependent terms
            if left_vars:
                return _scale(left, right.get("", Const(0)))
            return _scale(right, left.get("", Const(0)))
        if expr.op in ("/", "//"):
            left = _affine(expr.left, var_set)
            right = _affine(expr.right, var_set)
            if left is None or right is None:
                return None
            if set(right) - {""}:
                return None  # division by a variable-dependent term
            divisor = right.get("", Const(1))
            if expr.op == "//" and set(left) - {""}:
                return _floor_divide(left, divisor)
            return {key: BinOp(expr.op, coeff, divisor) for key, coeff in left.items()}
        return None
    if isinstance(expr, (Call, Compare)):
        # A call/comparison not involving the variables is a plain constant term.
        if not (expr.free_symbols() & var_set):
            return {"": expr}
        return None
    return None
