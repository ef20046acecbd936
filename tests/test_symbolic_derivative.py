"""Tests for symbolic differentiation, including property-based checks
against central finite differences (the core invariant of symbolic AD)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.symbolic import Sym, diff, evaluate, parse_expr, simplify
from repro.symbolic.affine import affine_coefficients, is_affine_in
from repro.util.errors import AutodiffError


def numeric_derivative(expr, wrt, env, eps=1e-6):
    env_hi = dict(env)
    env_lo = dict(env)
    env_hi[wrt] = env[wrt] + eps
    env_lo[wrt] = env[wrt] - eps
    return (evaluate(expr, env_hi) - evaluate(expr, env_lo)) / (2 * eps)


class TestBasicRules:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("x", "1"),
            ("3", "0"),
            ("y", "0"),
            ("x + y", "1"),
            ("x * y", "y"),
            ("x ** 2", "2 * x"),
            ("2 ** x", None),  # checked numerically below
            ("x / y", "1 / y"),
        ],
    )
    def test_symbolic_form(self, source, expected):
        d = diff(parse_expr(source), "x")
        if expected is not None:
            assert simplify(d) == simplify(parse_expr(expected))

    @pytest.mark.parametrize(
        "source",
        [
            "np.sin(x)",
            "np.cos(x)",
            "np.tan(x)",
            "np.exp(x)",
            "np.log(x)",
            "np.sqrt(x)",
            "np.tanh(x)",
            "x * np.sin(x * y)",
            "np.exp(-x ** 2)",
            "x / (y + np.cos(x))",
            "(x + y) ** 3",
            "2 ** x",
            "x ** y",
            "np.maximum(x, y) * 2",
            "np.minimum(x, y) + x",
            "np.abs(x) * y",
            "np.erf(x)",
            "np.tanh(x) * np.exp(y) / np.sqrt(x + 3)",
        ],
    )
    def test_matches_finite_differences(self, source):
        expr = parse_expr(source)
        d = diff(expr, "x")
        rng = np.random.default_rng(42)
        for _ in range(5):
            env = {"x": float(rng.uniform(0.3, 2.0)), "y": float(rng.uniform(0.3, 2.0))}
            assert evaluate(d, env) == pytest.approx(
                numeric_derivative(expr, "x", env), rel=1e-4, abs=1e-6
            )

    def test_derivative_wrt_sym_object(self):
        expr = parse_expr("x * x")
        assert evaluate(diff(expr, Sym("x")), {"x": 3.0}) == pytest.approx(6.0)

    def test_piecewise_constant_funcs_have_zero_derivative(self):
        for source in ["np.floor(x)", "np.sign(x)", "x // 2", "x % 3"]:
            d = diff(parse_expr(source), "x")
            assert evaluate(d, {"x": 1.7}) == 0

    def test_where_derivative_selects_branch(self):
        expr = parse_expr("x * x if x > 0 else -x")
        d = diff(expr, "x")
        assert evaluate(d, {"x": 2.0}) == pytest.approx(4.0)
        assert evaluate(d, {"x": -2.0}) == pytest.approx(-1.0)

    def test_relu_derivative(self):
        from repro.symbolic.expr import Call

        expr = Call("relu", (Sym("x"),))
        d = diff(expr, "x")
        assert evaluate(d, {"x": 3.0}) == 1
        assert evaluate(d, {"x": -3.0}) == 0

    def test_undifferentiable_raises(self):
        from repro.symbolic.expr import Call

        # An intrinsic unknown to the derivative table must raise, not return junk.
        with pytest.raises(AutodiffError):
            diff(Call("gamma", (Sym("x"),)), "x")


# --- property-based tests ----------------------------------------------------

_leaf = st.sampled_from(["x", "y", "1.5", "2.0", "0.25"])


_KINDS = ["add", "sub", "mul", "div", "sin", "cos", "tanh", "sqrt_shift", "exp"]


@st.composite
def smooth_expression(draw, depth=0, exps=0):
    """Random smooth expressions over x, y that are safe to evaluate on (0.3, 2).

    At most two ``exp`` nest on any path: ``exp(exp(exp(2.0)))`` overflows to
    ``inf`` and turns the finite difference into ``nan``.
    """
    if depth >= 3 or draw(st.booleans()):
        return draw(_leaf)
    kind = draw(st.sampled_from(_KINDS if exps < 2 else _KINDS[:-1]))
    exps += kind == "exp"
    a = draw(smooth_expression(depth=depth + 1, exps=exps))
    if kind in ("add", "sub", "mul", "div"):
        b = draw(smooth_expression(depth=depth + 1, exps=exps))
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        if kind == "div":
            return f"(({a}) {op} (({b}) + 3.0))"
        return f"(({a}) {op} ({b}))"
    if kind == "sqrt_shift":
        return f"np.sqrt(({a}) + 4.0)"
    return f"np.{kind}({a})"


class TestDerivativeProperties:
    @settings(max_examples=60, deadline=None)
    @given(source=smooth_expression(), x=st.floats(0.4, 1.8), y=st.floats(0.4, 1.8))
    def test_random_expressions_match_finite_differences(self, source, x, y):
        expr = parse_expr(source)
        d = diff(expr, "x")
        env = {"x": x, "y": y}
        numeric = numeric_derivative(expr, "x", env)
        symbolic = evaluate(d, env)
        assert symbolic == pytest.approx(numeric, rel=2e-3, abs=2e-4)

    @settings(max_examples=40, deadline=None)
    @given(source=smooth_expression(), x=st.floats(0.4, 1.8), y=st.floats(0.4, 1.8))
    def test_simplify_preserves_derivative_value(self, source, x, y):
        expr = parse_expr(source)
        d = diff(expr, "x")
        env = {"x": x, "y": y}
        assert evaluate(simplify(d), env) == pytest.approx(evaluate(d, env), rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(0.4, 1.8), y=st.floats(0.4, 1.8))
    def test_linearity_of_differentiation(self, x, y):
        f = parse_expr("np.sin(x) * y")
        g = parse_expr("x ** 2 + y")
        combined = parse_expr("3 * (np.sin(x) * y) + 2 * (x ** 2 + y)")
        env = {"x": x, "y": y}
        lhs = evaluate(diff(combined, "x"), env)
        rhs = 3 * evaluate(diff(f, "x"), env) + 2 * evaluate(diff(g, "x"), env)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestAffine:
    def test_affine_coefficients_simple(self):
        coeffs = affine_coefficients(parse_expr("2 * i + j - 3"), ["i", "j"])
        assert evaluate(coeffs["i"], {}) == 2
        assert evaluate(coeffs["j"], {}) == 1
        assert evaluate(coeffs[""], {}) == -3

    def test_affine_with_symbolic_constant(self):
        coeffs = affine_coefficients(parse_expr("N * i + 1"), ["i"])
        assert coeffs is not None
        assert evaluate(coeffs["i"], {"N": 5}) == 5

    def test_not_affine_product(self):
        assert affine_coefficients(parse_expr("i * j"), ["i", "j"]) is None

    def test_not_affine_nonlinear(self):
        assert not is_affine_in(parse_expr("i ** 2"), ["i"])
        assert not is_affine_in(parse_expr("np.sin(i)"), ["i"])

    def test_affine_in_unrelated_call(self):
        assert is_affine_in(parse_expr("np.floor(N / 2) + i"), ["i"])

    def test_negation_and_division(self):
        coeffs = affine_coefficients(parse_expr("-(i) + j // 2"), ["i", "j"])
        assert evaluate(coeffs["i"], {}) == -1

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(-5, 5), b=st.integers(-5, 5), c=st.integers(-5, 5),
           i=st.integers(0, 10), j=st.integers(0, 10))
    def test_affine_decomposition_reconstructs_value(self, a, b, c, i, j):
        expr = parse_expr(f"({a}) * i + ({b}) * j + ({c})")
        coeffs = affine_coefficients(expr, ["i", "j"])
        reconstructed = (
            evaluate(coeffs["i"], {}) * i + evaluate(coeffs["j"], {}) * j + evaluate(coeffs[""], {})
        )
        assert reconstructed == evaluate(expr, {"i": i, "j": j})
