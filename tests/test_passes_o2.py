"""Tests for the O2 optimization tier: map fusion + common-subexpression
elimination (global value numbering), their pipeline integration, and
gradient equivalence with O0.

The structural tests drive the raw passes (``repro.passes.fusion`` /
``repro.passes.gvn``) on lowered programs; the numerical tests assert that
``optimize="O2"`` never changes forward values or gradients (acceptance: O2
gradients match O0 to 1e-9 relative on stencil and ML kernels).
"""

import numpy as np
import pytest

import repro
from repro.codegen.subexpr import hoist_common_subexpressions
from repro.harness import copy_data
from repro.ir import MapCompute, collect_uses
from repro.npbench import get_kernel
from repro.passes import (
    dedupe_connectors,
    fuse_elementwise_maps,
    global_value_numbering,
    is_identity_elementwise_write,
)
from repro.pipeline import compile_forward, compile_gradient
from repro.symbolic import BinOp, Call, IfExp, Sym, parse_expr

N = repro.symbol("N")
M = repro.symbol("M")


def _map_nodes(sdfg):
    return [node for state in sdfg.all_states() for node in state
            if isinstance(node, MapCompute)]


class TestMapFusion:
    def test_elementwise_chain_fuses_to_single_map(self):
        @repro.program
        def chain(x: repro.float64[N], y: repro.float64[N]):
            u = x * 2.0 + 1.0
            v = u * y
            w = v - x
            return np.sum(w)

        sdfg = chain.to_sdfg().copy()
        fused = fuse_elementwise_maps(sdfg)
        assert fused == 2
        assert "u" not in sdfg.arrays and "v" not in sdfg.arrays
        # The surviving map computes the whole chain.
        [node] = [n for n in _map_nodes(sdfg) if n.output.data == "w"]
        assert {m.data for m in node.inputs.values()} == {"x", "y"}

    def test_fused_forward_matches_unfused(self):
        @repro.program
        def chain(x: repro.float64[N], y: repro.float64[N]):
            u = x * 2.0 + 1.0
            v = u * y
            w = v - x
            d = w * w
            return np.sum(d)

        x = np.linspace(-1.0, 1.0, 33)
        y = np.linspace(0.5, 2.0, 33)
        o0 = compile_forward(chain, "O0", cache=False).compiled(x.copy(), y.copy())
        o2 = compile_forward(chain, "O2", cache=False).compiled(x.copy(), y.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_multi_consumer_transient_not_fused(self):
        @repro.program
        def two_uses(x: repro.float64[N], outa: repro.float64[N],
                     outb: repro.float64[N]):
            u = x * 3.0
            outa[:] = u + 1.0
            outb[:] = u - 1.0
            return np.sum(outa * outb)

        sdfg = two_uses.to_sdfg().copy()
        fuse_elementwise_maps(sdfg)
        # ``u`` feeds two consumers that stay separate (they write different
        # program outputs): it must stay materialised.
        assert "u" in sdfg.arrays

    def test_multi_consumer_resolves_when_consumers_merge(self):
        # Fusion iterates to a fixed point: after ``a`` and ``b`` fuse into
        # the product map, that map becomes ``u``'s sole consumer (reading it
        # twice at the same index), so the whole diamond collapses.
        @repro.program
        def diamond(x: repro.float64[N]):
            u = x * 3.0
            a = u + 1.0
            b = u - 1.0
            return np.sum(a * b)

        sdfg = diamond.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg) == 3
        for name in ("u", "a", "b"):
            assert name not in sdfg.arrays
        x = np.linspace(-2.0, 2.0, 21)
        o0 = compile_forward(diamond, "O0", cache=False).compiled(x.copy())
        o2 = compile_forward(diamond, "O2", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_offset_reads_not_fused(self):
        # Stencil-style reads at different offsets would duplicate the
        # producer's work once per offset; fusion must leave them alone.
        @repro.program
        def stencil(x: repro.float64[N], out: repro.float64[N]):
            u = x * 0.5
            out[1:-1] = u[2:] - u[:-2]
            return np.sum(out)

        sdfg = stencil.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg) == 0
        assert "u" in sdfg.arrays

    def test_same_subset_repeated_read_fuses(self):
        @repro.program
        def square(x: repro.float64[N]):
            u = x + 1.0
            d = u * u
            return np.sum(d)

        sdfg = square.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg) == 1
        assert "u" not in sdfg.arrays

    def test_consumer_writing_producer_input_not_fused(self):
        # Fusing would interleave reads of x with the in-place write to x.
        @repro.program
        def inplace(x: repro.float64[N]):
            u = x * 2.0
            x[:] = u + x
            return np.sum(x)

        sdfg = inplace.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg) == 0

    def test_fusion_inside_loop_region(self):
        @repro.program
        def looped(A: repro.float64[N, M], W: repro.float64[N, M]):
            acc = np.zeros((M,))
            for k in range(1, N - 1):
                g = W[k, :] * 0.5
                c = g * (A[k - 1, :] - A[k, :])
                acc += c
            return np.sum(acc)

        sdfg = looped.to_sdfg().copy()
        fused = fuse_elementwise_maps(sdfg)
        assert fused >= 1
        assert "g" not in sdfg.arrays

        A = np.random.default_rng(0).random((8, 5))
        W = np.random.default_rng(1).random((8, 5))
        o0 = compile_forward(looped, "O0", cache=False).compiled(A.copy(), W.copy())
        o2 = compile_forward(looped, "O2", cache=False).compiled(A.copy(), W.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_protected_container_survives_fusion(self):
        @repro.program
        def f(A: repro.float64[N]):
            t = A * A
            s = t + 1.0
            return np.sum(s)

        sdfg = f.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg, protect={"t"}) == 0
        assert "t" in sdfg.arrays

    def test_o2_keeps_user_selected_gradient_output(self):
        # The pipeline must thread the gradient target into the fusion/GVN
        # keep set: ``t`` is a fusable transient but is differentiated.
        @repro.program
        def f(A: repro.float64[N]):
            t = np.sum(A * A)
            return np.sum(A * 3.0)

        A = np.linspace(0.5, 1.5, 8)
        df = repro.grad(f, wrt="A", output="t", optimize="O2")
        np.testing.assert_allclose(df(A.copy()), 2.0 * A)

    def test_fused_source_eliminates_intermediate_allocations(self):
        spec = get_kernel("bias_act")
        program = spec.program_for("S")
        o0 = compile_forward(program, "O0", cache=False).compiled.source
        o2 = compile_forward(program, "O2", cache=False).compiled.source
        for name in ("pre", "act", "out"):
            assert f"{name} = np.empty" in o0
            assert f"{name} = np.empty" not in o2  # no allocation: fused away

    def test_report_shows_fusion(self):
        spec = get_kernel("bias_act")
        outcome = compile_forward(spec.program_for("S"), "O2", cache=False)
        record = outcome.report.record_for("map-fusion")
        assert record is not None and record.info["maps_fused"] == 3
        assert "map-fusion" in outcome.report.pretty()


class TestCommonSubexpressionElimination:
    def test_duplicate_nodes_in_one_state_merged(self):
        # ``np.sum(expr)`` materialises expr into a fresh transient inside the
        # return state; two identical reductions produce two identical maps in
        # that state — the same-state duplicate value numbering targets.
        @repro.program
        def twice(x: repro.float64[N]):
            return np.sum(x * x) + np.sum(x * x)

        sdfg = twice.to_sdfg().copy()
        before = len(_map_nodes(sdfg))
        removed = global_value_numbering(sdfg).nodes_merged
        assert removed >= 1
        assert len(_map_nodes(sdfg)) == before - removed
        x = np.linspace(-1.0, 1.0, 17)
        o0 = compile_forward(twice, "O0", cache=False).compiled(x.copy())
        o2 = compile_forward(twice, "O2", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_repeated_memlet_reads_merged(self):
        @repro.program
        def square(x: repro.float64[N]):
            return np.sum(x * x)

        sdfg = square.to_sdfg().copy()
        node = next(n for n in _map_nodes(sdfg) if len(n.inputs) == 2)
        merged = dedupe_connectors(node)
        assert merged == 1
        assert len(node.inputs) == 1
        [conn] = node.inputs
        assert node.expr == BinOp("*", Sym(conn), Sym(conn))

    def test_library_node_connectors_never_merged(self):
        @repro.program
        def gram(A: repro.float64[N, N]):
            B = A @ A
            return np.sum(B)

        sdfg = gram.to_sdfg()
        for state in sdfg.all_states():
            for node in state:
                if not isinstance(node, MapCompute):
                    assert dedupe_connectors(node) == 0

    def test_intervening_write_blocks_merge(self):
        # An identical map pair separated by a write to the shared input:
        # merging would change the second value.
        @repro.program
        def f(x: repro.float64[N]):
            a = x * 2.0
            x[:] = x + 1.0
            b = x * 2.0
            return np.sum(a + b)

        sdfg = f.to_sdfg().copy()
        assert global_value_numbering(sdfg).nodes_merged == 0
        x = np.linspace(0.0, 1.0, 9)
        o0 = compile_forward(f, "O0", cache=False).compiled(x.copy())
        o2 = compile_forward(f, "O2", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)


class TestIdentityWriteQueries:
    def test_identity_elementwise_write_detection(self):
        @repro.program
        def f(x: repro.float64[N], out: repro.float64[N]):
            u = x * 2.0
            out[1:-1] = x[1:-1] * 3.0
            return np.sum(u)

        sdfg = f.to_sdfg()
        by_target = {node.output.data: node for node in _map_nodes(sdfg)}
        assert is_identity_elementwise_write(by_target["u"], sdfg.arrays["u"])
        # Partial (shifted) write: not an identity full write.
        assert not is_identity_elementwise_write(by_target["out"], sdfg.arrays["out"])

    def test_collect_uses_positions_and_counts(self):
        @repro.program
        def f(x: repro.float64[N]):
            u = x * 2.0
            v = u + 1.0
            return np.sum(v)

        sdfg = f.to_sdfg()
        uses = collect_uses(sdfg)
        assert len(uses["u"].writes) == 1
        assert len(uses["u"].reads) == 1
        assert uses["u"].writes[0].position() < uses["u"].reads[0].position()
        assert uses["x"].opaque_reads == 0
        # One position per compute node, shared by every site of that node.
        assert [site.pos for site in uses.nodes] == list(range(len(uses.nodes)))
        assert uses.nodes[uses["u"].writes[0].pos] is uses["u"].writes[0]


class TestSubexpressionHoisting:
    def test_repeated_subtree_hoisted_once(self):
        expr = parse_expr("(a * b + c) * (a * b + c)")
        bindings, residual = hoist_common_subexpressions(expr)
        assert len(bindings) == 1
        name, sub = bindings[0]
        assert residual == BinOp("*", Sym(name), Sym(name))
        assert sub == parse_expr("a * b + c")

    def test_nothing_to_hoist_returns_expr_unchanged(self):
        expr = parse_expr("a * b + c")
        bindings, residual = hoist_common_subexpressions(expr)
        assert bindings == [] and residual is expr

    def test_lazy_guarded_subtrees_not_hoisted(self):
        # In sequential-loop emission the ternary is lazy: 1/a must not be
        # evaluated unconditionally.
        expr = IfExp(parse_expr("a > 0"), parse_expr("1 / a + 1 / a"),
                     parse_expr("a"))
        bindings, _ = hoist_common_subexpressions(expr, guarded_lazy=True)
        assert bindings == []
        # Vectorised emission is eager (np.where): hoisting is allowed.
        bindings, _ = hoist_common_subexpressions(expr, guarded_lazy=False)
        assert any(sub == parse_expr("1 / a") for _, sub in bindings)

    def test_hoisted_name_avoids_taken_symbols(self):
        expr = parse_expr("sin(a) * sin(a)")
        bindings, _ = hoist_common_subexpressions(expr, taken={"__cse0"})
        assert bindings[0][0] == "__cse1"

    def test_hoisted_name_never_shadows_user_arrays(self):
        # A program variable literally named __cse0: the hoisted temporary
        # must pick a different name, or later statements reading the array
        # would silently read the temporary.
        @repro.program
        def hostile(x: repro.float64[N], outa: repro.float64[N],
                    outb: repro.float64[N]):
            __cse0 = x * 2.0
            outa[:] = (__cse0 + x) * (__cse0 + x)
            outb[:] = __cse0 * 3.0
            return np.sum(outa + outb)

        x = np.linspace(0.1, 1.0, 11)
        args = lambda: (x.copy(), np.zeros_like(x), np.zeros_like(x))  # noqa: E731
        o0 = compile_forward(hostile, "O0", cache=False).compiled(*args())
        o2 = compile_forward(hostile, "O2", cache=False).compiled(*args())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_fused_square_source_hoists_chain(self):
        @repro.program
        def square_chain(x: repro.float64[N], y: repro.float64[N]):
            w = x * y + 1.0
            d = w * w
            return np.sum(d)

        source = compile_forward(square_chain, "O2", cache=False).compiled.source
        assert "__cse0" in source
        # The chain body appears exactly once (in the hoisted temp).
        assert source.count("+ 1.0") == 1


STENCIL_AND_ML_KERNELS = ["seidel2d", "jacobi2d", "hdiff", "vadv",
                          "softmax", "bias_act", "mlp"]


class TestO2GradientEquivalence:
    @pytest.mark.parametrize("name", STENCIL_AND_ML_KERNELS)
    def test_o2_gradients_match_o0(self, name):
        spec = get_kernel(name)
        data = spec.data("S")

        results = {}
        for level in ("O0", "O2"):
            outcome = compile_gradient(
                spec.program_for("S"), wrt=spec.wrt, optimize=level, cache=False
            )
            results[level] = np.asarray(outcome.compiled(**copy_data(data)))
        np.testing.assert_allclose(results["O2"], results["O0"],
                                   rtol=1e-9, atol=1e-12)

    def test_o2_forward_matches_numpy_reference(self):
        for name in ("bias_act", "softmax"):
            spec = get_kernel(name)
            data = spec.data("S")
            expected = spec.run_numpy(data)
            compiled = compile_forward(spec.program_for("S"), "O2", cache=False).compiled
            actual = compiled(**copy_data(data))
            assert actual == pytest.approx(expected, rel=1e-5)
