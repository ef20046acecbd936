"""Forward-pass correctness: generated code must match plain NumPy."""

import numpy as np
import pytest

import repro
from repro.ir import MapCompute, Memlet, Range, SDFG, Subset
from repro.pipeline import compile_forward
from repro.symbolic import Const, Sym, parse_expr

N = repro.symbol("N")
M = repro.symbol("M")
K = repro.symbol("K")
TSTEPS = repro.symbol("TSTEPS")


def rand(*shape, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.random(shape).astype(dtype) + 0.1


class TestVectorizedPrograms:
    def test_scaled_sum(self):
        @repro.program
        def prog(A: repro.float64[N], alpha: repro.float64):
            A[:] = alpha * A + 1.0
            return np.sum(A)

        A = rand(10)
        expected = np.sum(2.5 * A + 1.0)
        assert prog(A.copy(), 2.5) == pytest.approx(expected)

    def test_matmul_chain(self):
        @repro.program
        def prog(A: repro.float64[N, K], B: repro.float64[K, M], C: repro.float64[M, N]):
            D = A @ B @ C
            return np.sum(D)

        A, B, C = rand(4, 5), rand(5, 6, seed=1), rand(6, 4, seed=2)
        assert prog(A, B, C) == pytest.approx(np.sum(A @ B @ C))

    def test_matvec_and_transpose(self):
        @repro.program
        def prog(A: repro.float64[N, M], x: repro.float64[M]):
            y = A @ x
            z = A.T @ y
            return np.sum(z)

        A, x = rand(5, 3), rand(3, seed=3)
        assert prog(A, x) == pytest.approx(np.sum(A.T @ (A @ x)))

    def test_unary_intrinsics(self):
        @repro.program
        def prog(A: repro.float64[N]):
            B = np.sin(A) + np.exp(A) * np.sqrt(A)
            return np.sum(B)

        A = rand(20)
        assert prog(A) == pytest.approx(np.sum(np.sin(A) + np.exp(A) * np.sqrt(A)))

    def test_outer_product(self):
        @repro.program
        def prog(u: repro.float64[N], v: repro.float64[M], A: repro.float64[N, M]):
            A += np.outer(u, v)
            return np.sum(A)

        u, v, A = rand(4), rand(6, seed=1), rand(4, 6, seed=2)
        expected = np.sum(A + np.outer(u, v))
        assert prog(u, v, A.copy()) == pytest.approx(expected)

    def test_slicing_with_offsets(self):
        @repro.program
        def prog(A: repro.float64[N, N], B: repro.float64[N, N]):
            B[1:-1, 1:-1] = 0.25 * (A[:-2, 1:-1] + A[2:, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:])
            return np.sum(B)

        A, B = rand(8, 8), rand(8, 8, seed=1)
        expected = B.copy()
        expected[1:-1, 1:-1] = 0.25 * (A[:-2, 1:-1] + A[2:, 1:-1] + A[1:-1, :-2] + A[1:-1, 2:])
        assert prog(A, B.copy()) == pytest.approx(np.sum(expected))

    def test_reduction_axis_and_mean(self):
        @repro.program
        def prog(A: repro.float64[N, M]):
            col = np.sum(A, axis=0)
            avg = np.mean(A)
            return np.sum(col) + avg

        A = rand(5, 7)
        assert prog(A) == pytest.approx(np.sum(np.sum(A, axis=0)) + np.mean(A))

    def test_broadcast_vector_over_matrix(self):
        @repro.program
        def prog(A: repro.float64[N, M], v: repro.float64[M]):
            B = A * v
            return np.sum(B)

        A, v = rand(4, 6), rand(6, seed=5)
        assert prog(A, v) == pytest.approx(np.sum(A * v))

    def test_where_and_maximum(self):
        @repro.program
        def prog(A: repro.float64[N]):
            B = np.maximum(A - 0.5, 0.0) + np.where(A > 0.5, A, 2.0 * A)
            return np.sum(B)

        A = rand(30)
        expected = np.sum(np.maximum(A - 0.5, 0.0) + np.where(A > 0.5, A, 2.0 * A))
        assert prog(A) == pytest.approx(expected)


class TestLoopPrograms:
    def test_timestep_stencil(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N], T: repro.int64):
            for t in range(T):
                B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
                A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
            return np.sum(A)

        def reference(A, B, T):
            for t in range(T):
                B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])
                A[1:-1] = 0.33333 * (B[:-2] + B[1:-1] + B[2:])
            return np.sum(A)

        A, B = rand(20), rand(20, seed=1)
        assert prog(A.copy(), B.copy(), 5) == pytest.approx(reference(A.copy(), B.copy(), 5))

    def test_sequential_element_updates(self):
        @repro.program
        def prog(A: repro.float64[N, N], T: repro.int64):
            for t in range(T):
                for i in range(1, N - 1):
                    for j in range(1, N - 1):
                        A[i, j] = (A[i - 1, j - 1] + A[i - 1, j] + A[i - 1, j + 1]
                                   + A[i, j - 1] + A[i, j] + A[i, j + 1]
                                   + A[i + 1, j - 1] + A[i + 1, j] + A[i + 1, j + 1]) / 9.0

            return np.sum(A)

        def reference(A, T):
            n = A.shape[0]
            for t in range(T):
                for i in range(1, n - 1):
                    for j in range(1, n - 1):
                        A[i, j] = (A[i - 1, j - 1] + A[i - 1, j] + A[i - 1, j + 1]
                                   + A[i, j - 1] + A[i, j] + A[i, j + 1]
                                   + A[i + 1, j - 1] + A[i + 1, j] + A[i + 1, j + 1]) / 9.0
            return np.sum(A)

        A = rand(8, 8)
        assert prog(A.copy(), 2) == pytest.approx(reference(A.copy(), 2))

    def test_triangular_loop_with_dot(self):
        @repro.program
        def prog(A: repro.float64[N, N], B: repro.float64[N, N], alpha: repro.float64):
            for i in range(N):
                for j in range(i + 1, N):
                    B[i, :] += A[j, i] * B[j, :]
                B[i, :] = alpha * B[i, :]
            return np.sum(B)

        def reference(A, B, alpha):
            n = A.shape[0]
            for i in range(n):
                for j in range(i + 1, n):
                    B[i, :] += A[j, i] * B[j, :]
                B[i, :] = alpha * B[i, :]
            return np.sum(B)

        A, B = rand(6, 6), rand(6, 6, seed=1)
        assert prog(A.copy(), B.copy(), 1.5) == pytest.approx(reference(A.copy(), B.copy(), 1.5))

    def test_scalar_accumulator_in_loop(self):
        @repro.program
        def prog(A: repro.float64[N, N], R: repro.float64[N, N]):
            for k in range(N):
                nrm = 0.0
                for i in range(N):
                    nrm += A[i, k] * A[i, k]
                R[k, k] = np.sqrt(nrm)
            return np.sum(R)

        def reference(A, R):
            n = A.shape[0]
            for k in range(n):
                nrm = 0.0
                for i in range(n):
                    nrm += A[i, k] * A[i, k]
                R[k, k] = np.sqrt(nrm)
            return np.sum(R)

        A, R = rand(5, 5), np.zeros((5, 5))
        assert prog(A, R.copy()) == pytest.approx(reference(A, R.copy()))

    def test_loop_with_negative_step(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N - 2, -1, -1):
                A[i] = A[i] + A[i + 1]
            return np.sum(A)

        def reference(A):
            for i in range(A.shape[0] - 2, -1, -1):
                A[i] = A[i] + A[i + 1]
            return np.sum(A)

        A = rand(10)
        assert prog(A.copy()) == pytest.approx(reference(A.copy()))


class TestControlFlowPrograms:
    def test_data_dependent_branch(self):
        @repro.program
        def prog(A: repro.float64[N, N], B: repro.float64[N, N]):
            if A[0, 0] > 0.5:
                C = A * 2.0
                D = B * 4.0
            else:
                C = (A + B) * 2.0
                D = C * 3.0
            return np.sum(C) + np.sum(D)

        def reference(A, B):
            if A[0, 0] > 0.5:
                C = A * 2.0
                D = B * 4.0
            else:
                C = (A + B) * 2.0
                D = C * 3.0
            return np.sum(C) + np.sum(D)

        for seed in (0, 3):
            A, B = rand(4, 4, seed=seed), rand(4, 4, seed=seed + 10)
            assert prog(A, B) == pytest.approx(reference(A, B))

    def test_branch_inside_loop(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N):
                if i % 2 == 0:
                    A[i] = A[i] * 2.0
                else:
                    A[i] = A[i] + 1.0
            return np.sum(A)

        def reference(A):
            for i in range(A.shape[0]):
                if i % 2 == 0:
                    A[i] = A[i] * 2.0
                else:
                    A[i] = A[i] + 1.0
            return np.sum(A)

        A = rand(9)
        assert prog(A.copy()) == pytest.approx(reference(A.copy()))


class TestGeneratedCode:
    def test_source_is_available_and_vectorized(self):
        @repro.program
        def prog(A: repro.float64[N]):
            B = A * 2.0
            return np.sum(B)

        compiled = prog.compile()
        assert "def " in compiled.source
        assert "np.sum" in compiled.source
        # Whole-array elementwise operations must not be emitted as Python loops.
        assert "for " not in compiled.source

    @pytest.mark.parametrize("optimize", ["O0", "O1"])
    @pytest.mark.parametrize("backend", ["numpy", "cython"])
    def test_map_whose_parameter_misses_its_output_runs_as_loops(self, backend, optimize):
        """A non-accumulating map writing ``out = 2 * A[i]`` for every ``i``
        leaves the last iteration's value.  No slice expression says that, so
        the NumPy emitter writes the map as explicit loops."""
        sdfg = SDFG("last_iteration_wins")
        sdfg.add_symbol("N")
        sdfg.add_array("A", (Sym("N"),), "float64")
        sdfg.add_array("__return", (), "float64", transient=True)
        sdfg.arg_names = ["A"]
        sdfg.return_name = "__return"
        sdfg.add_state("last").add(MapCompute(
            params=["i"], ranges=[Range(Const(0), Sym("N"), Const(1))], expr=parse_expr("2 * a"),
            inputs={"a": Memlet("A", Subset.point([Sym("i")]))},
            output=Memlet("__return", Subset(()))))
        outcome = compile_forward(sdfg, optimize=optimize, backend=backend, cache=False)
        if outcome.report.backend != backend:
            pytest.skip(f"native backend declined: {outcome.report.backend_fallback}")
        if backend == "numpy":
            assert "for i in range(0, N):" in outcome.compiled.source
        A = rand(7)
        assert outcome.compiled(A) == pytest.approx(2 * A[-1])

    def test_matmul_uses_blas_call(self):
        @repro.program
        def prog(A: repro.float64[N, N], B: repro.float64[N, N]):
            C = A @ B
            return np.sum(C)

        compiled = prog.compile()
        assert "np.matmul(" in compiled.source or "@" in compiled.source

    def test_symbol_inference_from_shapes(self):
        @repro.program
        def prog(A: repro.float64[N, M]):
            return np.sum(A)

        assert prog(rand(3, 7)) == pytest.approx(np.sum(rand(3, 7)))

    def test_shape_mismatch_rejected(self):
        from repro.util.errors import CodegenError

        @repro.program
        def prog(A: repro.float64[N, N]):
            return np.sum(A)

        with pytest.raises(CodegenError):
            prog(rand(3, 4))


class TestFloorDivisionSemantics:
    """Regression (PR 3 review): ``x // 1.0`` in a tasklet is floor(x) for
    float operands; the simplifier must never elide it."""

    def test_float_floor_division_by_one_keeps_floor_semantics(self):
        @repro.program
        def prog(x: repro.float64[N], y: repro.float64[N]):
            t = y * (x // 1.0)
            return np.sum(t)

        x = np.array([0.5, 1.5, 2.5, 3.5])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        expected = float(np.sum(y * (x // 1.0)))
        assert prog(x.copy(), y.copy()) == pytest.approx(expected, rel=1e-12)

    def test_float_floor_division_gradient(self):
        @repro.program
        def prog(x: repro.float64[N], y: repro.float64[N]):
            t = y * (x // 1.0)
            return np.sum(t)

        grad = repro.grad(prog, wrt="y")
        x = np.array([0.5, 1.5, 2.5, 3.5])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(np.asarray(grad(x.copy(), y.copy())),
                                   np.floor(x), rtol=1e-12)


class TestOperatorAssociativityEmission:
    """Regression (PR 3 review): emitted source must evaluate exactly like
    the expression tree under Python's associativity rules."""

    def test_fused_nested_powers_keep_left_association(self):
        # (x ** 3) ** 2 fuses into one tree; emitting it without parentheses
        # would re-associate to x ** (3 ** 2) = x ** 9.
        @repro.program
        def prog(x: repro.float64[N]):
            u = x ** 3.0
            v = u ** 2.0
            return np.sum(v)

        x = np.array([2.0, 3.0])
        expected = float(np.sum((x ** 3.0) ** 2.0))
        for level in ("O0", "O2", "O3"):
            compiled = repro.pipeline.compile_forward(prog, level, cache=False).compiled
            assert compiled(x.copy()) == pytest.approx(expected, rel=1e-12), level

    def test_mixed_multiplicative_ops_keep_tree_order(self):
        @repro.program
        def prog(x: repro.float64[N], y: repro.float64[N]):
            t = y * (x // 2.0)
            return np.sum(t)

        x = np.array([1.0, 3.0, 5.0])
        y = np.array([2.0, 4.0, 8.0])
        expected = float(np.sum(y * (x // 2.0)))
        for level in ("O0", "O2", "O3"):
            compiled = repro.pipeline.compile_forward(prog, level, cache=False).compiled
            assert compiled(x.copy(), y.copy()) == pytest.approx(expected, rel=1e-12), level
