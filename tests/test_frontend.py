"""Frontend tests: parsing annotated NumPy programs into SDFGs."""

import numpy as np
import pytest

import repro
from repro.baselines.numerical import finite_difference_gradient
from repro.ir import ConditionalRegion, LibraryCall, LoopRegion, MapCompute
from repro.util.errors import FrontendError, UnsupportedFeatureError

N = repro.symbol("N")
M = repro.symbol("M")
TSTEPS = repro.symbol("TSTEPS")


class TestArgumentRegistration:
    def test_arrays_symbols_scalars(self):
        @repro.program
        def prog(A: repro.float64[N, M], alpha: repro.float64, K: repro.int64):
            A[:, :] = A * alpha
            return np.sum(A)

        sdfg = prog.to_sdfg()
        assert set(["A", "alpha"]).issubset(sdfg.arrays)
        assert "N" in sdfg.symbols and "M" in sdfg.symbols and "K" in sdfg.symbols
        assert sdfg.arrays["A"].ndim == 2
        assert sdfg.arrays["alpha"].is_scalar
        assert sdfg.arg_names == ["A", "alpha", "K"]

    def test_missing_annotation_rejected(self):
        def prog(A):
            return np.sum(A)

        with pytest.raises(FrontendError):
            repro.parse_function(prog)

    def test_float32_sets_default_dtype(self):
        @repro.program
        def prog(A: repro.float32[N]):
            B = np.zeros((N,))
            B[:] = A * 2
            return np.sum(B)

        sdfg = prog.to_sdfg()
        transients = [d for name, d in sdfg.arrays.items() if name.startswith("__zeros")]
        assert transients and transients[0].dtype == np.float32


class TestStatementLowering:
    def test_elementwise_becomes_map(self):
        @repro.program
        def prog(A: repro.float64[N], B: repro.float64[N]):
            B[:] = 2 * A + 1
            return np.sum(B)

        sdfg = prog.to_sdfg()
        maps = [node for state in sdfg.all_states() for node in state
                if isinstance(node, MapCompute) and node.params]
        assert maps, "expected at least one parallel map"

    def test_matmul_becomes_library_node(self):
        @repro.program
        def prog(A: repro.float64[N, M], B: repro.float64[M, N]):
            C = A @ B
            return np.sum(C)

        sdfg = prog.to_sdfg()
        kinds = [node.kind for state in sdfg.all_states() for node in state
                 if isinstance(node, LibraryCall)]
        assert "matmul" in kinds and "reduce_sum" in kinds

    def test_for_range_becomes_loop_region(self):
        @repro.program
        def prog(A: repro.float64[N], T: repro.int64):
            for t in range(T):
                A[1:] = A[1:] + A[:-1]
            return np.sum(A)

        sdfg = prog.to_sdfg()
        loops = list(sdfg.all_loops())
        assert len(loops) == 1
        assert loops[0].itervar == "t"

    def test_nested_triangular_loops(self):
        @repro.program
        def prog(A: repro.float64[N, N]):
            for i in range(N):
                for j in range(i + 1, N):
                    A[i, j] = A[i, j] * 0.5
            return np.sum(A)

        sdfg = prog.to_sdfg()
        loops = list(sdfg.all_loops())
        assert len(loops) == 2

    def test_if_else_becomes_conditional(self):
        @repro.program
        def prog(A: repro.float64[N]):
            if A[0] > 0:
                A[:] = A * 2
            else:
                A[:] = A * 3
            return np.sum(A)

        sdfg = prog.to_sdfg()
        conditionals = list(sdfg.all_conditionals())
        assert len(conditionals) == 1
        assert len(conditionals[0].branches) == 2

    def test_symbolic_condition_stays_symbolic(self):
        @repro.program
        def prog(A: repro.float64[N], K: repro.int64):
            for i in range(N):
                if i < K:
                    A[i] = A[i] * 2
            return np.sum(A)

        sdfg = prog.to_sdfg()
        conditional = next(iter(sdfg.all_conditionals()))
        condition, _ = conditional.branches[0]
        assert condition is not None
        assert condition.free_symbols() == {"i", "K"}

    def test_augmented_assignment_accumulates(self):
        @repro.program
        def prog(A: repro.float64[N], out: repro.float64):
            out += np.sum(A)
            return out

        sdfg = prog.to_sdfg()
        accumulating = [
            node
            for state in sdfg.all_states()
            for node in state
            if node.output.data == "out" and node.output.accumulate
        ]
        assert accumulating

    def test_return_registers_container(self):
        @repro.program
        def prog(A: repro.float64[N]):
            return np.sum(A)

        sdfg = prog.to_sdfg()
        assert sdfg.return_name == "__return"
        assert sdfg.arrays["__return"].is_scalar


class TestUnsupportedConstructs:
    def test_while_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            while A[0] > 0:
                A[0] = A[0] - 1
            return np.sum(A)

        with pytest.raises(UnsupportedFeatureError):
            prog.to_sdfg()

    def test_break_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in range(N):
                break
            return np.sum(A)

        with pytest.raises(UnsupportedFeatureError):
            prog.to_sdfg()

    def test_indirection_rejected(self):
        @repro.program
        def prog(A: repro.float64[N], idx: repro.float64[N]):
            A[0] = A[idx[0]]
            return np.sum(A)

        with pytest.raises(UnsupportedFeatureError):
            prog.to_sdfg()

    def test_unknown_function_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            B = np.fft.fft(A)
            return np.sum(B)

        with pytest.raises(UnsupportedFeatureError):
            prog.to_sdfg()

    def test_loop_over_list_rejected(self):
        @repro.program
        def prog(A: repro.float64[N]):
            for i in [0, 1, 2]:
                A[i] = 0
            return np.sum(A)

        with pytest.raises(UnsupportedFeatureError):
            prog.to_sdfg()


class TestNoCodeChanges:
    """The same source must work as plain NumPy and through the frontend -
    the paper's central usability claim."""

    def test_plain_numpy_function_parses_unchanged(self):
        def kernel(A, B, TSTEPS_value):
            for t in range(TSTEPS_value):
                B[1:-1] = 0.5 * (A[:-2] + A[2:])
                A[1:-1] = B[1:-1]
            return np.sum(A)

        # NumPy execution
        rng = np.random.default_rng(0)
        A1 = rng.random(12)
        B1 = rng.random(12)
        expected = kernel(A1.copy(), B1.copy(), 3)

        # Same body, annotated for the frontend (only the signature changes).
        @repro.program
        def kernel_repro(A: repro.float64[N], B: repro.float64[N], TSTEPS: repro.int64):
            for t in range(TSTEPS):
                B[1:-1] = 0.5 * (A[:-2] + A[2:])
                A[1:-1] = B[1:-1]
            return np.sum(A)

        result = kernel_repro(A1.copy(), B1.copy(), TSTEPS=3)
        assert result == pytest.approx(expected)


@repro.program
def reshape_function(A: repro.float64[N, M]):
    B = np.reshape(A, (-1,))
    return np.sum(B[1:] * B[:-1])


@repro.program
def reshape_method(A: repro.float64[N, M]):
    B = A.reshape((-1, 2))
    return np.sum(np.sin(B[:, 1:]) * B[:, :-1])


@repro.program
def copy_function(A: repro.float64[N]):
    B = np.copy(A)
    B[1:] = B[1:] * B[:-1]
    return np.sum(B * A)


@repro.program
def copy_method(A: repro.float64[N]):
    B = A.copy()
    B[:] = np.sin(B)
    return np.sum(B * A)


@repro.program
def zeros_with_dtype(A: repro.float64[6]):
    B = np.zeros((6,), dtype=np.float64)
    B[:] = A * A
    return np.sum(B)


@repro.program
def and_in_if(A: repro.float64[N]):
    if A[0] > 0.5 and A[1] > 0.5:
        s = np.sum(np.sin(A) * A)
    else:
        s = np.sum(np.cos(A) * A)
    return s


@repro.program
def if_expression(A: repro.float64[N]):
    B = np.sin(A) if A[0] > 0.5 else np.cos(A)
    return np.sum(B * A)


def _vector(*head):
    """A length-6 input whose leading entries are ``head`` (they pick the
    branch: ``and`` of one true and one false comparison is false)."""
    A = np.random.default_rng(0).random(6) + 0.1
    A[:len(head)] = head
    return A


#: form -> (program, input): lowerings no other test or fuzz program reaches
#: (reshape, copy, creation dtype, ``and``, conditional expression).  The
#: bodies name no symbol, so NumPy runs them undecorated.
LOWERED_FORMS = {
    "np.reshape": (reshape_function, np.random.default_rng(1).random((3, 4))),
    "ndarray.reshape": (reshape_method, np.random.default_rng(2).random((3, 4))),
    "np.copy": (copy_function, _vector()),
    "ndarray.copy": (copy_method, _vector()),
    "np.zeros(dtype=)": (zeros_with_dtype, _vector()),
    "and in if": (and_in_if, _vector(0.7, 0.3)),
    "if expression": (if_expression, _vector(0.7)),
}


@pytest.mark.parametrize("optimize", ["O0", "O1"])
@pytest.mark.parametrize("backend", ["numpy", "cython"])
@pytest.mark.parametrize("form", list(LOWERED_FORMS))
def test_lowered_form_gradient_matches_numpy(form, backend, optimize):
    """The gradient of each form against finite differences of the
    undecorated function run by NumPy, so the lowering's semantics are
    checked as well as its reversal."""
    program, A = LOWERED_FORMS[form]
    df = repro.grad(program, wrt="A", optimize=optimize, backend=backend)
    if df.report.backend != backend:
        pytest.skip(f"native backend declined {form}: {df.report.backend_fallback}")
    expected = finite_difference_gradient(program.func, (A,))
    np.testing.assert_allclose(df(A.copy()), expected, rtol=1e-5, atol=1e-7)

