"""Gradients through sequential loops: compact loop reversal, stack tapes for
values overwritten across iterations, triangular loops, negative steps."""

import numpy as np
import pytest

import repro
from repro.autodiff import LoopClass, classify_program_loops
from repro.baselines.numerical import finite_difference_gradient
from repro.ir import ConditionalRegion, LoopRegion, MapCompute, Memlet, SDFG, State, Subset
from repro.npbench import all_kernels
from repro.pipeline import compile_gradient
from repro.symbolic import Sym, evaluate, parse_expr
from tests.dump_codegen import PROBES

N = repro.symbol("N")
M = repro.symbol("M")
T = repro.symbol("T")


def rand(*shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape) + 0.1


#: (optimize, backend) pairs the storage-planner probes run at.
BUILDS = [(level, backend) for level in ("O0", "O1", "O3") for backend in ("numpy", "cython")]


def check_grad(program, args, wrt_index, wrt_name, rel=1e-4, **kwargs):
    def run_forward(*call_args):
        copies = [np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in call_args]
        return program(*copies, **kwargs)

    expected = finite_difference_gradient(run_forward, args, wrt=wrt_index, eps=1e-6)
    df = repro.grad(program, wrt=wrt_name)
    copies = [np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in args]
    actual = df(*copies, **kwargs)
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=1e-6)
    return actual


class TestLinearLoops:
    """Linear loop bodies need no forwarded values at all."""

    def test_jacobi_style_timestep_loop(self):
        @repro.program
        def f(A: repro.float64[N], B: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                B[1:-1] = 0.33 * (A[:-2] + A[1:-1] + A[2:])
                A[1:-1] = 0.33 * (B[:-2] + B[1:-1] + B[2:])
            return np.sum(A)

        check_grad(f, (rand(12), rand(12, seed=1)), 0, "A", steps=4)

    def test_seidel_style_in_place_stencil(self):
        @repro.program
        def f(A: repro.float64[N, N], steps: repro.int64):
            for t in range(steps):
                for i in range(1, N - 1):
                    for j in range(1, N - 1):
                        A[i, j] = (A[i - 1, j] + A[i, j - 1] + A[i, j] + A[i, j + 1]
                                   + A[i + 1, j]) / 5.0
            return np.sum(A)

        check_grad(f, (rand(6, 6),), 0, "A", steps=2)

    def test_prefix_sum_loop(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(1, N):
                A[i] = A[i] + A[i - 1]
            return np.sum(A)

        check_grad(f, (rand(10),), 0, "A")

    def test_negative_step_loop(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(N - 2, -1, -1):
                A[i] = A[i] + 2.0 * A[i + 1]
            return np.sum(A)

        check_grad(f, (rand(9),), 0, "A")

    def test_strided_loop(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(0, N - 1, 2):
                A[i] = A[i] * 3.0 + A[i + 1]
            return np.sum(A)

        check_grad(f, (rand(11),), 0, "A")


class TestNonlinearLoops:
    """Non-linear loop bodies exercise the stack tape."""

    def test_squared_updates_need_taping(self):
        @repro.program
        def f(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                A[:] = A * A * 0.9 + 0.1
            return np.sum(A)

        check_grad(f, (rand(8),), 0, "A", steps=3)

    def test_elementwise_nonlinear_in_place(self):
        @repro.program
        def f(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                for i in range(N):
                    A[i] = np.sin(A[i]) + 0.5 * A[i]
            return np.sum(A)

        check_grad(f, (rand(7),), 0, "A", steps=3)

    def test_scalar_accumulator_with_sqrt(self):
        @repro.program
        def f(A: repro.float64[N, N], R: repro.float64[N, N]):
            for k in range(N):
                nrm = 0.0
                for i in range(N):
                    nrm += A[i, k] * A[i, k]
                R[k, k] = np.sqrt(nrm)
            return np.sum(R)

        check_grad(f, (rand(5, 5), np.zeros((5, 5))), 0, "A")

    def test_coupled_products_across_iterations(self):
        @repro.program
        def f(A: repro.float64[N], B: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                B[:] = B * A
                A[:] = A + B * B
            return np.sum(A)

        check_grad(f, (rand(6), rand(6, seed=1)), 0, "A", steps=3)
        check_grad(f, (rand(6), rand(6, seed=1)), 1, "B", steps=3)

    def test_division_inside_loop(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(1, N):
                A[i] = A[i] / (A[i - 1] + 2.0)
            return np.sum(A)

        check_grad(f, (rand(8),), 0, "A")


class TestTriangularAndNestedLoops:
    def test_triangular_update(self):
        @repro.program
        def f(A: repro.float64[N, N], B: repro.float64[N, N], alpha: repro.float64):
            for i in range(N):
                for j in range(i + 1, N):
                    B[i, :] += A[j, i] * B[j, :]
                B[i, :] = alpha * B[i, :]
            return np.sum(B)

        args = (rand(5, 5), rand(5, 5, seed=1), 1.3)
        check_grad(f, args, 0, "A")
        check_grad(f, args, 2, "alpha")

    def test_nonlinear_triangular_with_dot(self):
        @repro.program
        def f(A: repro.float64[N, N]):
            for i in range(N):
                for j in range(i):
                    A[i, j] = A[i, j] - A[i, :j] @ A[j, :j]
            return np.sum(A)

        check_grad(f, (rand(5, 5),), 0, "A", rel=1e-3)

    def test_loop_bound_from_outer_iterator(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(N):
                for j in range(i, N):
                    A[j] = A[j] * 0.9 + 0.01 * A[i] * A[i]
            return np.sum(A)

        check_grad(f, (rand(6),), 0, "A", rel=1e-3)

    def test_outer_iterator_is_invariant_through_a_conditional(self):
        @repro.program
        def f(A: repro.float64[N]):
            for i in range(N):
                if i > 0:
                    for j in range(i, N):
                        A[j] = A[j] * 0.9
            return np.sum(A)

        outer, inner = classify_program_loops(f.to_sdfg())
        assert (outer.loop.itervar, inner.loop.itervar) == ("i", "j")
        # ``i`` reaches the inner header through the conditional: affine.
        assert inner.loop_class is LoopClass.AFFINE


class TestTapeMechanics:
    def test_tape_arrays_created_only_when_needed(self):
        @repro.program
        def linear(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                A[1:] = A[1:] + A[:-1]
            return np.sum(A)

        @repro.program
        def nonlinear(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                A[:] = A * A
            return np.sum(A)

        linear_result = repro.add_backward_pass(linear.to_sdfg())
        nonlinear_result = repro.add_backward_pass(nonlinear.to_sdfg())
        linear_tapes = [n for n in linear_result.sdfg.arrays if n.startswith("__tape")]
        nonlinear_tapes = [n for n in nonlinear_result.sdfg.arrays if n.startswith("__tape")]
        assert not linear_tapes, "linear loop bodies must not allocate tapes"
        assert nonlinear_tapes, "nonlinear in-place loop bodies require a tape"

    def test_gradient_of_loop_program_is_repeatable(self):
        @repro.program
        def f(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                A[:] = A * A * 0.5 + 0.3
            return np.sum(A)

        df = repro.grad(f, wrt="A")
        A = rand(6)
        first = df(A.copy(), steps=3)
        second = df(A.copy(), steps=3)
        np.testing.assert_allclose(first, second)

    def test_empty_loop_range(self):
        @repro.program
        def f(A: repro.float64[N], steps: repro.int64):
            for t in range(steps):
                A[:] = A * A
            return np.sum(A)

        df = repro.grad(f, wrt="A")
        A = rand(5)
        np.testing.assert_allclose(df(A.copy(), steps=0), np.ones(5))

    @staticmethod
    def _check_probe(name, args, optimize, backend, **kwargs):
        """The ``PROBES`` gradient against finite differences of the O0
        forward program; skipped when the native backend declines."""
        program, wrt = PROBES[name]
        df = repro.grad(program, wrt=wrt, optimize=optimize, backend=backend)
        if df.report.backend != backend:
            pytest.skip(f"native backend declined {name}: {df.report.backend_fallback}")
        forward = repro.compile(program, optimize="O0")
        expected = finite_difference_gradient(
            lambda *a: forward(*[x.copy() for x in a], **kwargs), args, wrt=len(args) - 1)
        actual = df(*[x.copy() for x in args], **kwargs)
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("optimize, backend", BUILDS)
    @pytest.mark.parametrize("name", ["max_taped_output", "min_taped_output"])
    def test_taped_reduction_output(self, name, optimize, backend):
        """The extremum rule reads the reduction's output value, rewritten
        every iteration, off the tape at the current iteration's entry."""
        self._check_probe(name, (rand(5, 5), rand(5, seed=1)), optimize, backend, steps=3)

    @pytest.mark.parametrize("optimize, backend", BUILDS)
    @pytest.mark.parametrize("x0", [0.1, 0.9])
    def test_snapshotted_condition(self, x0, optimize, backend):
        """The condition container is overwritten after the conditional with
        the value that takes the other branch; the reversed conditional must
        test the snapshot."""
        x = rand(6)
        x[0] = x0
        self._check_probe("condition_snapshot", (x,), optimize, backend)

    @pytest.mark.parametrize("optimize", ["O0", "O1"])
    def test_condition_named_by_two_branches_is_popped_once(self, optimize):
        """``if c > 0.2: ... elif c < -0.2: ...`` in a loop: ``c`` is pushed
        once per iteration, so the reversed conditional pops it once."""
        sdfg = SDFG("two_branch_condition")
        sdfg.add_array("x", (4,), "float64")
        sdfg.add_array("c", (), "float64", transient=True)
        sdfg.add_array("acc", (), "float64", transient=True, zero_init=True)
        sdfg.arg_names = ["x"]
        sdfg.return_name = "acc"

        def scalar(expr, output, accumulate=False):
            return MapCompute(params=[], ranges=[], expr=parse_expr(expr),
                              inputs={"a": Memlet("x", Subset.point([Sym("t")]))},
                              output=Memlet(output, Subset(()), accumulate=accumulate))

        loop = LoopRegion("t", 0, 4)
        loop.body.add(State("set_c")).add(scalar("a - 0.5", "c"))
        conditional = loop.body.add(ConditionalRegion(label="branch"))
        conditional.add_branch(parse_expr("c > 0.2")).add_state("hi").add(
            scalar("sin(a) * a", "acc", accumulate=True))
        conditional.add_branch(parse_expr("c < -0.2")).add_state("lo").add(
            scalar("cos(a) * a", "acc", accumulate=True))
        sdfg.root.add(loop)

        x = np.array([0.9, 0.1, 0.95, 0.05])
        forward = repro.compile(sdfg, optimize="O0")
        expected = finite_difference_gradient(lambda a: forward(a.copy()), (x,))
        df = repro.grad(sdfg, wrt="x", optimize=optimize)
        np.testing.assert_allclose(df(x.copy()), expected, rtol=1e-6, atol=1e-8)



def tapes(sdfg, symbol_values):
    """``{tape: shape}`` of every loop tape, evaluated at ``symbol_values``."""
    return {name: tuple(int(evaluate(dim, symbol_values)) for dim in desc.shape_exprs())
            for name, desc in sdfg.arrays.items()
            if name.startswith("__tape_") and not name.endswith("_ptr")}


@repro.program
def triangular_rows(A: repro.float64[N, N]):
    for i in range(N):
        for j in range(i):
            A[i, j] = 0.5 * (A[i, j] - A[i, :j] @ A[j, :j])
    return np.sum(A)


@repro.program
def row_stencil(A: repro.float64[N, M], steps: repro.int64):
    for t in range(steps):
        for i in range(1, N - 1):
            A[i, :] = 0.5 * A[i - 1, :] * A[i + 1, :] + np.sin(A[i, :])
    return np.sum(A)


@repro.program
def single_element(A: repro.float64[N]):
    for i in range(1, N):
        A[i] = A[i] * A[i] * 0.5 + A[i - 1]
    return np.sum(A)


@repro.program
def interior_slice(A: repro.float64[N], steps: repro.int64):
    for t in range(steps):
        A[1:-1] = np.sin(A[1:-1]) * A[1:-1]
    return np.sum(A)


class TestTapeFootprints:
    """A loop tape records the footprint its reads touch, not the whole
    container: index dimensions have no tape axis, and reads whose
    footprints differ by constants share one tape."""

    CASES = {
        # A[i, :j] and A[j, :j] differ by i - j: two tapes, each bounded by N.
        "triangular_rows": (triangular_rows, (rand(6, 6),), {}, [(6,), (6,)]),
        # Rows i - 1, i and i + 1 merge into one three-row tape.
        "row_stencil": (row_stencil, (rand(6, 5),), {"steps": 2}, [(3, 5)]),
        # One element per iteration.
        "single_element": (single_element, (rand(7),), {}, [()]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_tape_holds_only_the_footprint(self, name):
        program, args, kwargs, per_iteration = self.CASES[name]
        values = {"N": args[0].shape[0], "M": args[0].shape[-1], **kwargs}
        sdfg = repro.add_backward_pass(program.to_sdfg()).sdfg
        assert sorted(shape[1:] for shape in tapes(sdfg, values).values()) == per_iteration

    @pytest.mark.parametrize("optimize, backend", BUILDS)
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradient_matches_finite_differences(self, name, optimize, backend):
        program, args, kwargs, _ = self.CASES[name]
        forward = repro.compile(program, optimize="O0")
        expected = finite_difference_gradient(
            lambda *a: forward(*[x.copy() for x in a], **kwargs), args, wrt=0, eps=1e-6)
        df = repro.grad(program, wrt="A", optimize=optimize, backend=backend)
        assert df.report.backend == backend
        actual = df(*[x.copy() for x in args], **kwargs)
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("backend", ["numpy", "cython"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_symbolic_tape_axis_is_clamped_at_zero(self, n, backend):
        """``A[1:-1]`` records ``N - 2`` elements an iteration, which at
        ``N == 1`` would be a negative tape dimension."""
        sdfg = repro.add_backward_pass(interior_slice.to_sdfg()).sdfg
        assert [shape[1:] for shape in tapes(sdfg, {"N": n, "steps": 2}).values()] == [
            (max(n - 2, 0),)]
        forward = repro.compile(interior_slice, optimize="O0")
        args = (rand(n),)
        expected = finite_difference_gradient(
            lambda a: forward(a.copy(), steps=2), args, wrt=0, eps=1e-6)
        df = repro.grad(interior_slice, wrt="A", optimize="O1", backend=backend)
        np.testing.assert_allclose(df(args[0].copy(), steps=2), expected,
                                   rtol=1e-4, atol=1e-6)


class TestTapeTable:
    """The loop tapes of the O1 gradients of all 33 kernels at preset
    ``"paper"``, summed at the preset's symbol values (compiled, not run)."""

    BOUNDS_MIB = {"cholesky": 3.5, "lu": 7.0, "gramschmidt": 3.6, "vadv": 2.0,
                  "adi": 2.0, "durbin": 0.2}

    @pytest.fixture(scope="class")
    def table(self):
        kernels = all_kernels()
        assert len(kernels) == 33
        table = {}
        for name, spec in kernels.items():
            outcome = compile_gradient(spec.program_for("paper"), wrt=[spec.wrt],
                                       optimize="O1", cache=False)
            sdfg = outcome.compiled.sdfg
            shapes = tapes(sdfg, spec.sizes["paper"])
            if shapes:
                table[name] = (len(shapes), sum(
                    np.prod(shape) * sdfg.arrays[tape].dtype.itemsize
                    for tape, shape in shapes.items()) / 2**20)
        return table

    def test_only_the_loop_kernels_tape(self, table):
        assert set(table) == set(self.BOUNDS_MIB)

    @pytest.mark.parametrize("name", sorted(BOUNDS_MIB))
    def test_kernel_tape_bound(self, table, name):
        assert table[name][1] <= self.BOUNDS_MIB[name]

    def test_total_tape_bound(self, table):
        assert sum(mib for _, mib in table.values()) <= 16.5

    def test_adi_rows_share_their_tapes(self, table):
        """Without merging footprints that differ by constants adi has 6."""
        assert table["adi"][0] == 2
