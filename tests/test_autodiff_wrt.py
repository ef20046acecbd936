"""Gradients with respect to a subset of the inputs: the two-sided CCS.

The backward pass emits work only for nodes whose output the requested
inputs reach.  These cases pin the edges of that rule against finite
differences at O0/O1/O3 on both backends, and pin that the unrequested work
is really gone from the generated program.
"""

import numpy as np
import pytest

import repro
from repro.autodiff import compute_activity
from repro.baselines.numerical import finite_difference_gradient
from repro.codegen.cython_backend import find_c_compiler
from repro.ir import LibraryCall
from repro.npbench import get_kernel

N = repro.symbol("N")
M = repro.symbol("M")

BACKENDS = [
    "numpy",
    pytest.param("cython", marks=pytest.mark.skipif(
        find_c_compiler() is None, reason="no C compiler on PATH")),
]
LEVELS = ["O0", "O1", "O3"]


@repro.program
def partial_overwrite(C: repro.float64[N], D: repro.float64[N]):
    X = C * 2.0
    X[0:3] = D[0:3] * 5.0
    return np.sum(np.sin(X))


@repro.program
def loop_carried(C: repro.float64[N], D: repro.float64[N]):
    X = C * 1.0
    for t in range(3):
        X[:] = X * D + C
    return np.sum(np.sin(X))


@repro.program
def unread_input(A: repro.float64[N], B: repro.float32[M]):
    return np.sum(np.sin(A))


@repro.program
def listing1(C: repro.float64[N, N], D: repro.float64[N, N]):
    A0 = C + D
    sin0 = np.sin(A0)
    D1 = D * 6.0
    A1 = C + D1
    sin1 = np.sin(A1)
    D2 = D1 * 3.0
    A2 = C + D2
    sin2 = np.sin(A2)
    return np.sum(sin0 + sin1 + sin2)


def rand(*shape, seed=0):
    return np.random.default_rng(seed).random(shape) + 0.1


def fd_gradient(program, args, index):
    def run(*call_args):
        return program(*[np.array(a, copy=True) for a in call_args])
    return finite_difference_gradient(run, args, wrt=index, eps=1e-6)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("level", LEVELS)
class TestAgainstFiniteDifferences:
    def test_partial_overwrite_by_unrequested_data(self, level, backend):
        # X[0:3] = D[0:3] * 5 reads nothing varied, but it still overwrites
        # part of a varied container: __grad_X[0:3] must be cleared, so C's
        # gradient there is exactly zero.
        args = (rand(8), rand(8, seed=1))
        df = repro.grad(partial_overwrite, wrt="C", optimize=level, backend=backend, cache=False)
        got = df(*[a.copy() for a in args])
        np.testing.assert_allclose(got, fd_gradient(partial_overwrite, args, 0),
                                   rtol=1e-5, atol=1e-6)
        assert np.all(got[:3] == 0.0)
        assert "__grad_D" not in df.source

    def test_loop_carried_update(self, level, backend):
        args = (rand(6), rand(6, seed=1))
        df = repro.grad(loop_carried, wrt="C", optimize=level, backend=backend, cache=False)
        np.testing.assert_allclose(df(*[a.copy() for a in args]),
                                   fd_gradient(loop_carried, args, 0), rtol=1e-5, atol=1e-6)
        assert "__grad_D" not in df.source

    def test_requested_input_the_output_never_reads(self, level, backend):
        A, B = rand(5), rand(3, seed=1).astype(np.float32)
        df = repro.grad(unread_input, wrt=["A", "B"], optimize=level, backend=backend,
                        cache=False)
        got = df(A.copy(), B.copy())
        np.testing.assert_allclose(got["A"], np.cos(A), rtol=1e-12)
        assert got["B"].shape == (3,) and got["B"].dtype == np.float32
        assert not got["B"].any()


class TestPrunedWork:
    def test_listing1_wrt_c_emits_no_gradient_of_d(self):
        for level in ("O0", "O1", "O2", "O3"):
            df = repro.grad(listing1, wrt="C", optimize=level, cache=False)
            assert "__grad_D" not in df.source, level
        C, D = rand(6, 6), rand(6, 6, seed=1)
        expected = np.cos(C + D) + np.cos(C + 6.0 * D) + np.cos(C + 18.0 * D)
        np.testing.assert_allclose(df(C, D), expected, rtol=1e-12)

    def test_listing1_both_inputs_still_computes_both(self):
        df = repro.grad(listing1, wrt=["C", "D"], cache=False)
        assert "__grad_D" in df.source
        C, D = rand(6, 6), rand(6, 6, seed=1)
        got = df(C, D)
        np.testing.assert_allclose(
            got["D"], np.cos(C + D) + 6.0 * np.cos(C + 6.0 * D) + 18.0 * np.cos(C + 18.0 * D),
            rtol=1e-12)

    def test_gemm_wrt_a_runs_one_backward_matmul(self):
        program = get_kernel("gemm").program_for("S")

        def backward_matmuls(df):
            return [node for state in df.backward_sdfg.all_states() for node in state.nodes
                    if isinstance(node, LibraryCall) and node.kind == "matmul"
                    and node.label.startswith("bwd_")]

        only_a = repro.grad(program, wrt="A", cache=False)
        assert len(backward_matmuls(only_a)) == 1
        assert len(backward_matmuls(repro.grad(program, wrt=["A", "B"], cache=False))) == 2
        # The matmul's one varied operand needs only the other one's value.
        matmul_values = {req.data for req in only_a.result.storage.required
                         if isinstance(req.node, LibraryCall) and req.node.kind == "matmul"}
        assert matmul_values == {"B"}

    def test_activity_varied_set_and_pruned_nodes(self):
        sdfg = listing1.to_sdfg()
        output = sdfg.return_name
        both = compute_activity(sdfg, output)
        only_c = compute_activity(sdfg, output, ["C"])
        assert both.carries_gradient("D") and not only_c.carries_gradient("D")
        assert not only_c.carries_gradient("D1") and only_c.carries_gradient("A1")
        assert not both.pruned_nodes
        # D1 = D * 6 and D2 = D1 * 3: reachable backwards, never varied.
        assert len(only_c.pruned_nodes) == 2
        assert only_c.active_nodes | only_c.pruned_nodes == both.active_nodes
        assert "D" not in only_c.active_data and "C" in only_c.active_data

    def test_report_shows_ccs_and_pruned_counts(self):
        df = repro.grad(listing1, wrt="C", cache=False)
        info = df.report.record_for("autodiff").info
        assert info["wrt_pruned_nodes"] == 2
        assert info["ccs_nodes"] == 9
        assert "wrt_pruned_nodes=2" in df.report.pretty()
