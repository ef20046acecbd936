"""Tests for analysis passes: FLOP counting, memory footprint, simplification."""

import numpy as np
import pytest

import repro
from repro.passes import (
    count_sdfg_flops,
    eliminate_dead_code,
    prune_constant_branches,
)
from repro.symbolic import Sym, evaluate

N = repro.symbol("N")
M = repro.symbol("M")


class TestFlopCounting:
    def test_elementwise_flops_scale_with_size(self):
        @repro.program
        def f(A: repro.float64[N]):
            B = A * 2.0 + 1.0
            return np.sum(B)

        sdfg = f.to_sdfg()
        small = count_sdfg_flops(sdfg, {"N": 100})
        large = count_sdfg_flops(sdfg, {"N": 200})
        assert large > small
        assert large == pytest.approx(2 * small, rel=0.2)

    def test_matmul_flops_cubic(self):
        @repro.program
        def f(A: repro.float64[N, N], B: repro.float64[N, N]):
            C = A @ B
            return np.sum(C)

        sdfg = f.to_sdfg()
        flops = count_sdfg_flops(sdfg, {"N": 10})
        assert flops >= 2 * 10**3

    def test_loop_flops_multiply_by_trip_count(self):
        @repro.program
        def f(A: repro.float64[N], T: repro.int64):
            for t in range(T):
                A[:] = A * 1.01
            return np.sum(A)

        sdfg = f.to_sdfg()
        one = count_sdfg_flops(sdfg, {"N": 50, "T": 1})
        ten = count_sdfg_flops(sdfg, {"N": 50, "T": 10})
        assert ten > 5 * one

    def test_symbolic_result_evaluates(self):
        @repro.program
        def f(A: repro.float64[N]):
            return np.sum(A * A)

        expr = count_sdfg_flops(f.to_sdfg())
        assert evaluate(expr, {"N": 7}) > 0


class TestMemoryFootprint:
    def test_argument_bytes(self):
        @repro.program
        def f(A: repro.float64[N, M], B: repro.float32[N]):
            return np.sum(A)

        sdfg = f.to_sdfg()
        total = sum(desc.size_bytes({"N": 10, "M": 4})
                    for desc in sdfg.arrays.values() if not desc.transient)
        assert total == 10 * 4 * 8 + 10 * 4

    def test_transient_footprint_contains_temporaries(self):
        @repro.program
        def f(A: repro.float64[N, N]):
            B = A @ A
            return np.sum(B)

        sdfg = f.to_sdfg()
        footprint = [desc.size_bytes({"N": 8})
                     for desc in sdfg.arrays.values() if desc.transient]
        assert 8 * 8 * 8 in footprint


class TestSimplification:
    def test_dead_code_elimination_removes_unused(self):
        @repro.program
        def f(A: repro.float64[N]):
            unused = A * 3.0
            B = A * 2.0
            return np.sum(B)

        sdfg = f.to_sdfg()
        removed = eliminate_dead_code(sdfg)
        assert removed >= 1
        compiled = repro.compile_sdfg(sdfg)
        A = np.arange(1.0, 5.0)
        assert compiled(A) == pytest.approx(np.sum(A * 2.0))

    def test_dead_code_keeps_live_chain(self):
        @repro.program
        def f(A: repro.float64[N]):
            B = A * 2.0
            C = B + 1.0
            return np.sum(C)

        sdfg = f.to_sdfg()
        eliminate_dead_code(sdfg)
        A = np.arange(1.0, 6.0)
        assert repro.compile_sdfg(sdfg)(A) == pytest.approx(np.sum(A * 2.0 + 1.0))

    def test_prune_constant_branches(self):
        @repro.program
        def f(A: repro.float64[N], cfg: repro.int64):
            if cfg == 1:
                A[:] = A * 2.0
            else:
                A[:] = A * 3.0
            return np.sum(A)

        sdfg = f.to_sdfg()
        removed = prune_constant_branches(sdfg, {"cfg": 1})
        assert removed == 1
        assert not list(sdfg.all_conditionals())
        A = np.arange(1.0, 5.0)
        assert repro.compile_sdfg(sdfg)(A.copy(), cfg=1) == pytest.approx(np.sum(A * 2.0))

    def test_prune_keeps_runtime_branches(self):
        @repro.program
        def f(A: repro.float64[N]):
            if A[0] > 0.0:
                A[:] = A * 2.0
            return np.sum(A)

        sdfg = f.to_sdfg()
        assert prune_constant_branches(sdfg) == 0
        assert len(list(sdfg.all_conditionals())) == 1
