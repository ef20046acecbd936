"""ILP checkpointing tests: the worked example of Section IV-A, solver
cross-validation (property-based), strategies, gradient correctness under
every strategy and the measured peak of each strategy's generated driver."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.autodiff import add_backward_pass
from repro.baselines.numerical import finite_difference_gradient
from repro.checkpointing import (
    CheckpointILP,
    ILPCheckpointing,
    RecomputeAll,
    StoreAll,
    UserSelection,
    build_ilp,
    build_memory_sequence,
    compute_candidate_costs,
    solve_bruteforce,
    solve_with_scipy,
)
from repro.checkpointing.memseq import peak_memory
from repro.harness import peak_bytes
from repro.npbench import get_kernel
from repro.pipeline import compile_gradient
from repro.util.errors import AutodiffError, CheckpointingError

N = repro.symbol("N")


@repro.program
def listing1(C: repro.float64[N, N], D: repro.float64[N, N]):
    """The paper's re-materialisation example (Listing 1), with the version
    chain written out explicitly: A0/A1/A2 feed the non-linear np.sin and are
    the forwarded values the ILP decides about."""
    A0 = C + D
    sin0 = np.sin(A0)
    D1 = D * 6.0
    A1 = C + D1
    sin1 = np.sin(A1)
    D2 = D1 * 3.0
    A2 = C + D2
    sin2 = np.sin(A2)
    return np.sum(sin0 + sin1 + sin2)


def listing1_candidates(strategy=None):
    result = add_backward_pass(listing1.to_sdfg(), strategy=strategy)
    return result


class TestCandidateDiscovery:
    def test_forwarded_arrays_are_the_sin_inputs(self):
        result = listing1_candidates()
        candidate_data = {c.data for c in result.storage.candidates.values()}
        assert candidate_data == {"A0", "A1", "A2"}

    def test_all_candidates_recompute_eligible(self):
        result = listing1_candidates()
        assert all(c.recompute_eligible for c in result.storage.candidates.values())

    def test_chain_lengths_grow_down_the_dependency_graph(self):
        result = listing1_candidates()
        by_data = {c.data: c for c in result.storage.candidates.values()}
        assert len(by_data["A0"].chain) < len(by_data["A1"].chain) < len(by_data["A2"].chain)

    def test_unplanned_read_raises(self):
        # D1 = D * 6.0 is linear: its rule needs no value, so none is planned
        # and reading one anyway is an error, not a read of the live container.
        result = listing1_candidates()
        scale = next(node for state in result.sdfg.all_states() for node in state.nodes
                     if node.output.data == "D1")
        with pytest.raises(AutodiffError, match=r"'D'.*" + re.escape(repr(scale))):
            result.storage.resolve(scale, "D")


class TestCostModel:
    def test_costs_match_paper_structure(self):
        """S_i equal, c_0 < c_1 < c_2 roughly in ratio 1:2:3, R_0 = 0 < R_1 < R_2."""
        result = listing1_candidates()
        symbol_values = {"N": 3620}
        costs = {
            c.data: compute_candidate_costs(result.sdfg, c, symbol_values)
            for c in result.storage.candidates.values()
        }
        sizes = {d: costs[d].store_bytes / 2**20 for d in costs}
        assert all(size == pytest.approx(100.0, rel=0.01) for size in sizes.values())
        assert costs["A0"].recompute_flops < costs["A1"].recompute_flops < costs["A2"].recompute_flops
        assert costs["A1"].recompute_flops == pytest.approx(2 * costs["A0"].recompute_flops, rel=0.01)
        assert costs["A2"].recompute_flops == pytest.approx(3 * costs["A0"].recompute_flops, rel=0.01)
        assert costs["A0"].recompute_extra_bytes == 0
        assert costs["A1"].recompute_extra_bytes > 0
        assert costs["A2"].recompute_extra_bytes > costs["A1"].recompute_extra_bytes


class TestILPSelection:
    def test_ilp_selects_cheapest_recomputation_under_limit(self):
        """Under a limit that forces exactly one recomputation, the ILP must
        recompute A0 (the cheapest) and store A1 and A2 - configuration C-3 of
        the paper's Fig. 13."""
        n = 512
        strategy = ILPCheckpointing(memory_limit_mib=5.0, symbol_values={"N": n})
        result = listing1_candidates(strategy=strategy)
        report = strategy.last_report
        assert report is not None
        # A 512x512 float64 array is 2 MiB; a 5 MiB budget fits two of the
        # three forwarded arrays (plus overheads) but not all three.
        assert report.decisions_by_data["A0"] == "recompute"
        assert report.decisions_by_data["A1"] == "store"
        assert report.decisions_by_data["A2"] == "store"
        assert report.modeled_peak_bytes <= report.memory_limit_bytes + 1e-6

    def test_generous_limit_stores_everything(self):
        strategy = ILPCheckpointing(memory_limit_mib=1000.0, symbol_values={"N": 256})
        listing1_candidates(strategy=strategy)
        assert set(strategy.last_report.decisions_by_data.values()) == {"store"}

    def test_infeasible_limit_raises(self):
        strategy = ILPCheckpointing(memory_limit_mib=0.01, symbol_values={"N": 512})
        with pytest.raises(CheckpointingError):
            listing1_candidates(strategy=strategy)

    def test_solver_agreement_on_listing1(self):
        strategy = ILPCheckpointing(memory_limit_mib=5.0, symbol_values={"N": 512})
        listing1_candidates(strategy=strategy)
        report = strategy.last_report
        problem = build_ilp(report.candidate_costs, report.memory_terms,
                            report.memory_limit_bytes)
        _, expected = solve_bruteforce(problem)
        assert report.objective_flops == pytest.approx(expected)

    def test_missing_symbol_values_raise(self):
        strategy = ILPCheckpointing(memory_limit_mib=10.0)
        with pytest.raises(CheckpointingError):
            listing1_candidates(strategy=strategy)

    def test_solve_time_is_reported_and_small(self):
        strategy = ILPCheckpointing(memory_limit_mib=5.0, symbol_values={"N": 256})
        listing1_candidates(strategy=strategy)
        assert strategy.last_report.solve_time_seconds < 1.0
        assert strategy.last_report.num_variables == 3


class TestGradientCorrectnessUnderStrategies:
    """Every strategy must give identical (correct) gradients - the decisions
    only trade memory for compute."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: None,
            lambda: StoreAll(),
            lambda: RecomputeAll(),
            lambda: UserSelection(recompute=["A1"]),
            lambda: ILPCheckpointing(memory_limit_mib=5.0, symbol_values={"N": 16}),
            lambda: ILPCheckpointing(memory_limit_mib=0.0055, symbol_values={"N": 16}),
        ],
        ids=["default", "store_all", "recompute_all", "user", "ilp", "ilp_tight"],
    )
    def test_gradients_identical_across_strategies(self, strategy_factory):
        rng = np.random.default_rng(0)
        C = rng.random((16, 16))
        D = rng.random((16, 16))

        def forward(Cv, Dv):
            return listing1(Cv.copy(), Dv.copy())

        expected_c = finite_difference_gradient(forward, (C, D), wrt=0, eps=1e-6)
        grads = repro.grad(listing1, strategy=strategy_factory())(C.copy(), D.copy())
        np.testing.assert_allclose(grads["C"], expected_c, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: StoreAll(),
            lambda: RecomputeAll(),
            lambda: UserSelection(recompute=["A1"]),
            lambda: ILPCheckpointing(memory_limit_mib=5.0, symbol_values={"N": 16}),
            lambda: ILPCheckpointing(memory_limit_mib=0.0055, symbol_values={"N": 16}),
        ],
        ids=["store_all", "recompute_all", "user", "ilp", "ilp_tight"],
    )
    def test_planned_o1_gradients_match_o0(self, strategy_factory):
        """At O1 memory planning shares buffers between the forwarded values
        and the recomputed chains; the gradient must not change."""
        rng = np.random.default_rng(1)
        C = rng.random((16, 16))
        D = rng.random((16, 16))
        grads = {}
        for level in ("O0", "O1"):
            outcome = compile_gradient(listing1, wrt=["C"], checkpointing=strategy_factory(),
                                       optimize=level, cache=False)
            assert (outcome.report.record_for("memory-planning") is None) == (level == "O0")
            grads[level] = outcome.compiled(C=C.copy(), D=D.copy())
        np.testing.assert_allclose(grads["O1"], grads["O0"], rtol=1e-12)

    def test_recompute_all_avoids_keeping_candidates(self):
        result_store = listing1_candidates(strategy=StoreAll())
        result_recompute = listing1_candidates(strategy=RecomputeAll())
        # Recompute-all introduces __rc_* containers for the re-derived chains.
        assert any(name.startswith("__rc_") for name in result_recompute.sdfg.arrays)
        assert not any(name.startswith("__rc_") for name in result_store.sdfg.arrays)


class TestSavedReport:
    """The autodiff pass record says how each planned read is served."""

    def test_listing1_under_recompute_all(self):
        df = repro.grad(listing1, wrt=["C", "D"], strategy=RecomputeAll(), cache=False)
        saved = df.report.record_for("autodiff").info["saved"]
        assert saved == {"direct": 0, "snapshot": 0, "tape": 0, "recompute": 3}
        assert "'recompute': 3" in df.report.pretty()

    def test_cholesky_tapes_every_read(self):
        df = repro.grad(get_kernel("cholesky").program_for("S"), wrt="A", cache=False)
        saved = df.report.record_for("autodiff").info["saved"]
        assert saved == {"direct": 0, "snapshot": 0, "tape": 6, "recompute": 0}


# ---------------------------------------------------------------------------
# Property-based solver cross-validation on random multi-dimensional knapsacks
# ---------------------------------------------------------------------------


@st.composite
def random_ilp(draw):
    num_vars = draw(st.integers(1, 7))
    keys = [f"v{i}" for i in range(num_vars)]
    costs = {k: float(draw(st.integers(1, 50))) for k in keys}
    num_constraints = draw(st.integers(1, 4))
    constraints = []
    for _ in range(num_constraints):
        coeffs = {k: float(draw(st.integers(0, 20))) for k in keys}
        bound = float(draw(st.integers(0, 60)))
        constraints.append((coeffs, bound))
    forced = set()
    if draw(st.booleans()) and num_vars > 1:
        candidate = draw(st.sampled_from(keys))
        # Only force storage if it cannot make the problem infeasible.
        if all(coeffs.get(candidate, 0.0) <= bound for coeffs, bound in constraints):
            forced.add(candidate)
    return CheckpointILP(
        keys=keys, recompute_costs=costs, constraints=constraints,
        forced_store=forced, memory_limit=0.0,
    )


class TestSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(problem=random_ilp())
    def test_exact_solvers_agree(self, problem):
        try:
            _, expected = solve_bruteforce(problem)
        except CheckpointingError:
            with pytest.raises(CheckpointingError):
                solve_with_scipy(problem)
            return
        decisions, objective = solve_with_scipy(problem)
        assert problem.feasible(decisions)
        assert objective == pytest.approx(expected, abs=1e-6)


class TestMemorySequence:
    def test_storing_more_never_reduces_modeled_peak(self):
        result = listing1_candidates()
        candidates = list(result.storage.candidates.values())
        symbol_values = {"N": 128}
        costs = {c.key: compute_candidate_costs(result.sdfg, c, symbol_values)
                 for c in candidates}
        terms = build_memory_sequence(result.sdfg, candidates, costs)
        all_store = peak_memory(terms, {c.key: 1 for c in candidates})
        all_recompute = peak_memory(terms, {c.key: 0 for c in candidates})
        assert all_store >= all_recompute

    def test_every_term_is_nonnegative(self):
        result = listing1_candidates()
        candidates = list(result.storage.candidates.values())
        symbol_values = {"N": 64}
        costs = {c.key: compute_candidate_costs(result.sdfg, c, symbol_values)
                 for c in candidates}
        terms = build_memory_sequence(result.sdfg, candidates, costs)
        for term in terms:
            for decisions in ({c.key: 0 for c in candidates}, {c.key: 1 for c in candidates}):
                assert term.evaluate(decisions) >= 0


class TestMeasuredPeak:
    def test_measured_order_follows_the_strategies(self):
        """The generated O1 driver's measured peak (tracemalloc, inputs
        excluded) orders the strategies as the paper does: recomputing
        everything needs the least memory, storing everything the most, and
        the ILP under a limit that fits two of three arrays sits between."""
        n = 256
        rng = np.random.default_rng(0)
        data = {"C": rng.random((n, n)), "D": rng.random((n, n))}
        peaks = {}
        for label, strategy in (
            ("recompute_all", RecomputeAll()),
            ("ilp", ILPCheckpointing(memory_limit_mib=20.0 * (n / 1024) ** 2,
                                     symbol_values={"N": n})),
            ("store_all", StoreAll()),
        ):
            compiled = compile_gradient(listing1, wrt=["C"], checkpointing=strategy,
                                        optimize="O1", cache=False).compiled
            peaks[label] = peak_bytes(compiled, data)
        assert peaks["recompute_all"] < peaks["ilp"] < peaks["store_all"], peaks
