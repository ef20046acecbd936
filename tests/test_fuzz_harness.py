"""The differential harness and shrinker: ok/skip/fail semantics, injected
faults, and delta-debugging minimization."""

import numpy as np
import pytest

from repro.baselines.jaxlike import numpy_api
from repro.fuzz import (
    CaseSpec,
    Config,
    DifferentialRunner,
    FailureSignature,
    ProgramGenerator,
    full_matrix,
    hard_templates,
    render_repro_source,
    reproduces,
    run_case,
    shrink,
)
from repro.fuzz.grammar import SAssign, Un, iter_statements, walk


def _template(name):
    return next(p for p in hard_templates() if p.name == name)


class TestMatrix:
    def test_full_matrix_covers_all_dimensions(self):
        configs = full_matrix()
        assert len(configs) == 32
        assert len(set(configs)) == 32
        assert {c.tier for c in configs} == {"O0", "O1", "O2", "O3"}
        assert {c.mode for c in configs} == {"forward", "grad", "vmap",
                                             "vmap_grad"}
        assert {c.backend for c in configs} == {"numpy", "cython"}


class TestOutcomes:
    def test_agreeing_program_is_ok_everywhere(self):
        spec = CaseSpec.from_program(_template("seed_shared_operand_chain"))
        outcomes = run_case(spec, [
            Config("O0", "forward", "numpy"), Config("O3", "forward", "numpy"),
            Config("O3", "grad", "numpy"), Config("O2", "vmap", "numpy"),
            Config("O1", "vmap_grad", "numpy"),
        ])
        assert [o.status for o in outcomes] == ["ok"] * 5

    def test_data_branch_skips_under_vmap_with_reason(self):
        """Per-sample control flow is declined, not silently miscompiled."""
        spec = CaseSpec.from_program(_template("seed_data_branch"))
        runner = DifferentialRunner(spec)
        forward = runner.run(Config("O2", "forward", "numpy"))
        assert forward.status == "ok"
        vmapped = runner.run(Config("O2", "vmap", "numpy"))
        assert vmapped.status == "skip"
        assert vmapped.error_type == "UnsupportedFeatureError"
        assert "batched data" in vmapped.reason

    def test_skip_outcomes_always_carry_a_reason(self):
        spec = CaseSpec.from_program(_template("seed_data_branch"))
        for outcome in run_case(spec):
            if outcome.status == "skip":
                assert outcome.reason, outcome.config.label()

    def test_outcome_serialization_round_trips_the_label(self):
        spec = CaseSpec.from_program(_template("seed_float32_elementwise"))
        outcome = DifferentialRunner(spec).run(Config("O1", "forward", "numpy"))
        payload = outcome.to_dict()
        assert payload["config"] == "O1/forward/numpy"
        assert payload["status"] == "ok"

    def test_call_boundary_presentations_agree_with_the_plain_call(self, monkeypatch):
        """Every presentation of the inputs is ok against the plain call, the
        label round-trips, and a native call without its contiguity guard
        fails on Fortran-order inputs."""
        from repro.codegen import CompiledSDFG
        from repro.codegen.cython_backend import NativeCompiledSDFG
        from repro.fuzz.__main__ import with_call_boundary_dimension
        from repro.fuzz.corpus import parse_config

        configs = with_call_boundary_dimension(
            [Config("O1", "grad", "numpy"), Config("O2", "forward", "cython")])
        assert len(configs) == 10
        assert configs[7].label() == "O2/forward/cython/call-fortran"
        assert [parse_config(config.label()) for config in configs] == configs
        runner = DifferentialRunner(
            CaseSpec.from_program(_template("seed_hdiff_partial_window")))
        outcomes = [runner.run(config) for config in configs]
        assert [outcome.status for outcome in outcomes] == ["ok"] * 10

        if outcomes[7].backend_fallback is None:  # a C toolchain is present
            monkeypatch.setattr(NativeCompiledSDFG, "call_with_bindings",
                                CompiledSDFG.call_with_bindings)
            assert runner.run(configs[7]).error_type == "Divergence"

    def test_wrt_subset_differentiates_a_strict_subset(self):
        """Every gradient configuration is followed by one over a strict
        subset of the arrays; the labels round-trip and the subset agrees
        with the oracle's gradient for the same argnums, including where the
        unrequested array meets a requested one (``a * b``)."""
        import random

        from repro.fuzz.__main__ import with_wrt_subset_dimension
        from repro.fuzz.corpus import parse_config

        program = _template("seed_float32_elementwise")
        arrays = {arg.name for arg in program.args if arg.is_array}
        configs = with_wrt_subset_dimension(
            [Config("O0", "forward", "numpy"), Config("O1", "grad", "numpy"),
             Config("O3", "vmap_grad", "numpy")], program, random.Random(3))
        assert [c.mode for c in configs] == ["forward", "grad", "grad",
                                             "vmap_grad", "vmap_grad"]
        for config in (configs[2], configs[4]):
            assert config.wrt and set(config.wrt) < arrays
            assert "/wrt-" in config.label()
        assert [parse_config(config.label()) for config in configs] == configs
        runner = DifferentialRunner(CaseSpec.from_program(program))
        assert [runner.run(config).status for config in configs] == ["ok"] * 5

        single = _template("seed_hdiff_partial_window")
        plain = [Config("O1", "grad", "numpy")]
        assert with_wrt_subset_dimension(plain, single, random.Random(3)) == plain

    def test_float32_uses_loosened_tolerance(self):
        spec = CaseSpec.from_program(_template("seed_float32_elementwise"))
        assert spec.tolerance == 1e-4
        spec64 = CaseSpec.from_program(_template("seed_smooth_chain"))
        assert spec64.tolerance == 1e-9


class TestInjectedFault:
    """End-to-end: corrupt one primitive, catch it, minimize the catch."""

    @pytest.fixture()
    def broken_tanh(self, monkeypatch):
        real = numpy_api.tanh
        monkeypatch.setattr(numpy_api, "tanh", lambda x: real(x) * 1.001)
        return real

    def _program_with_tanh(self):
        generator = ProgramGenerator(77)
        while True:
            program = generator.random_program()
            if ("np.tanh" in render_repro_source(program)
                    and program.statement_count() >= 8):
                return program

    def test_divergence_is_detected(self, broken_tanh):
        program = self._program_with_tanh()
        outcome = DifferentialRunner(CaseSpec.from_program(program)).run(
            Config("O0", "forward", "numpy"))
        assert outcome.status == "fail"
        assert outcome.error_type == "Divergence"
        assert outcome.max_err > 0

    def test_reproduces_predicate_tracks_the_fault(self, broken_tanh):
        program = self._program_with_tanh()
        config = Config("O0", "forward", "numpy")
        outcome = DifferentialRunner(CaseSpec.from_program(program)).run(config)
        signature = FailureSignature.of(outcome)
        assert reproduces(program, signature)

    def test_shrinker_minimizes_to_small_repro(self, broken_tanh):
        """The acceptance bar: an injected fault shrinks to <= 10 statements
        and the minimized program still contains the faulty primitive."""
        program = self._program_with_tanh()
        config = Config("O0", "forward", "numpy")
        outcome = DifferentialRunner(CaseSpec.from_program(program)).run(config)
        assert outcome.status == "fail"
        result = shrink(program, FailureSignature.of(outcome))
        assert result.statements <= 10
        assert result.statements < result.original_statements
        assert "np.tanh" in render_repro_source(result.program)
        # The minimized program still reproduces the divergence.
        assert reproduces(result.program, FailureSignature.of(outcome))

    def test_fault_disappears_after_revert(self):
        program = self._program_with_tanh()
        outcome = DifferentialRunner(CaseSpec.from_program(program)).run(
            Config("O0", "forward", "numpy"))
        assert outcome.status == "ok"


class TestShrinkPasses:
    def test_shrink_with_cheap_predicate_reaches_minimal_form(self):
        """With a pure structural predicate ("program contains exp"), the
        shrinker strips everything else."""
        program = _template("seed_branch_between_producer_consumer")

        def has_exp(candidate):
            for stmt in iter_statements(candidate.body):
                if isinstance(stmt, SAssign):
                    if any(isinstance(node, Un) and node.fn == "exp"
                           for node in walk(stmt.expr)):
                        return True
            return False

        signature = FailureSignature(Config("O0", "forward", "numpy"),
                                     "Divergence")
        result = shrink(program, signature, predicate=has_exp)
        assert has_exp(result.program)
        assert result.statements <= 2  # the exp assign and the return

    def test_shrink_returns_program_unchanged_when_nothing_helps(self):
        program = _template("seed_float32_elementwise")
        signature = FailureSignature(Config("O0", "forward", "numpy"),
                                     "Divergence")
        result = shrink(program, signature, predicate=lambda c: False)
        assert result.statements == program.statement_count()


class TestSharedData:
    def test_batched_data_has_leading_batch_axis(self):
        spec = CaseSpec.from_program(_template("seed_smooth_chain"), batch=3)
        data = spec.make_batched_data()
        plain = spec.make_data()
        for arg in spec.args:
            if arg.is_array:
                assert np.asarray(data[arg.name]).shape == \
                    (3,) + np.asarray(plain[arg.name]).shape
