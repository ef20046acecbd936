"""The fuzz program generator: determinism, validity, grammar coverage."""

import numpy as np
import pytest

from repro.baselines.jaxlike import DeviceArray
from repro.fuzz import (
    CaseSpec,
    ProgramGenerator,
    build_oracle,
    build_sdfg,
    hard_templates,
    rebuild_shapes,
    render_oracle_source,
    render_repro_source,
)
from repro.fuzz.grammar import (
    MatMul,
    Reduce,
    SAssign,
    SFor,
    SIf,
    SReturn,
    SSliceWrite,
    Zeros,
    iter_statements,
    walk,
)


def _expressions(program):
    for stmt in iter_statements(program.body):
        if isinstance(stmt, (SAssign, SSliceWrite, SReturn)):
            yield from walk(stmt.expr)
        if isinstance(stmt, SIf):
            yield from walk(stmt.cond)


class TestDeterminism:
    def test_same_seed_same_programs(self):
        a = ProgramGenerator(42).generate(20, include_templates=False)
        b = ProgramGenerator(42).generate(20, include_templates=False)
        assert [render_repro_source(p) for p in a] == \
               [render_repro_source(p) for p in b]
        assert [p.data_seed for p in a] == [p.data_seed for p in b]

    def test_different_seeds_differ(self):
        a = ProgramGenerator(1).generate(10, include_templates=False)
        b = ProgramGenerator(2).generate(10, include_templates=False)
        assert [render_repro_source(p) for p in a] != \
               [render_repro_source(p) for p in b]

    def test_data_is_reproducible_from_spec(self):
        program = ProgramGenerator(7).random_program()
        spec = CaseSpec.from_program(program)
        first, second = spec.make_data(), spec.make_data()
        for name in first:
            np.testing.assert_array_equal(np.asarray(first[name]),
                                          np.asarray(second[name]))


class TestValidity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_programs_lower_and_execute(self, seed):
        """Every draw parses through the real frontend and the oracle runs."""
        for program in ProgramGenerator(seed).generate(
                8, include_templates=False):
            rebuild_shapes(program)  # shape discipline holds
            spec = CaseSpec.from_program(program)
            sdfg = build_sdfg(spec.repro_source, spec.args, spec.dtype,
                              spec.name)
            assert sdfg is not None
            oracle = build_oracle(spec.oracle_source)
            data = spec.make_data()
            value = oracle(*[DeviceArray(np.asarray(data[arg.name]))
                             if arg.is_array else data[arg.name]
                             for arg in spec.args],
                           **spec.symbols)
            assert np.isfinite(float(np.asarray(
                getattr(value, "value", value))))

    def test_every_array_argument_is_differentiated(self):
        for program in ProgramGenerator(5).generate(10,
                                                    include_templates=False):
            assert program.wrt() == [a.name for a in program.args if a.shape]
            assert len(program.wrt()) >= 1


class TestCoverage:
    def test_grammar_features_all_appear(self):
        """Across a modest sample, every production fires at least once."""
        programs = ProgramGenerator(11).generate(60, include_templates=False)
        stmts = [s for p in programs for s in iter_statements(p.body)]
        exprs = [e for p in programs for e in _expressions(p)]
        assert any(isinstance(s, SFor) for s in stmts), "no loops drawn"
        assert any(isinstance(s, SIf) for s in stmts), "no branches drawn"
        assert any(isinstance(s, SSliceWrite) for s in stmts), "no slice writes"
        assert any(isinstance(e, MatMul) for e in exprs), "no matmuls"
        assert any(isinstance(e, Zeros) for e in exprs), "no zeros scratch"
        assert any(isinstance(e, Reduce) and e.keepdims for e in exprs), \
            "no keepdims reductions"
        assert any(p.dtype == "float32" for p in programs), "no float32 draws"

    def test_hard_templates_cover_known_gaps(self):
        names = {p.name for p in hard_templates()}
        for expected in ("seed_hdiff_partial_window", "seed_smooth_chain",
                         "seed_branch_between_producer_consumer",
                         "seed_data_branch", "seed_shared_operand_chain",
                         "seed_gauss_seidel", "seed_matmul_relu_softmax",
                         "seed_row_stencil_tape"):
            assert expected in names

    def test_templates_run_before_random_programs(self):
        generated = ProgramGenerator(3).generate(12)
        template_names = [p.name for p in hard_templates()]
        assert [p.name for p in generated[:len(template_names)]] == \
            template_names


class TestRendering:
    def test_dual_renderings_share_structure(self):
        program = hard_templates()[0]
        repro_src = render_repro_source(program)
        oracle_src = render_oracle_source(program)
        # The functional twin rewrites slice assignment as .at[...] updates.
        assert "lap[1:-1, 1:-1] =" in repro_src
        assert "lap.at[1:-1, 1:-1].set" in oracle_src
        # Symbols become keyword-only oracle parameters.
        assert "*, M, N" in oracle_src
