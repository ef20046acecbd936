"""Tests for the unified pass-manager / compilation pipeline.

Covers the pass protocol, per-pass instrumentation, the compilation cache
(hit identity, miss on mutation), optimization levels and equivalence with
the legacy ``compile_sdfg`` / ``add_backward_pass`` path.
"""

import numpy as np
import pytest

import repro
from repro.autodiff import add_backward_pass
from repro.checkpointing import (
    CheckpointingStrategy,
    ILPCheckpointing,
    RecomputeAll,
    StoreAll,
)
from repro.codegen import compile_sdfg
from repro.npbench import get_kernel
from repro.pipeline import (
    CompilationCache,
    CompileOptions,
    Pass,
    PassManager,
    build_pipeline,
    compile_forward,
    compile_gradient,
    run_pipeline,
)
from repro.pipeline.stages import strategy_fingerprint
from repro.util.errors import PipelineError

N = repro.symbol("N")


def make_program():
    @repro.program
    def poly(A: repro.float64[N]):
        B = A * A + 3.0 * A
        return np.sum(B)

    return poly


def make_program_with_dead_code():
    @repro.program
    def with_dead(A: repro.float64[N]):
        unused = A * 7.0 + 2.0  # never contributes to the return value
        B = np.sin(A)
        return np.sum(B)

    return with_dead


class TestPassManagerInstrumentation:
    def test_per_pass_timings_and_deltas_recorded(self):
        outcome = compile_forward(make_program_with_dead_code(), "O1", cache=False)
        report = outcome.report
        names = [record.name for record in report.records]
        assert names == [
            "prune-constant-branches",
            "dead-code-elimination",
            "memory-planning",
            "codegen",
        ]
        assert all(record.seconds >= 0.0 for record in report.records)
        assert report.total_seconds == pytest.approx(
            sum(record.seconds for record in report.records)
        )
        dce = report.record_for("dead-code-elimination")
        assert dce.info["nodes_removed"] >= 1
        assert dce.nodes_after < dce.nodes_before

    def test_report_pretty_print(self):
        outcome = compile_forward(make_program(), "O1", cache=False)
        text = outcome.report.pretty()
        assert "codegen" in text
        assert "time [ms]" in text
        assert "pipeline forward-O1" in text

    def test_pipeline_does_not_mutate_input_sdfg(self):
        program = make_program_with_dead_code()
        sdfg = program.to_sdfg()
        before = sdfg.content_hash()
        compile_forward(sdfg, "O1", cache=False)
        assert sdfg.content_hash() == before

    def test_unknown_optimize_level_rejected(self):
        with pytest.raises(PipelineError):
            build_pipeline("O7")


class TestCompilationCache:
    def test_cache_hit_returns_same_compiled_object(self):
        cache = CompilationCache()
        program = make_program()
        cold = compile_forward(program, "O1", cache=cache)
        warm = compile_forward(program, "O1", cache=cache)
        assert warm.compiled is cold.compiled
        assert not cold.cache_hit and warm.cache_hit
        assert warm.report.cache_hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_gradient_cache_hit_returns_same_compiled_object(self):
        cache = CompilationCache()
        program = make_program()
        cold = compile_gradient(program, wrt="A", cache=cache)
        warm = compile_gradient(program, wrt="A", cache=cache)
        assert warm.compiled is cold.compiled
        assert warm.artifacts["backward"] is cold.artifacts["backward"]
        assert warm.cache_hit

    def test_cache_miss_after_mutation(self):
        cache = CompilationCache()
        sdfg = make_program().to_sdfg().copy()
        cold = compile_forward(sdfg, "O1", cache=cache)
        # Mutate one compute node: the content hash changes, so the cache
        # must not serve the stale compiled object.
        from repro.symbolic import parse_expr, to_python

        state = next(sdfg.all_states())
        node = state.nodes[0]
        node.expr = parse_expr(f"({to_python(node.expr)}) + 1")
        warm = compile_forward(sdfg, "O1", cache=cache)
        assert warm.compiled is not cold.compiled
        assert not warm.cache_hit
        assert cache.stats.misses == 2

    def test_different_optimize_levels_are_distinct_entries(self):
        cache = CompilationCache()
        program = make_program()
        o0 = compile_forward(program, "O0", cache=cache)
        o1 = compile_forward(program, "O1", cache=cache)
        assert o0.key != o1.key
        assert cache.stats.misses == 2

    def test_optimization_levels_have_distinct_cache_entries(self):
        # O0 / O1 / O2 pipelines have distinct fingerprints: compiling the
        # same program at each level produces three separate cache entries,
        # and a warm recompile at any level hits its own entry.
        cache = CompilationCache()
        program = make_program()
        cold = {
            level: compile_forward(program, level, cache=cache)
            for level in ("O0", "O1", "O2")
        }
        keys = {outcome.key for outcome in cold.values()}
        assert len(keys) == 3
        assert cache.stats.misses == 3 and len(cache) == 3

        warm = compile_forward(program, "O2", cache=cache)
        assert warm.cache_hit
        assert warm.compiled is cold["O2"].compiled
        assert warm.compiled is not cold["O1"].compiled

    def test_gradient_optimization_levels_are_distinct_entries(self):
        cache = CompilationCache()
        program = make_program()
        keys = {
            compile_gradient(program, wrt="A", optimize=level, cache=cache).key
            for level in ("O0", "O1", "O2")
        }
        assert len(keys) == 3
        warm = compile_gradient(program, wrt="A", optimize="O2", cache=cache)
        assert warm.cache_hit

    def test_different_wrt_selections_are_distinct_entries(self):
        @repro.program
        def two(A: repro.float64[N], B: repro.float64[N]):
            return np.sum(A * B)

        cache = CompilationCache()
        da = compile_gradient(two, wrt="A", cache=cache)
        db = compile_gradient(two, wrt="B", cache=cache)
        assert da.key != db.key

    def test_lru_eviction(self):
        cache = CompilationCache(maxsize=1)
        program = make_program()
        compile_forward(program, "O0", cache=cache)
        compile_forward(program, "O1", cache=cache)
        assert len(cache) == 1
        # O0 was evicted: compiling it again misses.
        compile_forward(program, "O0", cache=cache)
        assert cache.stats.hits == 0

    def test_cache_false_disables_caching(self):
        cache_was = repro.pipeline.DEFAULT_CACHE.stats.lookups
        outcome = compile_forward(make_program(), "O1", cache=False)
        assert outcome.key is None
        assert repro.pipeline.DEFAULT_CACHE.stats.lookups == cache_was

    def test_strategy_fingerprints_distinguish_configs(self):
        tight = ILPCheckpointing(memory_limit_mib=1.0, symbol_values={"N": 16})
        loose = ILPCheckpointing(memory_limit_mib=64.0, symbol_values={"N": 16})
        assert strategy_fingerprint(tight) != strategy_fingerprint(loose)
        assert strategy_fingerprint(StoreAll()) != strategy_fingerprint(RecomputeAll())
        assert strategy_fingerprint(None) == ("store_all",)

    def test_numpy_scalar_symbol_values_distinguish_ilp_configs(self):
        small = ILPCheckpointing(memory_limit_mib=500.0,
                                 symbol_values={"N": np.int64(64)})
        large = ILPCheckpointing(memory_limit_mib=500.0,
                                 symbol_values={"N": np.int64(1024)})
        assert strategy_fingerprint(small) != strategy_fingerprint(large)

    def test_strategy_fingerprint_stable_after_use(self):
        # Using a strategy populates diagnostic state (last_report); the
        # fingerprint must not change, or a reused instance never hits its
        # own cold cache entry.
        strategy = ILPCheckpointing(memory_limit_mib=64.0, symbol_values={"N": 8})
        before = strategy_fingerprint(strategy)
        cache = CompilationCache()
        cold = compile_gradient(make_program(), wrt="A", checkpointing=strategy,
                                cache=cache)
        assert strategy_fingerprint(strategy) == before
        warm = compile_gradient(make_program(), wrt="A", checkpointing=strategy,
                                cache=cache)
        assert warm.compiled is cold.compiled and warm.cache_hit

    def test_ilp_symbol_values_become_ints(self):
        strategy = ILPCheckpointing(memory_limit_mib=8.0,
                                    symbol_values={"N": np.int64(64)})
        assert strategy.symbol_values == {"N": 64}
        assert type(strategy.symbol_values["N"]) is int
        assert strategy_fingerprint(strategy) == strategy_fingerprint(
            ILPCheckpointing(memory_limit_mib=8.0, symbol_values={"N": 64}))

    def test_subclass_strategy_is_keyed_and_hits(self):
        class StoreEverything(CheckpointingStrategy):
            pass

        cache = CompilationCache()
        for _ in range(2):
            compile_gradient(make_program(), wrt="A",
                             checkpointing=StoreEverything(), cache=cache)
        assert len(cache) == 1 and cache.stats.hits == 1

    def test_warm_compile_replays_ilp_last_report(self):
        @repro.program
        def chain(C: repro.float64[N, N], D: repro.float64[N, N]):
            A0 = C * D
            A1 = A0 * A0
            A2 = A1 * A1 * A0
            return np.sum(A2)

        cache = CompilationCache()
        cold_strategy = ILPCheckpointing(memory_limit_mib=64.0, symbol_values={"N": 8})
        compile_gradient(chain, wrt="C", checkpointing=cold_strategy, cache=cache)
        assert cold_strategy.last_report is not None

        warm_strategy = ILPCheckpointing(memory_limit_mib=64.0, symbol_values={"N": 8})
        warm = compile_gradient(chain, wrt="C", checkpointing=warm_strategy, cache=cache)
        assert warm.cache_hit
        assert warm_strategy.last_report is not None
        assert (warm_strategy.last_report.decisions_by_data
                == cold_strategy.last_report.decisions_by_data)


class TestOptimizationLevels:
    def test_dead_code_eliminated_in_default_grad_path(self):
        program = make_program_with_dead_code()
        o0 = compile_gradient(program, wrt="A", optimize="O0", cache=False)
        o1 = compile_gradient(program, wrt="A", optimize="O1", cache=False)
        dce = o1.report.record_for("dead-code-elimination")
        assert dce is not None and dce.info["nodes_removed"] >= 1
        assert o0.report.record_for("dead-code-elimination") is None
        # The dead chain's transient survives in O0 codegen but not in O1.
        assert "unused" in o0.compiled.source
        assert "unused" not in o1.compiled.source

    def test_o0_and_o1_gradients_identical(self):
        program = make_program_with_dead_code()
        o0 = compile_gradient(program, wrt="A", optimize="O0", cache=False)
        o1 = compile_gradient(program, wrt="A", optimize="O1", cache=False)
        A = np.linspace(-1.0, 2.0, 32)
        np.testing.assert_array_equal(o0.compiled(A.copy()), o1.compiled(A.copy()))

    def test_o0_and_o1_identical_on_npbench_kernel(self):
        spec = get_kernel("seidel2d")
        data = spec.data("S")
        results = {}
        for level in ("O0", "O1"):
            outcome = compile_gradient(
                spec.program_for("S"), wrt=spec.wrt, optimize=level, cache=False
            )
            copied = {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
                      for k, v in data.items()}
            results[level] = outcome.compiled(**copied)
        np.testing.assert_array_equal(results["O0"], results["O1"])

    def test_o1_keeps_user_selected_gradient_output(self):
        # DCE must not delete the intermediate the user differentiates, even
        # though it is transient and dead w.r.t. the return value.
        @repro.program
        def f(A: repro.float64[N]):
            t = np.sum(A * A)
            return np.sum(A * 3.0)

        A = np.linspace(0.5, 1.5, 8)
        for level in ("O0", "O1"):
            df = repro.grad(f, wrt="A", output="t", optimize=level)
            np.testing.assert_allclose(df(A.copy()), 2.0 * A)

    def test_constant_branch_pruned_with_symbol_values(self):
        @repro.program
        def configured(A: repro.float64[N], cfg: repro.int64):
            if cfg == 1:
                A[:] = A * 2.0
            else:
                A[:] = A * 3.0
            return np.sum(A)

        outcome = compile_forward(
            configured, "O1", symbol_values={"cfg": 1}, cache=False
        )
        record = outcome.report.record_for("prune-constant-branches")
        assert record.info["conditionals_removed"] == 1
        A = np.arange(1.0, 5.0)
        assert outcome.compiled(A.copy(), cfg=1) == pytest.approx(np.sum(A * 2.0))


class TestLegacyEquivalence:
    def test_forward_matches_legacy_compile_sdfg(self):
        program = make_program()
        legacy = compile_sdfg(program.to_sdfg())
        pipelined = repro.compile(program, cache=False)
        A = np.linspace(0.0, 1.0, 17)
        assert pipelined(A.copy()) == legacy(A.copy())

    def test_grad_matches_legacy_backward_path(self):
        spec = get_kernel("seidel2d")
        data = spec.data("S")

        program = spec.program_for("S")
        result = add_backward_pass(program.to_sdfg(), inputs=[spec.wrt])
        legacy = compile_sdfg(result.sdfg,
                              result_names=[result.gradient_names[spec.wrt]])

        df = repro.grad(program, wrt=spec.wrt)

        def copied():
            return {k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
                    for k, v in data.items()}

        np.testing.assert_array_equal(df(**copied()), legacy(**copied()))


class TestTopLevelAPI:
    def test_repro_compile_forward(self):
        compiled = repro.compile(make_program(), cache=False)
        A = np.ones(8)
        assert compiled(A) == pytest.approx(np.sum(A * A + 3.0 * A))
        assert hasattr(compiled, "pipeline_report")

    def test_repro_compile_gradient_via_wrt(self):
        df = repro.compile(make_program(), wrt="A", cache=CompilationCache())
        A = np.linspace(0.5, 1.5, 9)
        np.testing.assert_allclose(df(A.copy()), 2.0 * A + 3.0)
        assert df.report.record_for("autodiff") is not None

    def test_repro_compile_output_implies_gradient(self):
        @repro.program
        def f(A: repro.float64[N]):
            t = np.sum(A * A)
            return np.sum(A * 3.0)

        df = repro.compile(f, output="t", cache=CompilationCache())
        assert isinstance(df, repro.GradientFunction)
        A = np.linspace(0.5, 1.5, 8)
        np.testing.assert_allclose(df(A.copy()), 2.0 * A)

    def test_cached_object_report_reflects_latest_compile(self):
        cache = CompilationCache()
        program = make_program()
        cold = compile_forward(program, "O1", cache=cache)
        assert cold.compiled.pipeline_report.cache_hit is False
        warm = compile_forward(program, "O1", cache=cache)
        assert warm.compiled.pipeline_report.cache_hit is True

    def test_repro_compile_with_checkpointing_spec(self):
        df = repro.compile(
            make_program(), gradient=True, checkpointing=RecomputeAll(),
            cache=CompilationCache(),
        )
        A = np.linspace(0.5, 1.5, 9)
        np.testing.assert_allclose(df(A.copy()), 2.0 * A + 3.0)
        selection = df.report.record_for("checkpointing-selection")
        assert selection.info["strategy"] == "RecomputeAll"

    def test_grad_uses_shared_cache(self):
        program = make_program()
        first = repro.grad(program, wrt="A")
        second = repro.grad(program, wrt="A")
        assert second.compiled is first.compiled
        assert second.cache_hit

    def test_unknown_checkpointing_name_rejected(self):
        with pytest.raises(TypeError, match="CheckpointingStrategy instance"):
            repro.compile(make_program(), gradient=True, checkpointing="bogus",
                          cache=False)

    def test_gradient_false_with_gradient_options_rejected(self):
        with pytest.raises(PipelineError):
            repro.compile(make_program(), gradient=False, wrt="A", cache=False)


class TestCustomPasses:
    def test_extra_pass_runs_and_is_reported(self):
        class CountArrays(Pass):
            name = "count-arrays"

            def apply(self, sdfg, ctx):
                ctx.note("arrays", len(sdfg.arrays))
                return sdfg

        outcome = compile_forward(
            make_program(), "O1", cache=False, extra_passes=[CountArrays()]
        )
        record = outcome.report.record_for("count-arrays")
        assert record is not None and record.info["arrays"] >= 1

    @pytest.mark.parametrize("entry", ["codegen", lambda sdfg, ctx: sdfg],
                             ids=["name", "function"])
    def test_anything_but_a_pass_instance_is_a_type_error(self, entry):
        for build in (
            lambda: PassManager([entry]),
            lambda: build_pipeline("O0", extra_passes=[entry]),
            lambda: compile_forward(make_program(), "O0", cache=False,
                                    extra_passes=[entry]),
            lambda: CompileOptions(extra_passes=[entry]),
        ):
            with pytest.raises(TypeError, match="subclass repro.pipeline.Pass"):
                build()

    def test_pass_fingerprints_key_the_cache(self):
        class Scale(Pass):
            name = "scale"

            def __init__(self, factor):
                self.factor = factor

            def apply(self, sdfg, ctx):
                ctx.note("factor", self.factor)
                return sdfg

            def fingerprint(self):
                return (self.name, self.factor)

        cache, program = CompilationCache(), make_program()
        first = compile_forward(program, "O0", cache=cache, extra_passes=[Scale(2)])
        again = compile_forward(program, "O0", cache=cache, extra_passes=[Scale(2)])
        other = compile_forward(program, "O0", cache=cache, extra_passes=[Scale(3)])
        assert again.cache_hit and again.compiled is first.compiled
        assert not other.cache_hit and other.key != first.key
        assert other.report.record_for("scale").info["factor"] == 3

    def test_cache_true_uses_default_cache(self):
        program = make_program()
        baseline = repro.pipeline.DEFAULT_CACHE.stats.lookups
        outcome = compile_forward(program, "O1", cache=True)
        assert repro.pipeline.DEFAULT_CACHE.stats.lookups == baseline + 1
        assert outcome.compiled is not None


class TestCachePersistence:
    """Opt-in disk persistence: ``CompilationCache(persist_dir=...)``."""

    def test_fresh_cache_instance_loads_spilled_entries(self, tmp_path):
        program = make_program()
        cold = CompilationCache(persist_dir=str(tmp_path))
        first = compile_forward(program, "O1", cache=cold)
        assert not first.cache_hit
        assert list(tmp_path.glob("*.pkl"))

        # A brand-new cache (a fresh process start, in miniature) finds the
        # spilled entry on its first lookup: no pipeline stage re-runs.
        warm = CompilationCache(persist_dir=str(tmp_path))
        second = compile_forward(program, "O1", cache=warm)
        assert second.cache_hit
        assert warm.stats.disk_hits == 1 and warm.stats.misses == 0
        assert warm.stats.hit_rate == 1.0
        x = np.arange(5.0)
        np.testing.assert_allclose(second.compiled(A=x.copy()), first.compiled(A=x.copy()))

    def test_gradient_compiles_roundtrip_through_disk(self, tmp_path):
        program = make_program()
        cold = CompilationCache(persist_dir=str(tmp_path))
        first = compile_gradient(program, wrt="A", cache=cold)
        warm = CompilationCache(persist_dir=str(tmp_path))
        second = compile_gradient(program, wrt="A", cache=warm)
        assert second.cache_hit and warm.stats.disk_hits == 1
        assert "backward" in second.artifacts
        x = np.arange(4.0) + 1.0
        np.testing.assert_allclose(
            np.asarray(second.compiled(A=x.copy())),
            np.asarray(first.compiled(A=x.copy())),
        )

    def test_compiled_sdfg_pickles_via_generated_source(self):
        import pickle

        compiled = compile_forward(make_program(), "O1", cache=False).compiled
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.source == compiled.source
        x = np.arange(6.0)
        np.testing.assert_allclose(restored(A=x.copy()), compiled(A=x.copy()))

    def test_without_persist_dir_nothing_is_written(self, tmp_path):
        cache = CompilationCache()
        compile_forward(make_program(), "O1", cache=cache)
        assert not list(tmp_path.iterdir())

    def test_unpicklable_artifacts_skip_spilling_silently(self, tmp_path):
        cache = CompilationCache(persist_dir=str(tmp_path))
        outcome = compile_forward(make_program(), "O1", cache=cache)
        entry = cache.lookup(outcome.key)
        entry.artifacts["handle"] = open(__file__)  # noqa: SIM115 - deliberately unpicklable
        try:
            assert not cache._spill(entry)
        finally:
            entry.artifacts["handle"].close()

    def test_spill_from_other_source_revision_is_a_miss(self, tmp_path, monkeypatch):
        from repro.pipeline import cache as cache_module

        program = make_program()
        monkeypatch.setattr(cache_module, "source_revision", lambda: "older-code")
        compile_forward(program, "O1", cache=CompilationCache(persist_dir=str(tmp_path)))
        monkeypatch.undo()
        fresh = CompilationCache(persist_dir=str(tmp_path))
        outcome = compile_forward(program, "O1", cache=fresh)
        assert not outcome.cache_hit
        assert fresh.stats.disk_hits == 0 and fresh.stats.misses == 1  # recompiled
        same = CompilationCache(persist_dir=str(tmp_path))
        assert compile_forward(program, "O1", cache=same).cache_hit
        assert same.stats.disk_hits == 1

    def test_corrupt_spill_file_is_treated_as_miss(self, tmp_path):
        program = make_program()
        cache = CompilationCache(persist_dir=str(tmp_path))
        compile_forward(program, "O1", cache=cache)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = CompilationCache(persist_dir=str(tmp_path))
        outcome = compile_forward(program, "O1", cache=fresh)
        assert not outcome.cache_hit
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
