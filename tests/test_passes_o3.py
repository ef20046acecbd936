"""Tests for the O3 tier: the static cost model, cost-model-driven
(stencil-offset and gradient-aware) map fusion, and offset-shifted producer
hoisting in code generation.

Structural tests drive the raw pieces (``repro.passes.cost``,
``repro.passes.fusion`` with a :class:`CostModel`, ``repro.codegen.stencil``)
on lowered programs; numerical tests assert that ``optimize="O3"`` never
changes forward values and keeps gradients equal to ``O0`` (1e-9 relative,
on kernels whose gradients are not identically zero); pipeline tests assert
the O3 cache fingerprint is distinct from O0-O2 and that decision counts
reach the report.
"""

import numpy as np
import pytest

import repro
from repro.harness import copy_data
from repro.ir import MapCompute
from repro.npbench import get_kernel
from repro.passes import (
    CostModel,
    CostModelConfig,
    fuse_elementwise_maps,
    summarize_decisions,
)
from repro.pipeline import build_pipeline, compile_forward, compile_gradient

N = repro.symbol("N")
M = repro.symbol("M")


def _map_nodes(sdfg):
    return [node for state in sdfg.all_states() for node in state
            if isinstance(node, MapCompute)]


def _model(sdfg, **knobs):
    return CostModel(sdfg, config=CostModelConfig(**knobs))


# --------------------------------------------------------------------- cost model
class TestCostModel:
    def test_container_bytes_is_symbolic_volume_times_itemsize(self):
        @repro.program
        def prog(x: repro.float64[N, M]):
            u = x * 2.0
            return np.sum(u)

        sdfg = prog.to_sdfg()
        model = _model(sdfg)
        assert model.evaluate(model.container_bytes("x")) == 1024 * 1024 * 8
        model_sized = CostModel(sdfg, symbol_values={"N": 8, "M": 4})
        assert model_sized.evaluate(model_sized.container_bytes("x")) == 8 * 4 * 8

    def test_single_offset_fusion_is_priced_profitable(self):
        @repro.program
        def prog(x: repro.float64[N]):
            u = x * 2.0
            v = u + 1.0
            return np.sum(v)

        sdfg = prog.to_sdfg()
        model = _model(sdfg)
        # ``v`` feeds the reduction (a library node), so only ``u`` fuses.
        assert fuse_elementwise_maps(sdfg, cost_model=model) == 1
        summary = summarize_decisions(model.decisions)
        assert summary["fused"] == 1 and summary["declined"] == 0

    def test_container_traffic_sums_write_and_read_volumes(self):
        @repro.program
        def prog(x: repro.float64[N]):
            u = x * 2.0
            v = u[1:] - u[:-1]
            return np.sum(v)

        from repro.ir import collect_uses

        sdfg = prog.to_sdfg()
        model = CostModel(sdfg, symbol_values={"N": 10})
        sites = collect_uses(sdfg)["u"]
        assert len(list(sites.traffic_sites())) == 3  # 1 write + 2 reads
        # One full write (10 elements) + two offset reads (9 each), 8B items.
        traffic = model.evaluate(model.container_traffic_bytes("u", sites))
        assert traffic == (10 + 9 + 9) * 8
        # Per-node FLOPs query used by pass authors (docs/cost-model.md).
        producer = sites.writes[0].node
        assert model.evaluate(model.node_flops(producer)) == 10  # one mul

    def test_o3_not_weaker_than_o2_on_strided_linear_candidate(self):
        # Regression (PR 3 review): the operand-read charge must credit the
        # producer's original pass and the eliminated transient reads, or a
        # strided consumer (non-hoistable, single offset) gets declined at
        # O3 while O2 happily fuses it.
        @repro.program
        def prog(a: repro.float64[N], b: repro.float64[N], c: repro.float64[N],
                 d: repro.float64[N], e: repro.float64[N], f: repro.float64[N],
                 g: repro.float64[N]):
            t = a + b + c + d + e + f
            out = t[::2] * g[::2]
            return np.sum(out)

        base = prog.to_sdfg()
        o2_sdfg, o3_sdfg = base.copy(), base.copy()
        assert fuse_elementwise_maps(o2_sdfg) == 1
        model = _model(o3_sdfg)
        assert fuse_elementwise_maps(o3_sdfg, cost_model=model) == 1
        assert "t" not in o3_sdfg.arrays
        assert model.decisions[-1].reason == "traffic-saved"

    def test_knobs_change_decisions(self):
        # With every modelled FLOP costing an absurd amount of traffic, even
        # single-offset fusion of a nontrivial producer is declined.
        @repro.program
        def prog(x: repro.float64[N]):
            u = x * 2.0 + 1.0
            v = u[1:] - u[:-1]
            return np.sum(v)

        sdfg = prog.to_sdfg()
        expensive = _model(sdfg, bytes_per_flop=1e9)
        fuse_elementwise_maps(sdfg, cost_model=expensive)
        assert "u" in sdfg.arrays  # stencil recompute priced out

        sdfg2 = prog.to_sdfg()
        cheap = _model(sdfg2)  # default NumPy-backend knobs: hoistable => fuse
        assert fuse_elementwise_maps(sdfg2, cost_model=cheap) >= 1
        assert "u" not in sdfg2.arrays


# ----------------------------------------------------------- multi-offset fusion
class TestStencilFusion:
    def test_offset_reads_fuse_only_with_cost_model(self):
        @repro.program
        def stencil(x: repro.float64[N]):
            u = x * 0.5
            v = u[2:] - u[:-2]
            return np.sum(v)

        sdfg = stencil.to_sdfg()
        assert fuse_elementwise_maps(sdfg) == 0  # O2 behaviour unchanged
        assert "u" in sdfg.arrays
        assert fuse_elementwise_maps(sdfg, cost_model=_model(sdfg)) >= 1
        assert "u" not in sdfg.arrays

    def test_fused_stencil_matches_unfused_values(self):
        @repro.program
        def chain(x: repro.float64[N]):
            lap = 4.0 * x[1:-1] - (x[:-2] + x[2:])
            flx = lap[1:] - lap[:-1]
            out = 0.7 * (flx[1:] - flx[:-1])
            return np.sum(out)

        x = np.linspace(-1.0, 2.0, 57)
        o0 = compile_forward(chain, "O0", cache=False).compiled(x.copy())
        o3 = compile_forward(chain, "O3", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o3, o0, rtol=1e-12)

    def test_hoisted_window_temporaries_in_generated_source(self):
        @repro.program
        def chain(x: repro.float64[N]):
            u = x[:-1] + x[1:]
            v = u[:-1] + u[1:]
            return np.sum(v)

        outcome = compile_forward(chain, "O3", cache=False)
        source = outcome.compiled.source
        assert "__stencil0" in source
        # The producer is evaluated once (one binding), not once per offset.
        assert source.count("__stencil0 =") == 1
        assert "u" not in outcome.compiled.sdfg.arrays

    def test_multi_offset_repeated_same_offset_reads(self):
        # u read twice at the same offset plus once shifted: three connectors,
        # two offset groups.
        @repro.program
        def prog(x: repro.float64[N]):
            u = x + 1.0
            v = u[:-1] * u[:-1] + u[1:]
            return np.sum(v)

        x = np.linspace(0.1, 1.4, 33)
        o0 = compile_forward(prog, "O0", cache=False).compiled(x.copy())
        o3 = compile_forward(prog, "O3", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o3, o0, rtol=1e-12)

    def test_duplicate_connectors_in_a_later_offset_group(self):
        # Regression: the offset group comes first, the duplicate-subset
        # group second; deduplication must not run between group inlines or
        # the second group's connectors disappear from under it (KeyError).
        @repro.program
        def prog(x: repro.float64[N]):
            u = x + 1.0
            v = u[1:] + u[:-1] * u[:-1]
            return np.sum(v)

        sdfg = prog.to_sdfg()
        assert fuse_elementwise_maps(sdfg, cost_model=_model(sdfg)) >= 1
        assert "u" not in sdfg.arrays
        x = np.linspace(0.2, 1.8, 29)
        o0 = compile_forward(prog, "O0", cache=False).compiled(x.copy())
        o3 = compile_forward(prog, "O3", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o3, o0, rtol=1e-12)

    def test_transposed_offset_reads_not_classified_hoistable(self):
        # T read transposed (T[j, i]) violates the vectorizer's axis-order
        # constraint, so _offset_info must classify the candidate as
        # non-hoistable — the cost model then prices full per-offset
        # recompute instead of assuming a union-window binding that code
        # generation could never emit.
        from repro.ir import Memlet, Range, Subset
        from repro.ir.nodes import MapCompute
        from repro.ir.subsets import Index
        from repro.passes.fusion import _offset_info
        from repro.symbolic import Const, Sym

        n = Sym("N")
        producer = MapCompute(
            params=("a", "b"),
            ranges=(Range(Const(0), n), Range(Const(0), n)),
            expr=Sym("__x") * Const(2.0),
            inputs={"__x": Memlet("x", Subset.point([Sym("a"), Sym("b")]))},
            output=Memlet("T", Subset.point([Sym("a"), Sym("b")])),
        )
        consumer = MapCompute(
            params=("i", "j"),
            ranges=(Range(Const(0), n - Const(1)), Range(Const(0), n)),
            expr=Sym("c0") + Sym("c1"),
            inputs={},
            output=Memlet("out", Subset.point([Sym("i"), Sym("j")])),
        )
        transposed = [
            (["c0"], (Sym("j"), Sym("i"))),
            (["c1"], (Sym("j") + Const(1), Sym("i"))),
        ]
        offsets, hoistable, _ = _offset_info(producer, consumer, transposed)
        assert offsets == [(0, 0), (1, 0)]
        assert not hoistable

        straight = [
            (["c0"], (Sym("i"), Sym("j"))),
            (["c1"], (Sym("i") + Const(1), Sym("j"))),
        ]
        _, hoistable_straight, lengths = _offset_info(producer, consumer, straight)
        assert hoistable_straight and lengths is not None

    def test_two_dimensional_offsets(self):
        @repro.program
        def prog(x: repro.float64[N, M]):
            u = x * 0.25
            v = u[1:, 1:] + u[:-1, :-1]
            return np.sum(v)

        x = np.arange(56, dtype=np.float64).reshape(7, 8) * 0.125
        o0 = compile_forward(prog, "O0", cache=False).compiled(x.copy())
        o3 = compile_forward(prog, "O3", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o3, o0, rtol=1e-12)

    def test_smooth_chain_kernel_fuses_fully_at_o3(self):
        spec = get_kernel("smooth_chain")
        program = spec.program_for("S")
        o2 = compile_forward(program, "O2", cache=False)
        o3 = compile_forward(program, "O3", cache=False)
        assert o2.report.record_for("map-fusion").info["maps_fused"] == 0
        assert o3.report.record_for("map-fusion").info["fused_stencil"] == 7

        data = spec.data("S")
        np.testing.assert_allclose(
            o3.compiled(**copy_data(data)), o2.compiled(**copy_data(data)),
            rtol=1e-12,
        )


# ------------------------------------------------------------ gradient awareness
class TestGradientAwareFusion:
    def test_nonlinear_consumption_declined_in_gradient_mode(self):
        spec = get_kernel("bias_act")
        program = spec.program_for("S")
        forward = compile_forward(program, "O3", cache=False)
        gradient = compile_gradient(program, wrt=spec.wrt, optimize="O3", cache=False)
        fwd_info = forward.report.record_for("map-fusion").info
        grad_info = gradient.report.record_for("map-fusion").info
        # Forward compile fuses the whole epilogue; the gradient compile
        # declines the nonlinearly-consumed values the tape must store.
        assert fwd_info["maps_fused"] == 3
        assert grad_info["maps_fused"] < fwd_info["maps_fused"]
        assert grad_info["declined_gradient"] >= 2

    def test_o3_gradients_match_o0(self):
        for kernel in ("bias_act", "smooth_chain"):
            spec = get_kernel(kernel)
            program = spec.program_for("S")
            data = spec.data("S")
            g0 = np.asarray(
                compile_gradient(program, wrt=spec.wrt, optimize="O0", cache=False)
                .compiled(**copy_data(data))
            )
            g3 = np.asarray(
                compile_gradient(program, wrt=spec.wrt, optimize="O3", cache=False)
                .compiled(**copy_data(data))
            )
            np.testing.assert_allclose(g3, g0, rtol=1e-9)

    def test_linear_consumption_still_fuses_in_gradient_mode(self):
        @repro.program
        def linear(x: repro.float64[N], y: repro.float64[N]):
            u = x * 2.0
            v = u + y
            return np.sum(v)

        sdfg = linear.to_sdfg()
        model = _model(sdfg)
        fused = fuse_elementwise_maps(sdfg, cost_model=model, gradient_aware=True)
        assert fused >= 1 and "u" not in sdfg.arrays
        assert summarize_decisions(model.decisions)["declined_gradient"] == 0


# ----------------------------------------------------- cross-state fusion guards
class TestCrossStateFusionGuards:
    """Fusion across plain states works; control-flow boundaries don't (the
    remaining ROADMAP limitation, pinned down by these tests)."""

    def test_producer_and_consumer_in_different_plain_states_fuse(self):
        # The frontend gives every assignment its own state, so any chain
        # already exercises the cross-state window check.
        @repro.program
        def chain(x: repro.float64[N]):
            u = x * 2.0
            v = u + 1.0
            return np.sum(v)

        sdfg = chain.to_sdfg()
        producer_states = [s.label for s in sdfg.all_states()]
        assert len(producer_states) >= 3  # one state per statement
        assert fuse_elementwise_maps(sdfg) == 1
        assert "u" not in sdfg.arrays

    def test_loop_region_between_producer_and_consumer_blocks_fusion(self):
        @repro.program
        def loop_between(x: repro.float64[N], acc: repro.float64[N],
                         TSTEPS: repro.int64):
            u = x * 2.0
            for t in range(TSTEPS):
                acc[:] = acc + 1.0
            v = u * 3.0
            return np.sum(v)

        sdfg = loop_between.to_sdfg()
        fuse_elementwise_maps(sdfg, cost_model=_model(sdfg))
        assert "u" in sdfg.arrays  # loop body could run between P and C

    def test_consumer_inside_conditional_region_blocks_fusion(self):
        @repro.program
        def cond_consumer(x: repro.float64[N], flag: repro.int64):
            u = x * 2.0
            v = x * 0.0
            if flag > 0:
                v = u * 3.0
            return np.sum(v)

        sdfg = cond_consumer.to_sdfg()
        fuse_elementwise_maps(sdfg, cost_model=_model(sdfg))
        assert "u" in sdfg.arrays  # consumer lives in another region

    def test_intervening_write_to_producer_operand_blocks_fusion(self):
        @repro.program
        def clobber(x: repro.float64[N]):
            u = x * 2.0
            x[:] = x + 1.0
            v = u * 3.0
            return np.sum(v)

        sdfg = clobber.to_sdfg()
        fuse_elementwise_maps(sdfg, cost_model=_model(sdfg))
        assert "u" in sdfg.arrays  # u's operand no longer holds P-time values


# ------------------------------------------------------------- pipeline identity
class TestO3Pipeline:
    def test_all_levels_have_distinct_fingerprints(self):
        prints = {build_pipeline(level).fingerprint()
                  for level in ("O0", "O1", "O2", "O3")}
        assert len(prints) == 4

    def test_gradient_and_forward_o3_fingerprints_differ(self):
        fwd = build_pipeline("O3").fingerprint()
        grad = build_pipeline("O3", gradient=True, wrt=["x"]).fingerprint()
        assert fwd != grad

    def test_backend_cost_knobs_reach_the_fusion_fingerprint(self):
        manager = build_pipeline("O3", backend="cython")
        fusion = next(p for p in manager.passes if p.name == "map-fusion")
        assert CostModelConfig.for_backend("cython").fingerprint() in fusion.fingerprint()

    def test_unknown_level_still_rejected(self):
        from repro.pipeline import PipelineError

        with pytest.raises(PipelineError):
            build_pipeline("O4")

    def test_decision_counts_reach_the_report(self):
        spec = get_kernel("smooth_chain")
        outcome = compile_forward(spec.program_for("S"), "O3", cache=False)
        info = outcome.report.record_for("map-fusion").info
        assert info["priced"] >= info["fused"] >= 7
        assert "declined_gradient" in info
