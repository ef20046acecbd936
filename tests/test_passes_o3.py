"""Tests for the O3 tier: O2 plus one gradient rule in map fusion.

An ``"O3"`` gradient compile on the ``numpy`` backend declines a
single-offset fusion candidate when the producer does arithmetic and a
partial derivative of the consumer reads the transient; everything else
compiles exactly as at ``"O2"``, and reads at several distinct offsets never
fuse at any tier.  Structural tests drive ``repro.passes.fusion`` on lowered
programs; numerical tests assert that ``optimize="O3"`` never changes forward
values and keeps gradients equal to ``O0`` (1e-9 relative); pipeline tests
pin the rule's flag in the fusion fingerprint and its decline counts on the
registered kernels.
"""

import numpy as np
import pytest

import repro
from repro.harness import copy_data
from repro.npbench import all_kernels, get_kernel
from repro.passes import fuse_elementwise_maps
from repro.pipeline import build_pipeline, compile_forward, compile_gradient

N = repro.symbol("N")
M = repro.symbol("M")

#: Fusions an O3 NumPy gradient compile declines, per registered kernel
#: (every other kernel declines none).
O3_NUMPY_GRADIENT_DECLINES = {"bias_act": 2, "softmax": 2, "vadv": 1}


def _fusion_info(outcome):
    return outcome.report.record_for("map-fusion").info


# ------------------------------------------------------------- O3 forward == O2
@pytest.mark.parametrize("kernel", sorted(all_kernels()))
def test_o3_forward_source_equals_o2(kernel):
    program = get_kernel(kernel).program_for("S")
    o2 = compile_forward(program, "O2", cache=False).compiled.source
    o3 = compile_forward(program, "O3", cache=False).compiled.source
    assert o3 == o2


# ----------------------------------------------------------- multi-offset reads
class TestMultiOffsetReads:
    def test_multi_offset_reads_never_fuse_at_any_tier(self):
        @repro.program
        def stencil(x: repro.float64[N]):
            u = x * 0.5
            v = u[2:] - u[:-2]
            return np.sum(v)

        sdfg = stencil.to_sdfg().copy()
        assert fuse_elementwise_maps(sdfg) == 0
        assert fuse_elementwise_maps(sdfg, decline_recompute=True) == 0
        assert "u" in sdfg.arrays
        for level in ("O2", "O3"):
            forward = compile_forward(stencil, level, cache=False)
            gradient = compile_gradient(stencil, wrt="x", optimize=level, cache=False)
            assert _fusion_info(forward)["maps_fused"] == 0
            assert _fusion_info(gradient)["maps_fused"] == 0

    def test_stencil_chain_matches_unfused_values(self):
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

    def test_multi_offset_repeated_same_offset_reads(self):
        # u read twice at the same offset plus once shifted: three connectors,
        # two distinct subsets.
        @repro.program
        def prog(x: repro.float64[N]):
            u = x + 1.0
            v = u[:-1] * u[:-1] + u[1:]
            return np.sum(v)

        x = np.linspace(0.1, 1.4, 33)
        o0 = compile_forward(prog, "O0", cache=False).compiled(x.copy())
        o3 = compile_forward(prog, "O3", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o3, o0, rtol=1e-12)

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


# ------------------------------------------------------- the gradient rule
class TestGradientAwareFusion:
    def test_nonlinear_consumption_declined_in_gradient_mode(self):
        spec = get_kernel("bias_act")
        program = spec.program_for("S")
        forward = _fusion_info(compile_forward(program, "O3", cache=False))
        gradient = _fusion_info(
            compile_gradient(program, wrt=spec.wrt, optimize="O3", cache=False)
        )
        # The forward compile fuses the whole epilogue; the gradient compile
        # keeps the two nonlinearly-consumed values the backward pass reads.
        assert forward["maps_fused"] == 3
        assert "declined_recompute" not in forward
        assert gradient["maps_fused"] == 1
        assert gradient["declined_recompute"] == 2

    @pytest.mark.parametrize("kernel", sorted(all_kernels()))
    def test_o3_numpy_gradient_declines_are_pinned(self, kernel):
        spec = get_kernel(kernel)
        outcome = compile_gradient(
            spec.program_for("S"), wrt=spec.wrt, optimize="O3", cache=False
        )
        expected = O3_NUMPY_GRADIENT_DECLINES.get(kernel, 0)
        assert _fusion_info(outcome)["declined_recompute"] == expected

    def test_o3_gradients_match_o0(self):
        for kernel in ("bias_act", "smooth_chain", "vadv"):
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

        sdfg = linear.to_sdfg().copy()
        declined: set = set()
        fused = fuse_elementwise_maps(sdfg, decline_recompute=True, declined=declined)
        assert fused >= 1 and "u" not in sdfg.arrays
        assert declined == set()

    def test_copy_producer_fuses_into_nonlinear_consumer(self):
        # The producer does no arithmetic: fused, the backward pass reads
        # ``x`` where it would have read ``u``, and recomputes nothing.
        @repro.program
        def copy_then_square(x: repro.float64[N]):
            u = x[1:]
            v = u * u
            return np.sum(v)

        sdfg = copy_then_square.to_sdfg().copy()
        declined: set = set()
        assert fuse_elementwise_maps(sdfg, decline_recompute=True, declined=declined) == 1
        assert "u" not in sdfg.arrays and declined == set()

        gradient = compile_gradient(copy_then_square, wrt="x", optimize="O3", cache=False)
        assert _fusion_info(gradient)["maps_fused"] == 1
        assert _fusion_info(gradient)["declined_recompute"] == 0
        x = np.linspace(0.5, 1.5, 9)
        expected = 2.0 * x
        expected[0] = 0.0
        np.testing.assert_allclose(gradient.compiled(x.copy()), expected, rtol=1e-12)


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

        sdfg = chain.to_sdfg().copy()
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

        sdfg = loop_between.to_sdfg().copy()
        fuse_elementwise_maps(sdfg)
        assert "u" in sdfg.arrays  # loop body could run between P and C

    def test_consumer_inside_conditional_region_blocks_fusion(self):
        @repro.program
        def cond_consumer(x: repro.float64[N], flag: repro.int64):
            u = x * 2.0
            v = x * 0.0
            if flag > 0:
                v = u * 3.0
            return np.sum(v)

        sdfg = cond_consumer.to_sdfg().copy()
        fuse_elementwise_maps(sdfg)
        assert "u" in sdfg.arrays  # consumer lives in another region

    def test_intervening_write_to_producer_operand_blocks_fusion(self):
        @repro.program
        def clobber(x: repro.float64[N]):
            u = x * 2.0
            x[:] = x + 1.0
            v = u * 3.0
            return np.sum(v)

        sdfg = clobber.to_sdfg().copy()
        fuse_elementwise_maps(sdfg)
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

    @pytest.mark.parametrize(
        "level, gradient, backend, decline",
        [
            ("O2", True, "numpy", False),
            ("O3", False, "numpy", False),
            ("O3", True, "numpy", True),
            ("O3", True, "cython", False),
        ],
    )
    def test_the_rule_runs_only_in_o3_numpy_gradients(self, level, gradient, backend, decline):
        manager = build_pipeline(level, gradient=gradient, wrt=["x"] if gradient else None,
                                 backend=backend)
        fusion = next(p for p in manager.passes if p.name == "map-fusion")
        assert fusion.decline_recompute is decline
        assert fusion.fingerprint() == ("map-fusion", fusion.extra_keep, decline)

    def test_unknown_level_still_rejected(self):
        from repro.pipeline import PipelineError

        with pytest.raises(PipelineError):
            build_pipeline("O4")
