"""Liveness analysis, memory planning and global value numbering.

Three layers of coverage for the storage optimisations:

* **unit tests** for liveness (interval construction, loop widening,
  loop-carried values), the planner's coloring/eligibility/in-place rules and
  containers read only by control flow, on hand-written programs;
* **property tests** over the fuzz generator's random programs: a plan never
  assigns two overlapping live ranges to one buffer, and protected containers
  (return value, gradient targets, ``extra_keep``) are never reused — checked
  on the plan alone, no compilation involved;
* **regression tests** for the pipeline integration: report counters, the
  peak-/total-byte accounting on ``smooth_chain``, numeric agreement with
  ``O0``, and the cross-state duplicate-map gap that GVN closes (previously
  pinned as unsupported in ``test_passes_o2.py``).
"""

import numpy as np
import pytest

import repro
from repro.autodiff.engine import add_backward_pass
from repro.fuzz.generate import ProgramGenerator
from repro.fuzz.harness import CaseSpec
from repro.fuzz.render import build_sdfg
from repro.ir import SDFG, LoopRegion, MapCompute, Memlet, Subset, collect_uses
from repro.npbench import get_kernel
from repro.passes import (
    compute_liveness,
    eliminate_dead_code,
    global_value_numbering,
    plan_memory,
    top_level_uses,
)
from repro.passes.planning import apply_memory_plan
from repro.pipeline import build_pipeline, compile_forward
from repro.symbolic import Sym, parse_expr
from repro.symbolic.affine import window_fits

N = repro.symbol("N")
M = repro.symbol("M")


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------
class TestLiveness:
    def test_chain_intervals_are_disjoint(self):
        @repro.program
        def chain(A: repro.float64[N]):
            u1 = A * 2.0
            u2 = u1 + 1.0
            u3 = u2 * u2
            return np.sum(u3)

        info = compute_liveness(chain.to_sdfg())
        i1, i2, i3 = (info.intervals[n] for n in ("u1", "u2", "u3"))
        assert i1.end <= i2.start <= i2.end <= i3.start
        assert not i1.overlaps(i3)
        assert i1.overlaps(i2) and i2.overlaps(i3)

    def test_value_used_inside_loop_spans_the_loop(self):
        @repro.program
        def looped(A: repro.float64[N, M]):
            w = A[0, :] * 2.0
            acc = np.zeros((M,))
            for k in range(1, N - 1):
                t = w * A[k, :]
                acc += t + 1.0
            return np.sum(acc)

        info = compute_liveness(looped.to_sdfg())
        (span,) = info.loop_spans
        w = info.intervals["w"]
        # ``w``'s raw last read is the *first* statement of the body, but the
        # read re-executes every iteration: the interval is widened over the
        # whole loop span.
        assert w.extended
        assert w.start < span.lo and w.end >= span.hi

    def test_per_iteration_temporary_stays_inside_loop(self):
        @repro.program
        def looped(A: repro.float64[N, M]):
            acc = np.zeros((M,))
            for k in range(1, N - 1):
                t = A[k, :] * 2.0
                acc += t + 1.0
            return np.sum(acc)

        info = compute_liveness(looped.to_sdfg())
        t = info.intervals["t"]
        # Fully overwritten then read within each iteration: no widening.
        assert not t.extended

    def test_loop_carried_value_spans_the_loop_and_blocks_reuse(self):
        @repro.program
        def carried(A: repro.float64[N, M]):
            state = A[0, :] * 1.0
            for k in range(1, N - 1):
                t = A[k, :] * 2.0
                state = state * 0.5 + t
            return np.sum(state)

        sdfg = carried.to_sdfg()
        info = compute_liveness(sdfg)
        (span,) = info.loop_spans
        state = info.intervals["state"]
        # ``state`` is live across the back-edge: its interval covers the
        # whole loop span, so the planner may not hand its storage to the
        # per-iteration temporary ``t``.
        assert state.start <= span.lo and state.end >= span.hi
        t = info.intervals["t"]
        assert span.lo <= t.start and t.end <= span.hi
        plan = plan_memory(sdfg)
        assert plan.assignments.get("t") != "state"
        assert plan.assignments.get("state") is None

    def test_top_level_uses_match_element_granularity(self):
        @repro.program
        def prog(A: repro.float64[N]):
            u = A * 2.0
            v = u + 1.0
            return np.sum(v)

        uses = top_level_uses(prog.to_sdfg())
        assert uses["u"].first_write <= uses["u"].last_read
        assert uses["u"].last_read <= uses["v"].last_access


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
class TestMemoryPlanning:
    def test_chain_colors_into_two_buffers(self):
        spec = get_kernel("smooth_chain")
        sdfg = spec.program_for("S").to_sdfg()
        plan = plan_memory(sdfg)
        # Eight chain transients (u1..u7, out) share two buffers.
        chain = [n for n in ("u1", "u2", "u3", "u4", "u5", "u6", "u7", "out")]
        hosts = {plan.assignments.get(n, n) for n in chain}
        assert len(hosts) == 2
        assert plan.planned_reuse == 6
        assert plan.transient_bytes_after < plan.transient_bytes_before * 0.5

    def test_shrinking_shapes_fit_earlier_buffers(self):
        # The chain's shapes are all distinct (N-1, N-2, ...): reuse relies
        # on the shared affine bounds proof, not shape equality.
        assert window_fits(N - 1, N - 3)
        assert not window_fits(N - 3, N - 1)
        assert not window_fits(N, M)

    def test_floor_divided_shapes_are_not_affine(self):
        # ``N // 2`` would not fit an ``N // 3`` host.  Floor division by a
        # constant that does not divide the symbol's coefficient has no
        # affine form, so neither direction is proven and neither fits.
        half, third = parse_expr("N // 2"), parse_expr("N // 3")
        assert not window_fits(third, half)
        assert not window_fits(half, third)
        assert window_fits(parse_expr("(2 * N + 3) // 2"), N)

    def test_protected_containers_keep_their_storage(self):
        @repro.program
        def chain(A: repro.float64[N]):
            u1 = A * 2.0
            u2 = u1 + 1.0
            u3 = u2 * u2
            return np.sum(u3)

        sdfg = chain.to_sdfg()
        free = plan_memory(sdfg)
        assert "u3" in free.assignments
        held = plan_memory(sdfg, protect=("u3",))
        assert "u3" not in held.assignments
        assert all(host != "u3" for host in held.assignments.values())

    def test_conditionally_written_container_is_not_planned(self):
        @repro.program
        def cond(A: repro.float64[N], flag: repro.float64):
            u = A * 2.0
            s = np.sum(u)
            if flag > 0.0:
                t = A + 1.0
                s = s + np.sum(t)
            return s

        plan = plan_memory(cond.to_sdfg())
        # ``t`` is only written on one branch: its buffer may hold stale
        # contents on the other path, so it neither seeds nor joins a buffer.
        assert "t" not in plan.assignments
        assert all(host != "t" for host in plan.assignments.values())

    def test_zero_init_containers_are_not_planned(self):
        # AD allocates zero-initialised gradient accumulators
        # (``__grad_*``); zeroed-at-allocation semantics cannot inherit a
        # dirty buffer, so they neither seed nor join one.
        @repro.program
        def f(A: repro.float64[N]):
            u = A * 2.0
            v = u * u
            return np.sum(v)

        backward = add_backward_pass(f.to_sdfg())
        zeroed = [name for name, desc in backward.sdfg.arrays.items()
                  if desc.zero_init]
        assert zeroed
        plan = plan_memory(backward.sdfg)
        for name in zeroed:
            assert name not in plan.assignments
            assert all(host != name for host in plan.assignments.values())

    def test_inplace_reuse_accepts_identity_reads(self):
        @repro.program
        def ident(A: repro.float64[N]):
            u = A * 2.0
            v = u + 1.0  # v[k] reads u[k] only: may overwrite u in place
            return np.sum(v)

        plan = plan_memory(ident.to_sdfg())
        assert plan.assignments.get("v") == "u"
        assert "v" in plan.inplace_guests

    def test_inplace_reuse_rejects_offset_reads(self):
        @repro.program
        def offset(A: repro.float64[N]):
            u = A * 2.0
            v = u[:-1] + u[1:]  # v[k] reads u[k+1]: in-place would clobber
            return np.sum(v)

        plan = plan_memory(offset.to_sdfg())
        assert plan.assignments.get("v") != "u"
        assert "v" not in plan.inplace_guests

    def test_apply_rewrites_and_drops_guests(self):
        spec = get_kernel("smooth_chain")
        sdfg = spec.program_for("S").to_sdfg()
        before = _transient_bytes(sdfg, {"N": 32})
        plan = plan_memory(sdfg, symbol_values={"N": 32})
        applied = apply_memory_plan(sdfg, plan)
        assert applied == plan.planned_reuse
        for guest in plan.assignments:
            assert guest not in sdfg.arrays
        after = _transient_bytes(sdfg, {"N": 32})
        assert after < before * 0.5


def _transient_bytes(sdfg, symbol_values):
    return sum(desc.size_bytes(symbol_values)
               for desc in sdfg.arrays.values() if desc.transient)


# ---------------------------------------------------------------------------
# property tests over random programs (no compilation)
# ---------------------------------------------------------------------------
def _assert_plan_sound(sdfg, plan, protected=()):
    """A plan is sound when no two members of one buffer have overlapping
    live intervals (in-place guests may *touch* the previous member's end)
    and no protected container participates."""
    for group in plan.buffers:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                ia, ib = plan.intervals[a], plan.intervals[b]
                lo, hi = (ia, ib) if ia.start <= ib.start else (ib, ia)
                if lo.end < hi.start:
                    continue
                # Touching at exactly one position is only legal for an
                # in-place guest.
                assert lo.end == hi.start, (
                    f"{a} and {b} overlap: [{ia.start},{ia.end}] vs "
                    f"[{ib.start},{ib.end}]"
                )
                later = a if ia.start > ib.start else b
                assert later in plan.inplace_guests, (
                    f"{later} touches its buffer's live end without the "
                    "in-place rule"
                )
    for name in protected:
        assert name not in plan.assignments
        assert all(host != name for host in plan.assignments.values())


class TestPlanProperties:
    def test_random_programs_get_sound_plans(self):
        generator = ProgramGenerator(20260807)
        checked = 0
        for program in generator.generate(40):
            spec = CaseSpec.from_program(program)
            try:
                sdfg = build_sdfg(
                    spec.repro_source, spec.args, spec.dtype, spec.name)
            except Exception:
                continue  # out-of-subset template: not this test's concern
            plan = plan_memory(sdfg)
            _assert_plan_sound(sdfg, plan)
            checked += 1
        assert checked >= 30

    def test_gradient_targets_are_never_reused(self):
        generator = ProgramGenerator(42)
        checked = 0
        for program in generator.generate(15):
            spec = CaseSpec.from_program(program)
            try:
                sdfg = build_sdfg(
                    spec.repro_source, spec.args, spec.dtype, spec.name)
                backward = add_backward_pass(sdfg, inputs=spec.wrt())
            except Exception:
                continue
            targets = set(backward.gradient_names.values()) | {backward.output}
            plan = plan_memory(
                backward.sdfg,
                protect=tuple(n for n in targets if n in backward.sdfg.arrays),
            )
            _assert_plan_sound(
                backward.sdfg, plan,
                protected=[n for n in targets if n in backward.sdfg.arrays],
            )
            checked += 1
        assert checked >= 10


# ---------------------------------------------------------------------------
# global value numbering
# ---------------------------------------------------------------------------
class TestGlobalValueNumbering:
    def test_cross_state_duplicates_now_merge(self):
        # The frontend gives every assignment its own state, so the duplicate
        # statements live in different states; GVN merges them anyway.
        @repro.program
        def dup(x: repro.float64[N], y: repro.float64[N]):
            a = x * y + 1.0
            b = x * y + 1.0
            return np.sum(a + b)

        sdfg = dup.to_sdfg()
        result = global_value_numbering(sdfg)
        assert result.nodes_merged == 1
        assert ("b", "a") in result.merged
        assert "b" not in sdfg.arrays

        x = np.linspace(0.1, 2.0, 16)
        y = np.linspace(1.0, 3.0, 16)
        o0 = compile_forward(dup, "O0", cache=False).compiled(x.copy(), y.copy())
        o2 = compile_forward(dup, "O2", cache=False).compiled(x.copy(), y.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_intervening_write_blocks_the_merge(self):
        @repro.program
        def clobber(x: repro.float64[N]):
            a = x * 2.0
            s1 = np.sum(a)
            x[:] = x + 1.0  # x changes between the two definitions
            b = x * 2.0
            return s1 + np.sum(b)

        sdfg = clobber.to_sdfg()
        result = global_value_numbering(sdfg)
        assert not any("b" in pair for pair in result.merged)
        assert "b" in sdfg.arrays

        x = np.linspace(0.5, 1.5, 8)
        o0 = compile_forward(clobber, "O0", cache=False).compiled(x.copy())
        o2 = compile_forward(clobber, "O2", cache=False).compiled(x.copy())
        np.testing.assert_allclose(o2, o0, rtol=1e-12)

    def test_cross_branch_duplicates_stay_pinned(self):
        # Merging across sibling branches of a conditional (or out of a
        # conditional entirely) remains unsupported: the two occurrences are
        # in different control-flow regions.
        @repro.program
        def branchy(x: repro.float64[N], flag: repro.float64):
            s = np.sum(x)
            if flag > 0.0:
                a = x * 2.0
                s = s + np.sum(a)
            else:
                b = x * 2.0
                s = s + np.sum(b * 3.0)
            return s

        sdfg = branchy.to_sdfg()
        result = global_value_numbering(sdfg)
        assert result.nodes_merged == 0

    def test_gvn_runs_in_o2_pipeline(self):
        @repro.program
        def dup(x: repro.float64[N]):
            a = x * x + 2.0
            s1 = np.sum(a)
            b = x * x + 2.0
            return s1 + np.sum(b * 0.5)

        outcome = compile_forward(dup, "O2", cache=False)
        record = outcome.report.record_for("global-value-numbering")
        assert record is not None
        assert record.info["nodes_deduplicated"] == 1


# ---------------------------------------------------------------------------
# opaque containers: read by control flow, never through a memlet
# ---------------------------------------------------------------------------
@repro.program
def _twice_guarded(x: repro.float64[N]):
    s = np.sum(x)
    y = x * 1.0
    if s > 0.0:
        y[:] = x * 2.0
    if s > 0.0:
        y[:] = y * 3.0
    return np.sum(y)


def _two_bounded_loops() -> SDFG:
    """``n1 = N - 1; for i in range(n1): ...; n2 = N - 1; for j in range(n2):
    ...`` — ``n1``/``n2`` are read only by their loop's bound."""
    sdfg = SDFG("bounded")
    sdfg.add_symbol("N")
    sdfg.add_array("A", (Sym("N"),), "float64")
    sdfg.arg_names = ["A"]
    for name, itervar, expr in (("n1", "i", "a * 2.0"), ("n2", "j", "a + 1.0")):
        sdfg.add_array(name, (), "int64", transient=True)
        sdfg.add_state().add(MapCompute(
            params=[], ranges=[], expr=parse_expr("N - 1"), inputs={},
            output=Memlet(name, None)))
        loop = sdfg.root.add(LoopRegion(itervar, 0, Sym(name)))
        element = Memlet("A", Subset.point([Sym(itervar)]))
        loop.body.add_state().add(MapCompute(
            params=[], ranges=[], expr=parse_expr(expr), inputs={"a": element},
            output=element))
    return sdfg


#: (SDFG factory, the opaque pair — two identical definitions GVN and
#: planning would otherwise merge or share, call arguments).
OPAQUE_CASES = {
    "branch_condition": (_twice_guarded.to_sdfg, ("__cond", "__cond_0"),
                         lambda: (np.linspace(0.5, 1.5, 8),)),
    "loop_bound": (_two_bounded_loops, ("n1", "n2"),
                   lambda: (np.linspace(0.5, 1.5, 8),)),
}


@pytest.mark.parametrize("case", sorted(OPAQUE_CASES))
class TestOpaqueContainers:
    def test_reported_opaque(self, case):
        make, names, _ = OPAQUE_CASES[case]
        sdfg = make()
        uses = collect_uses(sdfg)
        info = compute_liveness(sdfg)
        for name in names:
            assert not uses[name].reads and uses[name].opaque_reads == 1
            assert info.uses[name].opaque_reads == 1

    def test_kept_by_dce(self, case):
        make, names, _ = OPAQUE_CASES[case]
        sdfg = make()
        eliminate_dead_code(sdfg)
        uses = collect_uses(sdfg)
        for name in names:
            assert name in sdfg.arrays and len(uses[name].writes) == 1

    def test_never_merged_or_shared(self, case):
        make, names, _ = OPAQUE_CASES[case]
        sdfg = make()
        plan = plan_memory(sdfg)
        for name in names:
            assert name not in plan.assignments
            assert name not in plan.assignments.values()
        result = global_value_numbering(sdfg)
        assert not any(set(pair) & set(names) for pair in result.merged)

    @pytest.mark.parametrize("level", ["O2", "O3"])
    def test_survive_the_optimizing_pipeline(self, case, level):
        make, names, args = OPAQUE_CASES[case]
        ref_args, opt_args = args(), args()
        ref = compile_forward(make(), "O0", cache=False).compiled(*ref_args)
        outcome = compile_forward(make(), level, cache=False)
        assert outcome.report.record_for("map-fusion").info["maps_fused"] == 0
        uses = collect_uses(outcome.compiled.sdfg)
        for name in names:
            assert uses[name].opaque_reads == 1 and len(uses[name].writes) == 1
        result = outcome.compiled(*opt_args)
        if ref is not None:  # the loop-bound program only updates ``A``
            np.testing.assert_allclose(result, ref, rtol=1e-12)
        np.testing.assert_allclose(opt_args[0], ref_args[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# pipeline integration / peak-memory regression
# ---------------------------------------------------------------------------
class TestPlanningPipeline:
    def test_smooth_chain_report_counters(self):
        spec = get_kernel("smooth_chain")
        program = spec.program_for("S")
        on = compile_forward(program, "O2", cache=False)
        record = on.report.record_for("memory-planning")
        assert record is not None
        info = record.info
        assert info["planned_reuse"] == 6
        assert info["buffers_shared"] == 2
        assert info["transient_bytes_after"] < info["transient_bytes_before"] * 0.5
        assert info["peak_bytes_after"] <= info["peak_bytes_before"]

    def test_planning_matches_o0_numerics(self):
        spec = get_kernel("smooth_chain")
        program = spec.program_for("S")
        data = spec.data("S")
        ref = compile_forward(program, "O0", cache=False).compiled(
            **{k: np.array(v, copy=True) for k, v in data.items()})
        on = compile_forward(program, "O2", cache=False)
        val = on.compiled(**{k: np.array(v, copy=True) for k, v in data.items()})
        np.testing.assert_allclose(val, ref, rtol=1e-9)

    def test_planning_off_keeps_all_transients(self):
        spec = get_kernel("smooth_chain")
        program = spec.program_for("S")
        off = compile_forward(program, "O0", cache=False)
        assert off.report.record_for("memory-planning") is None
        for name in ("u1", "u4", "u7"):
            assert f"{name} = np.empty" in off.compiled.source

    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3"])
    def test_planning_runs_at_every_tier_but_o0(self, level):
        # Planning is part of every optimizing tier, not a knob: O0 is the
        # as-written reference, and each tier is its own pipeline.
        program = get_kernel("smooth_chain").program_for("S")
        record = compile_forward(program, level, cache=False).report.record_for(
            "memory-planning")
        assert (record is None) == (level == "O0")
        fingerprints = {build_pipeline(level).fingerprint()
                        for level in ("O0", "O1", "O2", "O3")}
        assert len(fingerprints) == 4

    @pytest.mark.parametrize("kernel", ["smooth_chain", "bias_act", "jacobi1d"])
    @pytest.mark.parametrize("level", ["O1", "O2", "O3"])
    def test_planned_tiers_match_o0(self, level, kernel):
        spec = get_kernel(kernel)
        program = spec.program_for("S")
        data = spec.data("S")
        ref_args = {k: np.array(v, copy=True) for k, v in data.items()}
        opt_args = {k: np.array(v, copy=True) for k, v in data.items()}
        ref = compile_forward(program, "O0", cache=False).compiled(**ref_args)
        outcome = compile_forward(program, level, cache=False)
        assert outcome.report.record_for("memory-planning") is not None
        np.testing.assert_allclose(outcome.compiled(**opt_args), ref, rtol=1e-9)
        for name in ref_args:  # in-place updates of the arguments agree too
            np.testing.assert_allclose(opt_args[name], ref_args[name], rtol=1e-9)

    def test_gradient_pipeline_with_planning_matches_o0(self):
        spec = get_kernel("bias_act")
        program = spec.program_for("S")
        data = spec.data("S")
        df0 = repro.grad(program, wrt=spec.wrt, optimize="O0")
        df2 = repro.grad(program, wrt=spec.wrt, optimize="O2")
        copy = lambda: {k: np.array(v, copy=True) for k, v in data.items()}
        g0, g2 = df0(**copy()), df2(**copy())
        if not isinstance(g0, dict):
            g0, g2 = {"_": g0}, {"_": g2}
        for key in g0:
            np.testing.assert_allclose(g2[key], g0[key], rtol=1e-9)

    def test_cython_backend_with_planning_matches(self):
        from repro.codegen import available_backends

        if "cython" not in available_backends():
            pytest.skip("no C toolchain")
        spec = get_kernel("smooth_chain")
        program = spec.program_for("S")
        data = spec.data("S")
        copy = lambda: {k: np.array(v, copy=True) for k, v in data.items()}
        ref = compile_forward(program, "O0", cache=False).compiled(**copy())
        native = compile_forward(program, "O2", cache=False, backend="cython")
        np.testing.assert_allclose(native.compiled(**copy()), ref, rtol=1e-9)
