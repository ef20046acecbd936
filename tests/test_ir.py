"""Unit tests for the SDFG-like IR: descriptors, subsets, memlets, nodes,
states, control flow, validation and serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    ArrayDesc,
    ConditionalRegion,
    Index,
    LibraryCall,
    LoopRegion,
    MapCompute,
    Memlet,
    Range,
    SDFG,
    State,
    Subset,
)
from repro.ir.serialize import sdfg_from_dict, sdfg_to_dict
from repro.symbolic import Const, Sym, evaluate, parse_expr
from repro.util.errors import ValidationError


def make_simple_sdfg():
    """out = sum(A * 2) over an [N] array, as a two-node state."""
    sdfg = SDFG("simple")
    sdfg.add_symbol("N")
    sdfg.add_array("A", (Sym("N"),), "float64")
    sdfg.add_array("tmp", (Sym("N"),), "float64", transient=True)
    sdfg.add_array("out", (), "float64", transient=True, zero_init=True)
    sdfg.arg_names = ["A"]
    state = sdfg.add_state("compute")
    state.add(
        MapCompute(
            params=["i"],
            ranges=[Range(Const(0), Sym("N"), Const(1))],
            expr=parse_expr("a * 2"),
            inputs={"a": Memlet("A", Subset.point([Sym("i")]))},
            output=Memlet("tmp", Subset.point([Sym("i")])),
        )
    )
    state.add(
        LibraryCall(
            "reduce_sum",
            inputs={"_in": Memlet("A", None)},
            output=Memlet("out", None),
            attrs={"axis": None},
        )
    )
    return sdfg


class TestArrayDesc:
    def test_scalar(self):
        desc = ArrayDesc("s", (), "float64")
        assert desc.is_scalar and desc.ndim == 0
        assert desc.concrete_shape({}) == ()
        assert desc.size_bytes({}) == 8

    def test_symbolic_shape(self):
        desc = ArrayDesc("A", (Sym("N"), 4), "float32")
        assert desc.free_symbols() == {"N"}
        assert desc.concrete_shape({"N": 3}) == (3, 4)
        assert desc.total_elements({"N": 3}) == 12
        assert desc.size_bytes({"N": 3}) == 48

    def test_copy_overrides(self):
        desc = ArrayDesc("A", (2, 2), "float64")
        grad = desc.copy(name="grad_A", zero_init=True)
        assert grad.name == "grad_A" and grad.zero_init
        assert desc.name == "A" and not desc.zero_init

    def test_symbolic_total_elements(self):
        desc = ArrayDesc("A", (Sym("N"), Sym("M")), "float64")
        assert evaluate(desc.symbolic_total_elements(), {"N": 3, "M": 5}) == 15


class TestSubset:
    def test_full_subset(self):
        subset = Subset.full((Sym("N"), 4))
        assert subset.is_full((Sym("N"), 4))
        assert not subset.is_point()
        assert subset.concrete_volume({"N": 3}) == 12

    def test_point_subset(self):
        subset = Subset.point([Sym("i"), parse_expr("j - 1")])
        assert subset.is_point()
        assert subset.free_symbols() == {"i", "j"}
        assert subset.concrete_volume({}) == 1

    def test_partial_is_not_full(self):
        subset = Subset([Range(Const(1), Sym("N"), Const(1))])
        assert not subset.is_full((Sym("N"),))

    def test_substitution(self):
        subset = Subset.point([parse_expr("i + 1")])
        replaced = subset.substituted({"i": 3})
        assert replaced[0].value == Const(4)

    def test_shape_exprs_skips_indices(self):
        subset = Subset([Index(Const(0)), Range(Const(0), Sym("N"), Const(1))])
        shape = subset.shape_exprs()
        assert len(shape) == 1
        assert evaluate(shape[0], {"N": 7}) == 7

    @settings(max_examples=30, deadline=None)
    @given(start=st.integers(0, 5), extra=st.integers(1, 10), step=st.integers(1, 4))
    def test_range_length_matches_python_range(self, start, extra, step):
        stop = start + extra
        rng = Range(Const(start), Const(stop), Const(step))
        assert rng.concrete_length({}) == len(range(start, stop, step))
        assert evaluate(rng.length_expr(), {}) == len(range(start, stop, step))


class TestMemlet:
    def test_full_write_detection(self):
        memlet = Memlet("A", Subset.full((Sym("N"),)))
        assert memlet.is_full_write((Sym("N"),))
        partial = Memlet("A", Subset([Range(Const(0), parse_expr("N - 1"), Const(1))]))
        assert not partial.is_full_write((Sym("N"),))

    def test_none_subset_is_full(self):
        assert Memlet("A", None).is_full_write((Sym("N"),))

    def test_substituted_keeps_flags(self):
        memlet = Memlet("A", Subset.point([Sym("i")]), accumulate=True)
        replaced = memlet.substituted({"i": 0})
        assert replaced.accumulate and replaced.data == "A"


class TestStateAndNodes:
    def test_read_write_sets(self):
        sdfg = make_simple_sdfg()
        state = next(sdfg.all_states())
        assert set(state.read_data()) == {"A"}
        assert set(state.written_data()) == {"tmp", "out"}

    def test_full_overwrites(self):
        sdfg = make_simple_sdfg()
        state = next(sdfg.all_states())
        assert "out" in state.full_overwrites(sdfg.arrays)

    def test_accumulate_counts_as_read(self):
        state = State("s")
        sdfg = make_simple_sdfg()
        state.add(
            MapCompute(
                params=[],
                ranges=[],
                expr=Const(1),
                inputs={},
                output=Memlet("out", None, accumulate=True),
            )
        )
        assert "out" in set(state.read_data())

    def test_dataflow_graph_structure(self):
        sdfg = make_simple_sdfg()
        state = next(sdfg.all_states())
        graph = state.dataflow_graph()
        # 2 compute nodes + access nodes for A, tmp, out (A reused by both reads)
        compute_nodes = [n for n in graph.nodes if isinstance(n, (MapCompute, LibraryCall))]
        assert len(compute_nodes) == 2
        assert graph.number_of_edges() == 4

    def test_map_requires_matching_ranges(self):
        with pytest.raises(ValueError):
            MapCompute(params=["i", "j"], ranges=[Range(Const(0), Const(1), Const(1))],
                       expr=Const(0), inputs={}, output=Memlet("out", None))

    def test_unknown_library_kind_rejected(self):
        with pytest.raises(ValueError):
            LibraryCall("fft", inputs={}, output=Memlet("out", None))


class TestSDFGContainer:
    def test_add_array_collision(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", (2,), "float64")
        with pytest.raises(ValidationError):
            sdfg.add_array("A", (2,), "float64")
        renamed = sdfg.add_array("A", (2,), "float64", find_new_name=True)
        assert renamed.name != "A"

    def test_transient_names_unique(self):
        sdfg = SDFG("t")
        first = sdfg.add_transient("tmp", (2,), "float64")
        second = sdfg.add_transient("tmp", (2,), "float64")
        assert first.name != second.name

    def test_loops_and_conditionals_enumeration(self):
        sdfg = SDFG("t")
        loop = LoopRegion("i", 0, 10)
        sdfg.root.add(loop)
        cond = ConditionalRegion()
        cond.add_branch(parse_expr("i > 0"))
        loop.body.add(cond)
        assert len(list(sdfg.all_loops())) == 1
        assert len(list(sdfg.all_conditionals())) == 1

    def test_copy_is_deep(self):
        sdfg = make_simple_sdfg()
        clone = sdfg.copy()
        clone.add_array("B", (2,), "float64")
        assert "B" not in sdfg.arrays

    def test_validation_passes_on_wellformed(self):
        make_simple_sdfg().validate()

    def test_validation_rejects_unknown_container(self):
        sdfg = make_simple_sdfg()
        state = next(sdfg.all_states())
        state.add(
            MapCompute(params=[], ranges=[], expr=Const(0), inputs={},
                       output=Memlet("missing", None))
        )
        with pytest.raises(ValidationError):
            sdfg.validate()

    def test_validation_rejects_wrong_subset_rank(self):
        sdfg = make_simple_sdfg()
        state = next(sdfg.all_states())
        state.add(
            MapCompute(params=[], ranges=[], expr=Const(0), inputs={},
                       output=Memlet("A", Subset.point([Const(0), Const(0)])))
        )
        with pytest.raises(ValidationError):
            sdfg.validate()

    def test_validation_rejects_iterator_shadowing(self):
        sdfg = SDFG("t")
        outer = LoopRegion("i", 0, 4)
        inner = LoopRegion("i", 0, 4)
        outer.body.add(inner)
        sdfg.root.add(outer)
        with pytest.raises(ValidationError):
            sdfg.validate()

    def test_free_symbols(self):
        sdfg = make_simple_sdfg()
        assert "N" in sdfg.free_symbols()


class TestLoopRegion:
    def test_trip_count(self):
        loop = LoopRegion("i", 2, Sym("N"), 3)
        assert evaluate(loop.trip_count_expr(), {"N": 11}) == 3

    def test_read_write_propagation(self):
        sdfg = make_simple_sdfg()
        loop = LoopRegion("t", 0, 4)
        state = State("body")
        state.add(
            MapCompute(params=[], ranges=[], expr=parse_expr("x * 2"),
                       inputs={"x": Memlet("A", Subset.point([Const(0)]))},
                       output=Memlet("tmp", Subset.point([Const(0)])))
        )
        loop.body.add(state)
        assert "A" in set(loop.read_data())
        assert "tmp" in set(loop.written_data())


class TestSerialization:
    def test_roundtrip_preserves_structure(self):
        sdfg = make_simple_sdfg()
        loop = LoopRegion("t", 0, Sym("TSTEPS"))
        state = State("body")
        state.add(
            MapCompute(params=[], ranges=[], expr=parse_expr("x + 1"),
                       inputs={"x": Memlet("A", Subset.point([Const(0)]))},
                       output=Memlet("A", Subset.point([Const(0)])))
        )
        loop.body.add(state)
        sdfg.root.add(loop)
        cond = ConditionalRegion()
        branch = cond.add_branch(parse_expr("N > 2"))
        branch.add_state("empty")
        cond.add_branch(None).add_state("empty_else")
        sdfg.root.add(cond)

        data = sdfg_to_dict(sdfg)
        restored = sdfg_from_dict(data)
        assert set(restored.arrays) == set(sdfg.arrays)
        assert restored.arrays["A"].dtype == np.float64
        assert len(list(restored.all_loops())) == 1
        assert len(list(restored.all_conditionals())) == 1
        assert len(list(restored.all_states())) == len(list(sdfg.all_states()))
        # Re-serialising gives the same dictionary (fixed point).
        assert sdfg_to_dict(restored) == data


class TestContentHash:
    def test_stable_across_deep_copies(self):
        sdfg = make_simple_sdfg()
        assert sdfg.content_hash() == sdfg.copy().content_hash()
        # Repeated hashing of the same object is deterministic too.
        assert sdfg.content_hash() == sdfg.content_hash()

    def test_changes_when_node_mutated(self):
        sdfg = make_simple_sdfg()
        before = sdfg.content_hash()
        state = next(sdfg.all_states())
        state.nodes[0].expr = parse_expr("a * 3")
        assert sdfg.content_hash() != before

    def test_changes_on_array_and_structure_edits(self):
        sdfg = make_simple_sdfg()
        before = sdfg.content_hash()
        sdfg.add_array("B", (Sym("N"),), "float64")
        with_array = sdfg.content_hash()
        assert with_array != before
        sdfg.add_state("extra")
        assert sdfg.content_hash() != with_array

    def test_return_name_is_part_of_the_hash(self):
        sdfg = make_simple_sdfg()
        before = sdfg.content_hash()
        sdfg.return_name = "out"
        assert sdfg.content_hash() != before


class TestRangeLength:
    """Regression tests for ``Range.length_expr`` (PR 3): the original
    upward-counting formula ``(stop - start + step - 1) // step`` overcounts
    for negative steps (floor division rounds the wrong way); constant
    negative steps now use the downward formula, and every constant case must
    agree with ``len(range(...))`` via ``concrete_length``."""

    @pytest.mark.parametrize("start,stop,step", [
        (0, 10, 1), (0, 10, 2), (0, 10, 3), (1, 10, 4),
        (10, 0, -1), (10, 0, -2), (10, 0, -3), (9, 2, -4),
        (5, 5, 1), (5, 5, -1), (0, 1, 5), (7, 0, -10),
    ])
    def test_constant_lengths_match_python_range(self, start, stop, step):
        rng = Range(Const(start), Const(stop), Const(step))
        length = rng.length_expr()
        assert isinstance(length, Const), (start, stop, step, length)
        expected = len(range(start, stop, step))
        assert length.value == expected
        assert rng.concrete_length({}) == expected

    def test_unit_steps_stay_division_free(self):
        up = Range(Const(0), Sym("N"), Const(1))
        assert up.length_expr() == Sym("N")
        down = Range(Sym("N"), Const(0), Const(-1))
        assert down.length_expr() == Sym("N")

    def test_symbolic_bounds_negative_constant_step(self):
        rng = Range(Sym("N"), Const(0), Const(-2))
        length = rng.length_expr()
        for n in (0, 1, 2, 7, 10, 11):
            assert evaluate(length, {"N": n}) == len(range(n, 0, -2))

    def test_symbolic_step_assumed_positive(self):
        # A symbolic step keeps the upward ceiling division; evaluating it
        # with positive step values must match Python ranges.
        rng = Range(Const(0), Sym("N"), Sym("S"))
        length = rng.length_expr()
        for n in (0, 1, 9, 10):
            for s in (1, 2, 3, 4):
                assert evaluate(length, {"N": n, "S": s}) == len(range(0, n, s))

    def test_floor_division_by_one_is_not_simplified(self):
        # ``x // 1.0`` is floor(x) when x is a float value, and tasklet
        # expressions run through the same simplifier as index arithmetic —
        # eliding the division would change program values.
        from repro.symbolic.simplify import simplify

        expr = parse_expr("x // 1")
        assert simplify(expr) == expr

    def test_frontend_slice_shapes_are_division_free(self):
        # The frontend computes slice lengths through Range.length_expr, so
        # unit-step slice shapes carry no floor division.
        import repro

        N = repro.symbol("N")

        @repro.program
        def prog(A: repro.float64[N]):
            u = A[1:-1] * 2.0
            return np.sum(u)

        sdfg = prog.to_sdfg()
        shape_dim = sdfg.arrays["u"].shape[0]
        assert "//" not in repr(shape_dim)

    def test_negative_step_slices_rejected_by_frontend(self):
        # Slice-default normalisation assumes forward traversal; a negative
        # step used to produce a negative shape silently.  Now it is an
        # explicit unsupported-feature error.
        import repro
        from repro.util.errors import UnsupportedFeatureError

        N = repro.symbol("N")

        @repro.program
        def prog(A: repro.float64[N]):
            u = A[::-1] * 2.0
            return np.sum(u)

        with pytest.raises(UnsupportedFeatureError, match="Negative-step"):
            prog.to_sdfg()
