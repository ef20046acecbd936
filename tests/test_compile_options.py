"""One compile request: every entry point accepts every ``CompileOptions``
field, every key field lands in the cache key, every spelling of one request
has one key, what cannot be keyed is rejected when it is built, and the
per-object memo compares whole requests (``docs/architecture.md`` has the
field table)."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.batching import Vmap
from repro.checkpointing import ILPCheckpointing, RecomputeAll, StoreAll
from repro.harness import dace_gradient_runner
from repro.npbench import get_kernel
from repro.pipeline import (
    CompilationCache,
    CompileOptions,
    Pass,
    PassContext,
    PipelineError,
    build_pipeline,
    compile_forward,
    compile_gradient,
    compile_request,
    run_pipeline,
    to_sdfg,
)
from repro.pipeline.cache import stable_repr
from repro.serve import numpy_fallback
from repro.util.errors import CodegenError

N = repro.symbol("N")
X = np.linspace(0.5, 1.5, 4)


class Noop(Pass):
    name = "noop"

    def apply(self, sdfg, ctx):
        return sdfg


NOOP = Noop()


def _program():
    @repro.program
    def f(A: repro.float64[N]):
        return np.sum(np.sin(A) * A)

    return f


#: One non-default value per field.  ``output`` / ``result_names`` name the
#: return container, which exists in every program compiled below.
FIELD_VALUES = {
    "optimize": "O2",
    "backend": "cython",
    "checkpointing": RecomputeAll(),
    "wrt": "A",
    "output": "__return",
    "return_value": True,
    "symbol_values": {"N": 4},
    "extra_passes": [NOOP],
    "func_name": "renamed_entry",
    "result_names": ["__return"],
    "profile": True,
    "cache": None,  # a fresh CompilationCache per case
}
GRADIENT_ONLY = {"wrt", "output", "checkpointing", "return_value"}

#: name -> (call taking ``**options``, compiles a gradient?)
ADAPTERS = {
    "repro.compile": (lambda **o: repro.compile(_program(), **o), None),
    "compile_forward": (lambda **o: compile_forward(_program(), **o), False),
    "compile_gradient": (lambda **o: compile_gradient(_program(), **o), True),
    "grad": (lambda **o: repro.grad(_program(), **o), True),
    "value_and_grad": (lambda **o: repro.value_and_grad(_program(), **o), True),
    "GradientFunction": (lambda **o: repro.GradientFunction(_program(), **o), True),
    "Program.compile": (lambda **o: _program().compile(**o), False),
    "BatchedProgram.compile": (lambda **o: repro.vmap(_program()).compile(**o), False),
    "numpy_fallback": (
        lambda **o: numpy_fallback(repro.vmap(_program()), **o)(A=np.stack([X, X])),
        False,
    ),
    "dace_gradient_runner": (
        lambda **o: dace_gradient_runner(get_kernel("bias_act"), "S", **o), True,
    ),
}


def test_field_table_is_the_dataclass():
    assert set(FIELD_VALUES) == {f.name for f in dataclasses.fields(CompileOptions)}


class TestEveryAdapterTakesEveryField:
    def test_the_calls_that_used_to_raise_type_error(self):
        f, cache = _program(), CompilationCache()
        value, gradient = repro.compile(f, wrt="A", return_value=True)(X.copy())
        np.testing.assert_allclose(gradient, np.cos(X) * X + np.sin(X))
        assert repro.value_and_grad(f, cache=cache)(X.copy())[0] == pytest.approx(value)
        assert cache.stats.lookups == 1
        np.testing.assert_allclose(repro.grad(f, symbol_values={"N": 4})(X.copy()), gradient)
        assert f.compile("O2")(X.copy()) == pytest.approx(value)
        f.compile(cache=cache)
        assert cache.stats.lookups == 2
        batched = repro.vmap(f).compile(symbol_values={"N": 4})
        np.testing.assert_allclose(batched(np.stack([X, X])), [value, value])

    @pytest.mark.parametrize("field", FIELD_VALUES)
    @pytest.mark.parametrize("adapter", ADAPTERS)
    def test_field_through_adapter(self, adapter, field):
        call, gradient = ADAPTERS[adapter]
        value = FIELD_VALUES[field] if field != "cache" else CompilationCache()
        if adapter == "dace_gradient_runner" and field == "wrt":
            value = "x"  # the kernel's own input
        try:
            call(**{field: value})
        except PipelineError:
            # The one legitimate refusal: a forward-only entry point handed
            # an option that only a gradient compile can honour.
            assert gradient is False and field in GRADIENT_ONLY
        else:
            assert gradient is not False or field not in GRADIENT_ONLY

    @pytest.mark.parametrize("adapter", ADAPTERS)
    def test_unknown_keyword_lists_the_valid_ones(self, adapter):
        with pytest.raises(TypeError, match="no_such_knob.*checkpointing"):
            ADAPTERS[adapter][0](no_such_knob=1)

    def test_strategy_is_the_alias_of_checkpointing_on_the_ad_api(self):
        f, strategy = _program(), RecomputeAll()
        df = repro.grad(f, wrt="A", strategy=strategy, cache=False)
        assert df.options.checkpointing is strategy
        with pytest.raises(TypeError, match="not both"):
            repro.grad(f, strategy=StoreAll(), checkpointing=StoreAll())
        with pytest.raises(TypeError):
            compile_forward(f, strategy=StoreAll())


class TestCompileOptions:
    def test_normalised_hashable_replaceable(self):
        options = CompileOptions(wrt="A", symbol_values={"b": 2, "a": 1},
                                 extra_passes=[NOOP], result_names=["r"])
        assert options.wrt == ("A",) and options.result_names == ("r",)
        assert options.symbol_values == (("a", 1), ("b", 2))
        assert options.extra_passes == (NOOP,)
        assert options == CompileOptions(wrt=["A"], symbol_values={"a": 1, "b": 2},
                                         extra_passes=(NOOP,), result_names=("r",))
        assert hash(options) == hash(dataclasses.replace(options))
        assert dataclasses.replace(options, optimize="O3").wrt == ("A",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.optimize = "O0"

    def test_vmap_of_grad_replays_the_request_plus_its_pass(self):
        df = repro.grad(_program(), wrt="A", optimize="O2")
        batched = repro.vmap(df)
        assert not hasattr(df, "compile_spec")
        assert [p.name for p in batched.options.extra_passes] == ["vmap"]
        assert dataclasses.replace(batched.options, extra_passes=()) == df.options

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(CompileOptions)
                  if f.metadata.get("cache_key", True)])
    def test_every_key_field_changes_the_cache_key(self, field):
        """Field-driven: a future knob that compile_request does not
        fingerprint fails here by construction (``cache`` and ``profile``
        are the documented non-key fields)."""
        sdfg = _program().to_sdfg()
        base = CompileOptions(cache=CompilationCache())
        changed = dataclasses.replace(base, **{field: FIELD_VALUES[field]})
        assert changed != base
        keys = {compile_request(sdfg, options, gradient=True).key
                for options in (base, changed)}
        assert len(keys) == 2

    @pytest.mark.parametrize("field", ["cache", "profile"])
    def test_non_key_fields_do_not_change_the_key(self, field):
        sdfg, cache = _program().to_sdfg(), CompilationCache()
        first = compile_request(sdfg, CompileOptions(cache=cache), gradient=False)
        value = True if field == "profile" else CompilationCache()
        again = compile_request(
            sdfg, dataclasses.replace(CompileOptions(cache=cache), **{field: value}),
            gradient=False)
        assert again.key == first.key


class TestOneRequestOneKey:
    def test_four_backend_spellings_give_two_entries(self):
        f, cache = _program(), CompilationCache()
        for backend in (None, "numpy", "cython", "native"):
            compile_gradient(f, wrt="A", optimize="O1", backend=backend, cache=cache)
        assert len(cache) == 2
        assert cache.stats.misses == 2 and cache.stats.hits == 2

    def test_numpy_fallback_after_a_default_compile_is_a_hit(self):
        f, cache = _program(), CompilationCache()
        f.compile("O1", cache=cache)
        fallback = numpy_fallback(f, "O1", cache=cache)
        assert fallback(A=X.copy()) == pytest.approx(np.sum(np.sin(X) * X))
        assert cache.stats.misses == 1 and len(cache) == 1

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_hand_built_pipeline_then_compile_gradient_hits(self, backend):
        """The traced sweep of the ``compile_cold`` benchmark: a pipeline
        built by hand with a bare context, then the public call."""
        f, cache = _program(), CompilationCache()
        options = {"wrt": ["A"], "output": None, "return_value": False}
        cold = run_pipeline(to_sdfg(f), build_pipeline("O3", gradient=True, wrt=["A"]),
                            PassContext(options=options), cache=cache)
        again = compile_gradient(f, wrt=["A"], optimize="O3", backend=backend,
                                 cache=cache)
        assert again.cache_hit and again.compiled is cold.compiled

    def test_numpy_scalar_symbol_values_become_plain_numbers(self):
        options = CompileOptions(symbol_values={"N": np.int64(4), "s": np.float32(0.5)})
        assert options.symbol_values == (("N", 4), ("s", 0.5))
        assert type(dict(options.symbol_values)["N"]) is int
        assert options == CompileOptions(symbol_values={"N": 4, "s": 0.5})

    @pytest.mark.parametrize("build", [
        lambda: CompileOptions(checkpointing="store_all"),
        lambda: repro.grad(_program(), wrt="A", checkpointing="recompute_all"),
        lambda: CompileOptions(checkpointing=type("Duck", (), {
            "decide": lambda self, sdfg, candidates: {}})()),
        lambda: CompileOptions(symbol_values={"N": object()}),
        lambda: CompileOptions(symbol_values={"N": "4"}),
        lambda: ILPCheckpointing(20, symbol_values={"N": 2.5}),
        lambda: Vmap(in_axes=object()),
        lambda: stable_repr(object()),
    ], ids=["strategy-name", "strategy-name-grad", "duck-typed-strategy",
            "object-symbol", "string-symbol", "ilp-float-symbol", "vmap-axes",
            "stable-repr"])
    def test_unkeyable_values_are_rejected_when_built(self, build):
        with pytest.raises(TypeError):
            build()

    def test_unknown_backend_raises_before_any_pass_runs(self):
        with pytest.raises(CodegenError, match="llvm"):
            CompileOptions(backend="llvm")
        with pytest.raises(CodegenError, match="llvm"):
            repro.grad(_program(), wrt="A", backend="llvm")


class TestMemoComparesWholeRequests:
    @pytest.mark.parametrize("holder", [_program, lambda: repro.vmap(_program())],
                             ids=["Program", "BatchedProgram"])
    def test_second_cache_is_consulted(self, holder):
        program, c1, c2 = holder(), CompilationCache(), CompilationCache()
        first = program.compile(cache=c1)
        assert program.compile(cache=c1) is first and c1.stats.lookups == 1
        second = program.compile(cache=c2)
        assert c2.stats.lookups == 1 and len(c2) == 1
        assert second is not first
