"""The call boundary: what a compiled program accepts, returns and rejects.

One table, run on both backends and in three calling styles.  A row presents
the inputs of a program in one form (strided, Fortran order, float32, list,
zero-size, aliased, with explicit symbols) and expects either the result of
the plain call — contiguous float64 arrays passed positionally — or a
``CodegenError`` with a fixed message.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.codegen.cython_backend import find_c_compiler
from repro.codegen.runtime import BindingPlan, bind_arguments, binding_plan
from repro.pipeline import CompilationCache, compile_gradient
from repro.util.errors import CodegenError

N = repro.symbol("N")
M = repro.symbol("M")

BACKENDS = [
    "numpy",
    pytest.param("cython", marks=pytest.mark.skipif(
        find_c_compiler() is None, reason="no C compiler on PATH")),
]
STYLES = ["positional", "keyword", "mixed"]


@repro.program
def pair(A: repro.float64[N, M], B: repro.float64[N, M]):
    return np.sum(np.sin(A) * B)


@repro.program
def steps(A: repro.float64[N], B: repro.float64[N], TSTEPS: repro.int64):
    for t in range(TSTEPS):
        B[1:-1] = 0.33 * (A[:-2] + A[1:-1] + A[2:])
        A[1:-1] = 0.33 * (B[:-2] + B[1:-1] + B[2:])
    return np.sum(A * A)


PROGRAMS = {"pair": pair, "steps": steps}
_COMPILED: dict = {}


def gradient(program: str, backend: str):
    """``value_and_grad`` wrt ``A`` — a 0-d value beside an array result."""
    key = (program, backend)
    if key not in _COMPILED:
        _COMPILED[key] = repro.value_and_grad(PROGRAMS[program], wrt="A", backend=backend)
        assert _COMPILED[key].compiled.backend == backend
    return _COMPILED[key]


def inputs(program: str, n: int = 5, m: int = 4) -> dict:
    """Contiguous float64 arguments in signature order, with values float32
    holds exactly (so the float32 and list rows lose nothing)."""
    rng = np.random.default_rng(n * 31 + m)

    def values(*shape):
        return (rng.random(shape) + 0.25).astype(np.float32).astype(np.float64)

    if program == "pair":
        return {"A": values(n, m), "B": values(n, m)}
    return {"A": values(n), "B": values(n), "TSTEPS": 3}


def strided(value):
    wide = np.zeros(value.shape[:-1] + (2 * value.shape[-1],))
    wide[..., ::2] = value
    return wide[..., ::2]


def each_array(change):
    def present(data):
        return {name: change(value) if isinstance(value, np.ndarray) else value
                for name, value in data.items()}
    return present


def aliased(data):
    return {**data, "B": data["A"]}


def invoke(function, data: dict, extra: dict, style: str):
    names = list(data)
    positional = {"positional": len(names), "keyword": 0, "mixed": 1}[style]
    return function(*(data[name] for name in names[:positional]),
                    **{name: data[name] for name in names[positional:]}, **extra)


def assert_same(got, expected):
    assert isinstance(got[0], float)
    assert got[0] == pytest.approx(expected[0], rel=1e-12, abs=1e-12)
    assert got[1].shape == expected[1].shape and got[1].dtype == np.float64
    np.testing.assert_allclose(got[1], expected[1], rtol=1e-12, atol=1e-12)


#: (id, program, sizes, presentation of the plain inputs, extra keywords,
#:  expected message or None for "the plain call's result")
ROWS = [
    ("contiguous", "pair", {}, dict, {}, None),
    ("strided", "pair", {}, each_array(strided), {}, None),
    ("fortran", "pair", {}, each_array(np.asfortranarray), {}, None),
    ("float32", "pair", {}, each_array(lambda v: v.astype(np.float32)), {}, None),
    ("list", "pair", {}, each_array(np.ndarray.tolist), {}, None),
    ("zero-rows", "pair", {"n": 0}, dict, {}, None),
    ("zero-rows-strided", "pair", {"n": 0}, each_array(strided), {}, None),
    ("aliased", "pair", {}, aliased, {}, None),
    ("symbol-agrees", "pair", {}, dict, {"N": 5}, None),
    ("symbol-agrees-float", "pair", {}, dict, {"N": 5.0, "M": np.int64(4)}, None),
    ("symbol-disagrees", "pair", {}, dict, {"N": 6},
     "Argument 'A' has shape (5, 4), expected (6, 4)"),
    ("steps", "steps", {}, dict, {}, None),
    ("steps-strided", "steps", {}, each_array(strided), {}, None),
    ("steps-float32", "steps", {}, each_array(lambda v: v.astype(np.float32)), {}, None),
    ("steps-list", "steps", {}, each_array(np.ndarray.tolist), {}, None),
    ("steps-zero-size", "steps", {"n": 0}, dict, {}, None),
    ("steps-aliased", "steps", {}, aliased, {}, None),
    ("steps-symbol-disagrees", "steps", {}, dict, {"N": 4},
     "Argument 'A' has shape (5,), expected (4,)"),
    # New with the binding plan: these returned a result before.
    ("unknown-keyword", "pair", {}, dict, {"typo": 3},
     "pair got an unexpected keyword argument 'typo'; it takes arguments "
     "['A', 'B'] and symbols ['M', 'N']"),
    ("transient-keyword", "pair", {}, dict, {"__sum": np.zeros(())},
     "pair got an unexpected keyword argument '__sum'; it takes arguments "
     "['A', 'B'] and symbols ['M', 'N']"),
    ("fractional-symbol", "pair", {}, dict, {"N": 5.9},
     "Symbol 'N' takes an integer, got 5.9"),
    ("complex", "pair", {}, each_array(lambda v: v.astype(np.complex128)), {},
     "Argument 'A' has dtype complex128, which does not convert to float64 without loss"),
]


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_presentations(row, backend, style):
    _, program, sizes, present, extra, message = row
    function = gradient(program, backend)
    presented = present(inputs(program, **sizes))
    if message is not None:
        with pytest.raises(CodegenError) as raised:
            invoke(function, presented, extra, style)
        assert str(raised.value) == message
        return
    plain = present(inputs(program, **sizes)) if present is aliased else inputs(program, **sizes)
    expected = invoke(function, plain, {}, "positional")
    assert_same(invoke(function, presented, extra, style), expected)


@pytest.mark.parametrize("backend", BACKENDS)
def test_plain_call_is_right(backend):
    data = inputs("pair")
    value, grad = gradient("pair", backend)(*inputs("pair").values())
    assert value == pytest.approx(np.sum(np.sin(data["A"]) * data["B"]))
    np.testing.assert_allclose(grad, np.cos(data["A"]) * data["B"], atol=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_only_uncoerced_inputs_see_in_place_updates(backend):
    """``steps`` updates A and B in place.  An array of the right dtype is
    updated whatever its layout; a coerced input (float32, list) is a copy."""
    function = gradient("steps", backend)
    updated = inputs("steps")
    function(*updated.values())

    view = each_array(strided)(inputs("steps"))
    function(**view)
    np.testing.assert_allclose(view["A"], updated["A"], atol=1e-12)
    np.testing.assert_allclose(view["B"], updated["B"], atol=1e-12)

    single = each_array(lambda v: v.astype(np.float32))(inputs("steps"))
    function(**single)
    np.testing.assert_array_equal(single["A"], inputs("steps")["A"])


# -- errors: text and precedence ------------------------------------------
def error_calls():
    pair_in, steps_in = inputs("pair"), inputs("steps")
    a, b = pair_in["A"], pair_in["B"]
    x, y = steps_in["A"], steps_in["B"]
    return [
        ("too-many", "pair", (a, b, 1), {}, "pair takes 2 arguments, got 3"),
        ("duplicate", "pair", (a, b), {"A": a},
         "Argument 'A' passed both positionally and by keyword"),
        ("rank", "pair", (a[0], b), {}, "Argument 'A' has 1 dimensions, expected 2"),
        ("missing", "pair", (a,), {}, "Missing argument 'B' for pair"),
        ("shape", "pair", (a, b[:2]), {}, "Argument 'B' has shape (2, 4), expected (5, 4)"),
        ("undetermined", "steps", (x, y), {},
         "Could not determine values for symbols ['TSTEPS']; pass them as keyword arguments"),
        # Two faults in one call: the earlier check speaks.
        ("too-many-before-duplicate", "pair", (a, b, 1), {"A": a},
         "pair takes 2 arguments, got 3"),
        ("duplicate-before-unknown", "pair", (a, b), {"A": a, "typo": 1},
         "Argument 'A' passed both positionally and by keyword"),
        ("unknown-before-rank", "pair", (a[0],), {"typo": 1},
         "pair got an unexpected keyword argument 'typo'; it takes arguments "
         "['A', 'B'] and symbols ['M', 'N']"),
        ("fractional-before-rank", "pair", (a[0], b), {"N": 0.5},
         "Symbol 'N' takes an integer, got 0.5"),
        ("rank-before-missing", "pair", (a[0],), {},
         "Argument 'A' has 1 dimensions, expected 2"),
        ("shape-before-missing", "pair", (a,), {"N": 6},
         "Argument 'A' has shape (5, 4), expected (6, 4)"),
        ("missing-before-shape", "pair", (), {"B": b, "N": 6}, "Missing argument 'A' for pair"),
        ("shape-before-undetermined", "steps", (x, y[:2]), {},
         "Argument 'B' has shape (2,), expected (5,)"),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", error_calls(), ids=[case[0] for case in error_calls()])
def test_error_text_and_precedence(case, backend):
    _, program, args, kwargs, message = case
    with pytest.raises(CodegenError) as raised:
        gradient(program, backend)(*args, **kwargs)
    assert str(raised.value) == message


def test_binding_order_is_containers_then_explicit_then_inferred_symbols():
    data = inputs("pair")
    sdfg = gradient("pair", "numpy").compiled.sdfg
    bound = bind_arguments(sdfg, (), {"B": data["B"], "M": 4, "A": data["A"]})
    assert list(bound) == ["A", "B", "M", "N"]
    assert bound["A"] is data["A"] and bound["B"] is data["B"]
    assert (bound["M"], bound["N"]) == (4, 5) and type(bound["N"]) is int


# -- the plan: built lazily, once, and never stale ------------------------
def test_plan_is_built_on_the_first_call_and_once(monkeypatch):
    built = []
    construct = BindingPlan.__init__

    def counting(self, sdfg):
        built.append(sdfg.name)
        construct(self, sdfg)

    monkeypatch.setattr(BindingPlan, "__init__", counting)
    outcome = compile_gradient(pair, wrt="A", cache=CompilationCache())
    assert built == []
    data = inputs("pair")
    for _ in range(3):
        outcome.compiled(**data)
        bind_arguments(outcome.compiled.sdfg, (), data)
    assert built == ["pair"]
    assert binding_plan(outcome.compiled.sdfg) is binding_plan(outcome.compiled.sdfg)


def test_uncompiled_sdfg_gets_a_fresh_plan_each_time():
    sdfg = pair.to_sdfg().copy()
    data = inputs("pair")
    assert list(bind_arguments(sdfg, tuple(data.values()), {})) == ["A", "B", "N", "M"]
    sdfg.add_array("C", [N], "float64")
    with pytest.raises(CodegenError, match="Missing argument 'C' for pair"):
        bind_arguments(sdfg, tuple(data.values()), {})
    bound = bind_arguments(sdfg, tuple(data.values()), {"C": np.zeros(5)})
    assert list(bound) == ["A", "B", "C", "N", "M"]
    assert binding_plan(sdfg) is not binding_plan(sdfg)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_entry_loaded_from_disk_binds_and_calls(backend, tmp_path):
    persist = str(tmp_path / "spill")
    first = compile_gradient(pair, wrt="A", backend=backend,
                             cache=CompilationCache(persist_dir=persist))
    data = inputs("pair")
    expected = first.compiled(**data)

    fresh = CompilationCache(persist_dir=persist)
    loaded = compile_gradient(pair, wrt="A", backend=backend, cache=fresh)
    assert fresh.stats.disk_hits == 1 and loaded.compiled is not first.compiled
    assert loaded.compiled.backend == backend
    got = loaded.compiled(data["A"], B=strided(data["B"]), N=5)
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert binding_plan(loaded.compiled.sdfg) is binding_plan(loaded.compiled.sdfg)
    with pytest.raises(CodegenError, match="unexpected keyword argument 'typo'"):
        loaded.compiled(**data, typo=1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_one_compiled_object_called_from_two_threads(backend):
    """The plan holds no per-call state: concurrent calls with different
    ``N`` each see their own sizes."""
    function = gradient("pair", backend)
    failures = []

    def worker(n):
        data = inputs("pair", n=n)
        expected = np.cos(data["A"]) * data["B"]
        for _ in range(300):
            _, grad = function(**data)
            if grad.shape != (n, 4) or not np.allclose(grad, expected, atol=1e-12):
                failures.append(n)
                return

    threads = [threading.Thread(target=worker, args=(n,)) for n in (3, 7)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
