"""Tests for the pluggable code-generation backends.

Covers the two backend names, the native ("cython") backend's correctness
against the NumPy backend, the automatic per-program fallback, cache
integration (distinct fingerprints per backend, persist_dir artifact
round-trip) and the backend-aware O3 fusion rule.  The cross-backend
differential sweep over the full kernel suite lives in
``tests/test_backend_differential.py``.
"""

import pickle
import shutil

import numpy as np
import pytest

import repro
from repro.codegen import compile_sdfg, resolve_backend
from repro.codegen.cython_backend import (
    NativeCompiledSDFG,
    NativeToolchainError,
    find_c_compiler,
)
from repro.ir import SDFG, LibraryCall, Memlet
from repro.npbench import get_kernel
from repro.pipeline import (
    CompilationCache,
    CompileOptions,
    PassManager,
    build_pipeline,
    compile_forward,
)
from repro.symbolic import Sym
from repro.util.errors import CodegenError, UnsupportedFeatureError

N = repro.symbol("N")

HAVE_TOOLCHAIN = find_c_compiler() is not None
needs_toolchain = pytest.mark.skipif(
    not HAVE_TOOLCHAIN, reason="no C compiler on PATH"
)


def make_loop_program():
    @repro.program
    def smooth(A: repro.float64[N]):
        out = np.zeros_like(A)
        for i in range(1, N - 1):
            out[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0
        return out

    return smooth


def make_inplace_program():
    @repro.program
    def scale(A: repro.float64[N, N]):
        for i in range(N):
            for j in range(N):
                A[i, j] = A[i, j] * 2.0 + 1.0
        return np.sum(A)

    return scale


def make_softmax_sdfg():
    """An SDFG whose only node is a library kind the native backend cannot
    lower — the whole program declines, triggering the pipeline fallback."""
    sdfg = SDFG("only_softmax")
    sdfg.add_array("X", (Sym("N"),), "float64")
    sdfg.add_array("__return", (Sym("N"),), "float64", transient=True)
    sdfg.arg_names = ["X"]
    sdfg.return_name = "__return"
    state = sdfg.add_state("s")
    state.add(
        LibraryCall(
            "softmax",
            inputs={"_in": Memlet("X", None)},
            output=Memlet("__return", None),
        )
    )
    return sdfg


class TestBackendNames:
    def test_default_backend_is_numpy(self):
        assert resolve_backend(None) == resolve_backend("numpy") == "numpy"
        assert CompileOptions().backend == "numpy"
        compiled = compile_forward(make_loop_program(), "O1", cache=False).compiled
        assert compiled.backend == "numpy"

    def test_native_alias_resolves_to_cython(self):
        # Honest alias: the emitted language is C.
        assert resolve_backend("native") == resolve_backend("cython") == "cython"
        assert CompileOptions(backend="native") == CompileOptions(backend="cython")
        assert (build_pipeline("O3", backend="native").fingerprint()
                == build_pipeline("O3", backend="cython").fingerprint())

    @pytest.mark.parametrize("build", [
        lambda: CompileOptions(backend="llvm"),
        lambda: build_pipeline("O1", backend="llvm"),
        lambda: compile_sdfg(make_loop_program().to_sdfg(), backend="llvm"),
        lambda: compile_forward(make_loop_program(), backend="llvm", cache=False),
    ], ids=["CompileOptions", "build_pipeline", "compile_sdfg", "compile_forward"])
    def test_unknown_backend_error_lists_options(self, build):
        with pytest.raises(CodegenError, match=r"'llvm'.*'cython', 'native', 'numpy'"):
            build()


@needs_toolchain
class TestNativeCorrectness:
    def test_forward_matches_numpy(self):
        x = np.linspace(0.0, 1.0, 64)
        c_np = repro.compile(make_loop_program(), optimize="O0", cache=False)
        c_cy = repro.compile(
            make_loop_program(), optimize="O0", backend="cython", cache=False
        )
        assert c_cy.backend == "cython"
        assert isinstance(c_cy, NativeCompiledSDFG)
        np.testing.assert_allclose(c_cy(x.copy()), c_np(x.copy()), rtol=0, atol=1e-9)

    def test_report_records_backend(self):
        outcome = compile_forward(
            make_loop_program(), "O3", cache=False, backend="cython"
        )
        assert outcome.report.backend == "cython"
        assert outcome.report.backend_fallback is None
        assert "[backend=cython]" in outcome.report.pretty()

    def test_gradient_through_native_backend(self):
        @repro.program
        def f(A: repro.float64[N]):
            s = 0.0
            for i in range(N):
                s = s + A[i] * A[i] + np.sin(A[i])
            return s

        x = np.linspace(0.1, 1.0, 40)
        g_np = repro.grad(f, wrt="A")
        g_cy = repro.grad(f, wrt="A", backend="cython")
        assert g_cy.report.backend == "cython"
        np.testing.assert_allclose(g_cy(x.copy()), g_np(x.copy()), rtol=0, atol=1e-9)

    def test_vmap_through_native_backend(self):
        batch = np.random.default_rng(0).standard_normal((5, 32))
        expected = repro.vmap(make_loop_program()).compile(optimize="O1")(batch.copy())
        compiled = repro.vmap(make_loop_program()).compile(
            optimize="O1", backend="cython"
        )
        assert compiled.backend == "cython"
        np.testing.assert_allclose(compiled(batch.copy()), expected, rtol=0, atol=1e-9)

    def test_non_contiguous_input_with_write_back(self):
        base_a = np.random.default_rng(1).standard_normal((12, 12))
        base_b = base_a.copy()
        # Fortran-ordered view: not C-contiguous, mutated in place by the
        # program, so the native backend must copy in AND write back.
        view_a = np.asfortranarray(base_a)
        view_b = np.asfortranarray(base_b)
        assert not view_a.flags.c_contiguous

        c_np = repro.compile(make_inplace_program(), optimize="O0", cache=False)
        c_cy = repro.compile(
            make_inplace_program(), optimize="O0", backend="cython", cache=False
        )
        r_np = c_np(view_a)
        r_cy = c_cy(view_b)
        np.testing.assert_allclose(r_cy, r_np, rtol=0, atol=1e-9)
        np.testing.assert_allclose(view_b, view_a, rtol=0, atol=1e-9)


class TestFallback:
    @needs_toolchain
    def test_unsupported_program_raises_for_direct_compile(self):
        with pytest.raises(UnsupportedFeatureError, match="nothing in"):
            compile_sdfg(make_softmax_sdfg(), backend="cython",
                         result_names=["__return"])

    @needs_toolchain
    def test_pipeline_falls_back_to_numpy_with_note(self):
        outcome = compile_forward(
            make_softmax_sdfg(), "O0", cache=False, backend="cython"
        )
        assert outcome.compiled.backend == "numpy"
        assert outcome.report.backend == "numpy"
        fallback = outcome.report.backend_fallback
        assert fallback is not None and fallback.startswith("cython→numpy")
        assert "UnsupportedFeatureError" in fallback
        assert "backend_fallback" in outcome.report.pretty()
        # ... and the result is still correct.
        x = np.linspace(-1.0, 1.0, 8)
        expected = np.exp(x) / np.sum(np.exp(x))
        np.testing.assert_allclose(outcome.compiled(x.copy()), expected, atol=1e-12)

    def test_missing_toolchain_falls_back(self, monkeypatch):
        import repro.codegen.cython_backend.compiled as native_compiled

        monkeypatch.setattr(native_compiled, "find_c_compiler", lambda: None)
        with pytest.raises(NativeToolchainError):
            compile_sdfg(make_loop_program().to_sdfg(), backend="cython")
        outcome = compile_forward(
            make_loop_program(), "O0", cache=False, backend="cython"
        )
        assert outcome.compiled.backend == "numpy"
        assert "NativeToolchainError" in (outcome.report.backend_fallback or "")

    def test_fallback_reason_keeps_the_whole_error(self, monkeypatch, tmp_path):
        # cc's command line alone is longer than any cut: the error text at
        # its end must reach the report.
        import repro.codegen.cython_backend.build as native_build
        import repro.codegen.cython_backend.compiled as native_compiled

        message = "x" * 490 + "END-MARKER"

        def failing_build(c_source, path):
            raise NativeToolchainError(message)

        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))  # nothing cached
        monkeypatch.setattr(native_compiled, "find_c_compiler", lambda: "cc")
        monkeypatch.setattr(native_build, "compile_shared_object", failing_build)
        outcome = compile_forward(make_loop_program(), "O0", cache=False, backend="cython")
        assert outcome.compiled.backend == "numpy"
        assert message in (outcome.report.backend_fallback or "")


@needs_toolchain
class TestCacheIntegration:
    def test_backends_get_distinct_cache_entries(self):
        cache = CompilationCache()
        program = make_loop_program()
        first = compile_forward(program, "O1", cache=cache, backend="cython")
        second = compile_forward(program, "O1", cache=cache, backend="numpy")
        assert len(cache) == 2
        assert not second.cache_hit
        assert first.compiled.backend == "cython"
        assert second.compiled.backend == "numpy"
        # Same request again: served from cache, backend preserved.
        third = compile_forward(program, "O1", cache=cache, backend="cython")
        assert third.cache_hit
        assert third.compiled.backend == "cython"
        assert third.report.backend == "cython"

    def test_persist_dir_round_trips_native_artifacts(self, tmp_path):
        persist = str(tmp_path / "spill")
        x = np.linspace(0.0, 1.0, 48)

        warm = CompilationCache(persist_dir=persist)
        cold = compile_forward(
            make_loop_program(), "O1", cache=warm, backend="cython"
        )
        expected = cold.compiled(x.copy())

        # A fresh cache over the same directory simulates a new process:
        # the entry loads from disk, restoring a working native callable.
        fresh = CompilationCache(persist_dir=persist)
        loaded = compile_forward(
            make_loop_program(), "O1", cache=fresh, backend="cython"
        )
        assert fresh.stats.disk_hits == 1
        assert loaded.cache_hit
        assert isinstance(loaded.compiled, NativeCompiledSDFG)
        assert loaded.compiled.backend == "cython"
        np.testing.assert_allclose(loaded.compiled(x.copy()), expected, atol=1e-9)

    def test_one_backend_entry_misses_for_another(self, tmp_path):
        persist = str(tmp_path / "spill")
        first = CompilationCache(persist_dir=persist)
        compile_forward(make_loop_program(), "O1", cache=first, backend="cython")

        fresh = CompilationCache(persist_dir=persist)
        outcome = compile_forward(
            make_loop_program(), "O1", cache=fresh, backend="numpy"
        )
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1
        assert outcome.compiled.backend == "numpy"

    def test_direct_pickle_rebuilds_missing_artifact(self, tmp_path, monkeypatch):
        # Isolate the content-addressed artifact cache so wiping it cannot
        # touch the user's real one.
        art_dir = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(art_dir))
        x = np.linspace(0.0, 1.0, 48)
        compiled = repro.compile(
            make_loop_program(), optimize="O1", backend="cython", cache=False
        )
        expected = compiled(x.copy())
        blob = pickle.dumps(compiled)
        shutil.rmtree(art_dir)  # artifact gone: restore must use embedded bytes
        restored = pickle.loads(blob)
        assert isinstance(restored, NativeCompiledSDFG)
        np.testing.assert_allclose(restored(x.copy()), expected, atol=1e-9)


class TestBackendAwareFusion:
    @staticmethod
    def _o3_gradient_fusion(backend):
        """Fingerprint and report of the map-fusion stage an O3 gradient
        compile of bias_act runs on ``backend``."""
        spec = get_kernel("bias_act")
        manager = build_pipeline("O3", gradient=True, wrt=[spec.wrt], backend=backend)
        fusion = next(p for p in manager.passes if p.name == "map-fusion")
        _, report = PassManager([fusion]).run(spec.program_for("S").to_sdfg())
        return fusion.fingerprint(), report.record_for("map-fusion").info

    def test_native_o3_gradient_fuses_what_numpy_declines(self):
        # A native loop recomputes a fused value in registers, so only the
        # NumPy O3 gradient keeps the values its backward pass would recompute.
        numpy_print, numpy_info = self._o3_gradient_fusion("numpy")
        native_print, native_info = self._o3_gradient_fusion("cython")
        assert (numpy_info["maps_fused"], numpy_info["declined_recompute"]) == (1, 2)
        assert native_info["maps_fused"] == 3
        assert "declined_recompute" not in native_info
        assert numpy_print != native_print
