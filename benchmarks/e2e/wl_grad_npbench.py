"""Workload ``grad_npbench``: steady-state gradient calls at paper size.

op = one ``optimize="O3"`` gradient call of one (kernel, backend) pair at the
``"paper"`` preset.  This is the paper's headline quantity (Fig. 1/10/11):
time is spent in generated kernels, argument binding is under 1 %, so a
call-path change must not move it.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns

import harness
import stats
from spec import BACKENDS, GRAD_KERNELS

#: Fixed op counts of a 10 s run, sized so each pair gets ~0.45 s (never
#: fewer than 5 samples) at the seed commit's speed: native gemm takes
#: ~590 ms a call, native seidel2d 0.6 ms.  Multiples of SPEED_BLOCKS, so
#: every block holds the same mix of pairs.
SPEED_BLOCKS = 5
COUNTS = {
    ("atax", "numpy"): 20, ("atax", "cython"): 15,
    ("gemm", "numpy"): 15, ("gemm", "cython"): 5,
    ("bias_act", "numpy"): 10, ("bias_act", "cython"): 25,
    ("softmax", "numpy"): 50, ("softmax", "cython"): 40,
    ("jacobi2d", "numpy"): 5, ("jacobi2d", "cython"): 15,
    ("hdiff", "numpy"): 60, ("hdiff", "cython"): 60,
    ("seidel2d", "numpy"): 5, ("seidel2d", "cython"): 60,
    ("cholesky", "numpy"): 10, ("cholesky", "cython"): 15,
}
#: The jaxlike oracle at paper size takes 10 s (jacobi2d) and 13 s
#: (seidel2d); the traced pass compares both engines on fewer time steps.
ORACLE_STEPS = {"jacobi2d": 5, "seidel2d": 2}
WARMUP_CALLS = 1   #: per pair, before the measured ops (set-up makes one more)


class Workload(harness.Workload):

    def __init__(self, ctx: harness.Context) -> None:
        super().__init__(ctx)
        self.preset = "S" if ctx.quick else "paper"
        self.pairs = [(kernel, backend) for kernel in GRAD_KERNELS for backend in BACKENDS]

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        import repro
        from repro.npbench import get_kernel
        from repro.pipeline import CompilationCache

        self.repro = repro
        self.cache = CompilationCache()
        self.ctx.fresh_native_dir()
        self.specs = {kernel: get_kernel(kernel) for kernel in GRAD_KERNELS}
        self.data = {kernel: spec.data(self.preset, self.ctx.seed)
                     for kernel, spec in self.specs.items()}
        self.gradients = {}
        self.compile_s = {}
        for kernel, backend in self.pairs:
            spec = self.specs[kernel]
            start = perf_counter()
            self.gradients[kernel, backend] = repro.compile(
                spec.program_for(self.preset), "O3", wrt=spec.wrt, backend=backend,
                cache=self.cache,
            )
            self.compile_s[kernel, backend] = perf_counter() - start

        # Every gradient against the independent oracle, on small inputs.
        for kernel, spec in self.specs.items():
            small = spec.data("S", self.ctx.seed)
            _, oracle = spec.jaxlike_grad(harness.copy_data(small), spec.wrt)
            for backend in BACKENDS:
                got = self.gradients[kernel, backend](**harness.copy_data(small))
                self.check(harness.matches(got, oracle, spec.dtype))

        # At the measured size numpy's result is the reference the native
        # backend and every measured op must reproduce.
        self.reference = {}
        for kernel, backend in self.pairs:
            spec = self.specs[kernel]
            got = self.gradients[kernel, backend](**harness.copy_data(self.data[kernel]))
            if backend == "numpy":
                self.reference[kernel] = got
            self.check(harness.matches(got, self.reference[kernel], spec.dtype))

    # -- untraced pass ----------------------------------------------------
    def _schedule(self, share: float = 1.0) -> list[int]:
        least = 2 if self.ctx.quick else 3
        counts = [self.ctx.count(COUNTS[pair] * share, least) for pair in self.pairs]
        return harness.spread_schedule(counts)

    def measure(self) -> harness.Samples:
        samples = harness.Samples([f"{kernel}.{backend}" for kernel, backend in self.pairs],
                                  speed_blocks=SPEED_BLOCKS, tail_blocks=2)
        for pair in self.pairs * WARMUP_CALLS:
            self.gradients[pair](**harness.copy_data(self.data[pair[0]]))
        for config in self._schedule():
            kernel, backend = self.pairs[config]
            gradient = self.gradients[kernel, backend]
            args = harness.copy_data(self.data[kernel])
            start = perf_counter_ns()
            got = gradient(**args)
            elapsed = perf_counter_ns() - start
            samples.add(config, elapsed,
                        harness.matches(got, self.reference[kernel], self.specs[kernel].dtype))
        return samples

    def peak_mem_mib(self) -> float:
        peaks = [
            harness.op_peak_bytes(
                lambda: (harness.copy_data(self.data[kernel]),),
                lambda args: self.gradients[kernel, backend](**args),
            ) / 2**20
            for kernel, backend in self.pairs
        ]
        return stats.geomean(peaks)

    # -- traced pass ------------------------------------------------------
    def _pair_medians_ms(self, call, schedule) -> dict:
        """Median op time per pair over ``schedule``; ``call(config, args)``."""
        times: dict[int, list[int]] = {}
        for config in schedule:
            args = harness.copy_data(self.data[self.pairs[config][0]])
            start = perf_counter_ns()
            call(config, args)
            times.setdefault(config, []).append(perf_counter_ns() - start)
        return {self.pairs[config]: stats.median(values) / 1e6
                for config, values in times.items()}

    @staticmethod
    def _time_ms(compiled, data: dict) -> float:
        """Median time of three calls after one warm-up call."""
        compiled(**harness.copy_data(data))
        return harness.median_call_ms(lambda args: compiled(**args), data, 3)

    def layers(self) -> dict:
        recorder = self.ctx.recorder
        schedule = self._schedule(share=0.5)
        untraced = self._pair_medians_ms(
            lambda config, args: self.gradients[self.pairs[config]](**args), schedule)
        ops = iter(range(len(schedule)))
        traced = self._pair_medians_ms(
            lambda config, args: harness.traced_gradient_call(
                recorder, next(ops), "op.grad_npbench", self.gradients[self.pairs[config]],
                (), args),
            schedule)
        out = {f"kernel.{kernel}.{backend}_ms": traced[kernel, backend]
               for kernel, backend in self.pairs}
        out["bench.trace_overhead_share"] = stats.geomean(
            [traced[pair] / untraced[pair] for pair in self.pairs]) - 1.0
        numpy_ms = {kernel: traced[kernel, "numpy"] for kernel in GRAD_KERNELS}
        native_ms = [traced[kernel, "cython"] for kernel in GRAD_KERNELS]
        out["codegen.numpy_geomean_ms"] = stats.geomean(list(numpy_ms.values()))
        out["native.geomean_ms"] = stats.geomean(native_ms)
        out["native.speedup_over_numpy"] = stats.geomean(
            [slow / fast for slow, fast in zip(numpy_ms.values(), native_ms)])
        out.update(self._tiers(numpy_ms))
        out.update(self._native())
        out.update(self._baseline(numpy_ms))
        return out

    def _tiers(self, numpy_ms: dict) -> dict:
        """passes / autodiff: the same kernels at O1, and forward only."""
        recorder = self.ctx.recorder
        o1_ratio, forward_ratio = [], []
        for kernel, spec in self.specs.items():
            with recorder.span("pipeline.compile_o1"):
                at_o1 = self.repro.compile(spec.program_for(self.preset), "O1", wrt=spec.wrt,
                                           cache=self.cache)
            with recorder.span("pipeline.compile_forward"):
                forward = self.repro.compile(spec.program_for(self.preset), "O3",
                                             cache=self.cache)
            data = self.data[kernel]
            o1_ratio.append(self._time_ms(at_o1, data) / numpy_ms[kernel])
            forward_ratio.append(numpy_ms[kernel] / self._time_ms(forward, data))
        return {"passes.o3_over_o1": stats.geomean(o1_ratio),
                "autodiff.grad_over_forward": stats.geomean(forward_ratio)}

    def _native(self) -> dict:
        """What cc costs (a cold compile that finds the artifact on disk
        pays everything but cc), what was declined, and where a native call
        spends its time."""
        from repro.obs import METRICS
        from repro.pipeline import CompilationCache

        recorder = self.ctx.recorder
        native_pairs = [(kernel, "cython") for kernel in GRAD_KERNELS]
        lowered = [pair for pair in native_pairs
                   if self.gradients[pair].report.backend == "cython"]
        cc_ms = native_us = driver_us = 0.0
        for kernel, backend in lowered:
            spec = self.specs[kernel]
            start = perf_counter()
            with recorder.span("codegen.cython_backend.compile_artifact_hit"):
                self.repro.compile(spec.program_for(self.preset), "O3", wrt=spec.wrt,
                                   backend=backend, cache=CompilationCache())
            cc_ms += (self.compile_s[kernel, backend] - (perf_counter() - start)) * 1e3

            inside = []
            timed = self.gradients[kernel, backend].compiled.with_kernel_timers(
                lambda name, start, end: inside.append(end - start))
            totals, natives = [], []
            for _ in range(3):
                args = harness.copy_data(self.data[kernel])
                inside.clear()
                start = perf_counter_ns()
                timed(**args)
                totals.append(perf_counter_ns() - start)
                natives.append(sum(inside))
            native_us += stats.median(natives) / 1e3
            driver_us += (stats.median(totals) - stats.median(natives)) / 1e3
        hits = METRICS.counter("native.artifacts.hits").value
        builds = METRICS.counter("native.artifacts.builds").value
        return {
            "native.declined": len(native_pairs) - len(lowered),
            "native.segments": sum(len(self.gradients[pair].compiled.kernels)
                                   for pair in lowered),
            "native.cc_ms": cc_ms,
            "native.artifact_hit_share": hits / (hits + builds) if hits + builds else 0.0,
            "native.native_us": native_us,
            "native.driver_us": driver_us,
        }

    def _baseline(self, numpy_ms: dict) -> dict:
        """The JAX-style engine on the same inputs (Fig. 1), which is also
        the correctness oracle at the measured size."""
        jaxlike_ms, speedups = [], []
        for kernel, spec in self.specs.items():
            data = dict(self.data[kernel])
            ours = numpy_ms[kernel]
            if kernel in ORACLE_STEPS and not self.ctx.quick:
                data["TSTEPS"] = ORACLE_STEPS[kernel]
                ours = self._time_ms(self.gradients[kernel, "numpy"], data)
            start = perf_counter_ns()
            with self.ctx.recorder.span("baselines.jaxlike_grad"):
                _, oracle = spec.jaxlike_grad(harness.copy_data(data), spec.wrt)
            jaxlike_ms.append((perf_counter_ns() - start) / 1e6)
            speedups.append(jaxlike_ms[-1] / ours)
            got = self.gradients[kernel, "numpy"](**harness.copy_data(data))
            self.check(harness.matches(got, oracle, spec.dtype))
        return {"baselines.jaxlike_grad_ms": stats.geomean(jaxlike_ms),
                "baselines.speedup_vs_jaxlike": stats.geomean(speedups)}
