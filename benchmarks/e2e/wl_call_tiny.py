"""Workload ``call_tiny``: gradient calls whose kernel does microseconds of work.

op = one gradient call on tiny inputs, numpy backend, default ``O1``:
``sum(sin(A))`` at N=8 plus atax, bias_act and jacobi1d at preset ``"S"``;
half the programs are called positionally, half by keyword.
``bind_arguments`` and result unwrap dominate (a ``sum_sin`` gradient takes
~55 us of which ~16 us is binding, against ~3 us of raw NumPy), so
kernel-quality changes must not move this workload and call-path changes must.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

import harness
import repro
import stats
from repro.npbench import get_kernel
from repro.pipeline import CompilationCache

N = repro.symbol("N")


@repro.program
def sum_sin(A: repro.float64[N]):
    return np.sum(np.sin(A))


#: (program, called by keyword?) — fixed ops of a 10 s run per program.
PROGRAMS = (("sum_sin", False), ("atax", True), ("bias_act", False), ("jacobi1d", True))
OPS_PER_PROGRAM = 14000
WARMUP_CALLS = 200


class Workload(harness.Workload):

    def setup(self) -> None:
        self.cache = CompilationCache()
        rng = np.random.default_rng(self.ctx.seed)
        self.gradients, self.data, self.reference, self.by_keyword = [], [], [], []
        for name, by_keyword in PROGRAMS:
            if name == "sum_sin":
                program, wrt, data = sum_sin, "A", {"A": rng.random(8)}
                oracle = np.cos(data["A"])
            else:
                spec = get_kernel(name)
                program, wrt, data = spec.program_for("S"), spec.wrt, spec.data("S", self.ctx.seed)
                _, oracle = spec.jaxlike_grad(harness.copy_data(data), wrt)
            gradient = repro.compile(program, wrt=wrt, cache=self.cache)
            self.gradients.append(gradient)
            self.data.append(data)
            self.by_keyword.append(by_keyword)
            for _ in range(WARMUP_CALLS):
                got = self._call(len(self.gradients) - 1)
            self.check(harness.matches(got, oracle))
            self.reference.append(got)

    def _arguments(self, index: int) -> tuple[tuple, dict]:
        data = harness.copy_data(self.data[index])
        if self.by_keyword[index]:
            return (), data
        names = self.gradients[index].compiled.sdfg.arg_names
        return tuple(data[name] for name in names), {}

    def _call(self, index: int):
        args, kwargs = self._arguments(index)
        return self.gradients[index](*args, **kwargs)

    def measure(self) -> harness.Samples:
        samples = harness.Samples([name for name, _ in PROGRAMS], speed_blocks=10,
                                  tail_blocks=10)
        programs = range(len(PROGRAMS))
        for _ in range(self.ctx.count(OPS_PER_PROGRAM, 100)):
            for index in programs:
                args, kwargs = self._arguments(index)
                gradient = self.gradients[index]
                start = perf_counter_ns()
                got = gradient(*args, **kwargs)
                elapsed = perf_counter_ns() - start
                samples.add(index, elapsed, harness.matches(got, self.reference[index]))
        return samples

    def peak_mem_mib(self) -> float:
        peaks = [
            harness.op_peak_bytes(lambda: self._arguments(index),
                                  lambda args, kwargs: self.gradients[index](*args, **kwargs))
            / 2**20
            for index in range(len(PROGRAMS))
        ]
        return stats.geomean(peaks)

    # -- traced pass ------------------------------------------------------
    def _median_call_us(self, call, rounds: int) -> list[float]:
        """Per program, the median time of ``call(index, args, kwargs)``."""
        times: list[list[int]] = [[] for _ in PROGRAMS]
        for _ in range(rounds):
            for index in range(len(PROGRAMS)):
                args, kwargs = self._arguments(index)
                start = perf_counter_ns()
                call(index, args, kwargs)
                times[index].append(perf_counter_ns() - start)
        return [stats.median(values) / 1e3 for values in times]

    def layers(self) -> dict:
        from repro import obs
        from repro.codegen.runtime import bind_arguments

        recorder = self.ctx.recorder
        rounds = self.ctx.count(OPS_PER_PROGRAM // 10, 50)

        def plain(index, args, kwargs):
            return self.gradients[index](*args, **kwargs)

        total_us = self._median_call_us(plain, rounds)
        ops = iter(range(rounds * len(PROGRAMS)))
        traced_us = self._median_call_us(
            lambda index, args, kwargs: harness.traced_gradient_call(
                recorder, next(ops), "op.call_tiny", self.gradients[index], args, kwargs),
            rounds)
        bind_us = self._median_call_us(
            lambda index, args, kwargs: bind_arguments(
                self.gradients[index].compiled.sdfg, args, kwargs), rounds)

        kernel_ns: list[list[int]] = [[] for _ in PROGRAMS]

        def kernel_only(index, args, kwargs):
            compiled = self.gradients[index].compiled
            bindings = bind_arguments(compiled.sdfg, args, kwargs)
            start = perf_counter_ns()
            compiled.call_with_bindings(bindings)
            kernel_ns[index].append(perf_counter_ns() - start)

        self._median_call_us(kernel_only, rounds)
        kernel_us = [stats.median(values) / 1e3 for values in kernel_ns]
        out = {
            "codegen.bind_us": stats.geomean(bind_us),
            "codegen.kernel_us": stats.geomean(kernel_us),
            "codegen.unwrap_us": stats.geomean(
                [max(total - bind - kernel, 1e-3)
                 for total, bind, kernel in zip(total_us, bind_us, kernel_us)]),
            "codegen.bind_share": stats.geomean(
                [bind / total for bind, total in zip(bind_us, total_us)]),
            "bench.trace_overhead_share": stats.geomean(
                [traced / total for traced, total in zip(traced_us, total_us)]) - 1.0,
        }

        # The floor: sum_sin forward compiled, native, and as plain NumPy.
        vector = self.data[0]["A"]
        forward = repro.compile(sum_sin, cache=self.cache)
        native = repro.compile(sum_sin, wrt="A", backend="cython", cache=self.cache)
        self.check(harness.matches(native(vector.copy()), self.reference[0]))
        repeats = rounds * 2
        out["codegen.forward_call_us"] = harness.median_us(lambda: forward(vector), repeats)
        out["native.tiny_call_us"] = harness.median_us(lambda: native(vector), repeats)
        out["codegen.numpy_forward_us"] = harness.median_us(
            lambda: np.sum(np.sin(vector)), repeats)

        # repro.obs switched on, against the same ops with it off.
        obs.enable()
        try:
            enabled_us = self._median_call_us(plain, rounds)
        finally:
            obs.disable()
        out["obs.enabled_overhead_share"] = stats.geomean(
            [on / off for on, off in zip(enabled_us, total_us)]) - 1.0
        return out
