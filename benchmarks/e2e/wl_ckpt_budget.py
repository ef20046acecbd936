"""Workload ``ckpt_budget``: a gradient under a memory limit.

op = one gradient call of the paper's Listing-1 program (Fig. 13) at N=1024
(8 MiB per array), ``wrt="C"``, ``O1``, numpy backend, under
``ILPCheckpointing(memory_limit_mib=20)``.  It uses the same ``autodiff`` and
``codegen`` layers as ``grad_npbench`` but trades time for memory, so a time
win bought with memory (or the reverse) shows in ``peak_mem_mib`` against
``op_ms_p50``.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

import harness
import repro
from repro.checkpointing import ILPCheckpointing, RecomputeAll, StoreAll
from repro.pipeline import CompilationCache

N = repro.symbol("N")
LIMIT_MIB = 20.0
#: Fixed ops of a 10 s run (~190 ms each).
OPS = 50
WARMUP_CALLS = 2


@repro.program
def listing1(C: repro.float64[N, N], D: repro.float64[N, N]):
    A0 = C + D
    sin0 = np.sin(A0)
    D1 = D * 6.0
    A1 = C + D1
    sin1 = np.sin(A1)
    D2 = D1 * 3.0
    A2 = C + D2
    sin2 = np.sin(A2)
    return np.sum(sin0 + sin1 + sin2)


def analytic_gradient(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """d/dC of Listing 1, written out by hand."""
    return np.cos(C + D) + np.cos(C + 6.0 * D) + np.cos(C + 18.0 * D)


class Workload(harness.Workload):

    def __init__(self, ctx: harness.Context) -> None:
        super().__init__(ctx)
        self.size = 128 if ctx.quick else 1024

    def _compile(self, strategy, optimize: str = "O1"):
        return repro.compile(listing1, optimize, wrt="C", checkpointing=strategy,
                             cache=self.cache)

    def setup(self) -> None:
        self.cache = CompilationCache()
        rng = np.random.default_rng(self.ctx.seed)
        self.data = {"C": rng.random((self.size, self.size)),
                     "D": rng.random((self.size, self.size))}
        # The limit holds two of the three 8 MiB forwarded arrays; it scales
        # with the array size so the quick mode solves the same problem.
        self.strategy = ILPCheckpointing(
            memory_limit_mib=LIMIT_MIB * (self.size / 1024) ** 2,
            symbol_values={"N": self.size})
        self.gradient = self._compile(self.strategy)
        self.store_all = self._compile(StoreAll())
        self.reference = self.store_all(**harness.copy_data(self.data))
        self.check(harness.matches(self.reference, analytic_gradient(**self.data)))
        self.check(harness.matches(self.gradient(**harness.copy_data(self.data)),
                                    self.reference))

    def measure(self) -> harness.Samples:
        samples = harness.Samples(["listing1"], speed_blocks=10, tail_blocks=1)
        for _ in range(WARMUP_CALLS):
            self.gradient(**harness.copy_data(self.data))
        for _ in range(self.ctx.count(OPS, 12)):
            args = harness.copy_data(self.data)
            start = perf_counter_ns()
            got = self.gradient(**args)
            elapsed = perf_counter_ns() - start
            samples.add(0, elapsed, harness.matches(got, self.reference))
        return samples

    def _peak_mib(self, gradient) -> float:
        return harness.op_peak_bytes(lambda: (harness.copy_data(self.data),),
                                     lambda args: gradient(**args)) / 2**20

    def peak_mem_mib(self) -> float:
        return self._peak_mib(self.gradient)

    # -- traced pass ------------------------------------------------------
    def layers(self) -> dict:
        recorder = self.ctx.recorder
        ops = self.ctx.count(OPS // 5, 3)
        report = self.strategy.last_report
        decisions = list(report.decisions_by_data.values())
        measured_mib = self._peak_mib(self.gradient)
        out = {
            "checkpointing.ilp_solve_ms": report.solve_time_seconds * 1e3,
            "checkpointing.ilp_variables": report.num_variables,
            "checkpointing.stored": decisions.count("store"),
            "checkpointing.recomputed": decisions.count("recompute"),
            "checkpointing.modelled_peak_mib": report.modeled_peak_bytes / 2**20,
            "checkpointing.measured_over_modelled":
                measured_mib / (report.modeled_peak_bytes / 2**20),
        }
        untraced_ms = harness.median_call_ms(lambda args: self.gradient(**args), self.data, ops)
        op_ids = iter(range(ops))
        traced_ms = harness.median_call_ms(
            lambda args: harness.traced_gradient_call(
                recorder, next(op_ids), "op.ckpt_budget", self.gradient, (), args),
            self.data, ops)
        out["bench.trace_overhead_share"] = traced_ms / untraced_ms - 1.0

        # The two ends the ILP chooses between, and O2's planned buffers.
        with recorder.span("checkpointing.compile_recompute_all"):
            recompute_all = self._compile(RecomputeAll())
        with recorder.span("passes.compile_o2"):
            at_o2 = self._compile(self.strategy, "O2")
        for name, gradient in (("checkpointing.store_all", self.store_all),
                               ("checkpointing.recompute_all", recompute_all),
                               ("passes.o2", at_o2)):
            self.check(harness.matches(gradient(**harness.copy_data(self.data)),
                                        self.reference))
            with recorder.span(f"{name}.calls"):
                call_ms = harness.median_call_ms(lambda args: gradient(**args), self.data, ops)
            out[f"{name}_call_ms" if name == "passes.o2" else f"{name}_ms"] = call_ms
            out[f"{name}_peak_mib"] = self._peak_mib(gradient)
        return out
