"""Workload ``compile_cold``: the compiler alone.

op = fresh parse + cold ``compile_gradient`` into a fresh
``CompilationCache()`` of one (kernel, level) of the 33 registered kernels x
{O1, O3}, numpy backend.  Each cold op is followed by the identical call
again — a cache hit, timed as a layer metric — so the cache is used both
ways and work moved from call time into compile time, or from miss into
hit, shows.  No kernel runs in the measured phase.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from time import perf_counter_ns

import harness
import stats

LEVELS = ("O1", "O3")
#: Sweeps over all 66 configurations in a 10 s run (~0.75 s a sweep).
SWEEPS = 12
#: Pass name -> the layer metric its time is summed into.
PASS_METRICS = {
    "prune-constant-branches": "passes.simplify_ms",
    "dead-code-elimination": "passes.simplify_ms",
    "global-value-numbering": "passes.gvn_ms",
    "map-fusion": "passes.map_fusion_ms",
    "memory-planning": "passes.memory_planning_ms",
    "autodiff": "autodiff.backward_ms",
    "codegen": "codegen.emit_ms",
}


class Workload(harness.Workload):

    def setup(self) -> None:
        from repro.npbench import all_kernels
        from repro.pipeline import CompilationCache, compile_gradient

        self.CompilationCache = CompilationCache
        self.compile_gradient = compile_gradient
        self.specs = dict(sorted(all_kernels().items()))
        self.configs = [(name, level) for name in self.specs for level in LEVELS]
        # First sweep: every compiled gradient against the oracle, and the
        # digest of its generated source, which every later compile of the
        # same configuration must reproduce.
        self.digest = {}
        for name, level in self.configs:
            spec = self.specs[name]
            outcome = compile_gradient(spec.program_for("S"), wrt=[spec.wrt], optimize=level,
                                       cache=CompilationCache())
            data = spec.data("S", self.ctx.seed)
            _, oracle = spec.jaxlike_grad(harness.copy_data(data), spec.wrt)
            self.check(harness.matches(outcome.compiled(**harness.copy_data(data)), oracle,
                                        spec.dtype))
            self.digest[name, level] = _digest(outcome)

    def _cold_then_hit(self, config: int):
        """One op and its cache hit: (cold ns, hit ns, all as expected)."""
        name, level = self.configs[config]
        spec = self.specs[name]
        cache = self.CompilationCache()
        start = perf_counter_ns()
        cold = self.compile_gradient(spec.program_for("S"), wrt=[spec.wrt], optimize=level,
                                     cache=cache)
        middle = perf_counter_ns()
        hit = self.compile_gradient(spec.program_for("S"), wrt=[spec.wrt], optimize=level,
                                    cache=cache)
        end = perf_counter_ns()
        ok = (not cold.cache_hit and hit.cache_hit and hit.compiled is cold.compiled
              and _digest(cold) == self.digest[name, level])
        return middle - start, end - middle, ok

    def measure(self) -> harness.Samples:
        sweeps = self.ctx.count(SWEEPS, 2)
        samples = harness.Samples([f"{name}.{level}" for name, level in self.configs],
                                  speed_blocks=sweeps, tail_blocks=6)
        hit_ns = []
        for _ in range(sweeps):
            for config in range(len(self.configs)):
                cold, hit, ok = self._cold_then_hit(config)
                samples.add(config, cold, ok)
                hit_ns.append(hit)
        samples.notes["cache_hit_ms_p50"] = stats.median(hit_ns) / 1e6
        return samples

    def peak_mem_mib(self) -> float:
        """The compiler's own peak, over the O3 cold compile of every kernel."""
        peaks = []
        for name, spec in self.specs.items():
            gc.collect()
            tracemalloc.start()
            try:
                self.compile_gradient(spec.program_for("S"), wrt=[spec.wrt], optimize="O3",
                                      cache=self.CompilationCache())
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        return stats.geomean(peaks)

    # -- traced pass ------------------------------------------------------
    def _traced_sweep(self, first_op: int) -> tuple[dict, dict, list[int]]:
        """One sweep taken apart at the public calls of each layer.

        Returns (summed layer times and counts, exact counts, op ns).
        """
        from repro.pipeline import PassContext, build_pipeline, run_pipeline, to_sdfg
        from repro.pipeline.manager import ir_size

        recorder = self.ctx.recorder
        sums = dict.fromkeys(
            ("frontend.parse_ms", "ir.content_hash_us", "ir.free_symbols_us",
             "pipeline.build_pipeline_us", "pipeline.cold_total_ms",
             "pipeline.warm_compile_ms", *PASS_METRICS.values()), 0.0)
        exact = dict.fromkeys(
            ("frontend.sdfg_nodes", "passes.maps_fused", "passes.gvn_deduplicated",
             "passes.buffers_shared", "passes.transient_bytes_after",
             "autodiff.backward_nodes", "codegen.source_lines"), 0)
        op_ns = []
        hits = lookups = 0
        for config, (name, level) in enumerate(self.configs):
            spec = self.specs[name]
            cache = self.CompilationCache()
            with recorder.span("op.compile_cold", op=first_op + config) as op:
                with recorder.span("frontend.parse") as parse:
                    sdfg = to_sdfg(spec.program_for("S"))
                with recorder.span("pipeline.build_pipeline") as build:
                    manager = build_pipeline(level, gradient=True, wrt=[spec.wrt])
                ctx = PassContext(options={"wrt": [spec.wrt], "output": None,
                                           "return_value": False})
                with recorder.span("pipeline.run_pipeline") as run:
                    outcome = run_pipeline(sdfg, manager, ctx, cache=cache)
            with recorder.span("pipeline.cache_hit", op=first_op + config) as warm:
                again = self.compile_gradient(spec.program_for("S"), wrt=[spec.wrt],
                                              optimize=level, cache=cache)
            with recorder.span("ir.content_hash", op=first_op + config) as hashing:
                sdfg.content_hash()
            with recorder.span("ir.free_symbols", op=first_op + config) as symbols:
                outcome.compiled.sdfg.free_symbols()
            self.check(again.cache_hit and _digest(outcome) == self.digest[name, level])
            op_ns.append(op.duration_ns)
            hits += cache.stats.hits
            lookups += cache.stats.lookups
            sums["frontend.parse_ms"] += parse.duration_ns / 1e6
            sums["pipeline.build_pipeline_us"] += build.duration_ns / 1e3
            sums["pipeline.cold_total_ms"] += run.duration_ns / 1e6
            sums["pipeline.warm_compile_ms"] += warm.duration_ns / 1e6
            sums["ir.content_hash_us"] += hashing.duration_ns / 1e3
            sums["ir.free_symbols_us"] += symbols.duration_ns / 1e3
            exact["frontend.sdfg_nodes"] += ir_size(sdfg)
            for record in outcome.report.records:
                metric = PASS_METRICS.get(record.name)
                if metric:
                    sums[metric] += record.seconds * 1e3
                info = record.info
                if record.name == "map-fusion":
                    exact["passes.maps_fused"] += info.get("maps_fused", 0)
                elif record.name == "global-value-numbering":
                    exact["passes.gvn_deduplicated"] += info.get("nodes_deduplicated", 0)
                elif record.name == "memory-planning":
                    exact["passes.buffers_shared"] += info.get("buffers_shared", 0)
                    exact["passes.transient_bytes_after"] += int(
                        info.get("transient_bytes_after", 0))
                elif record.name == "autodiff":
                    exact["autodiff.backward_nodes"] += record.nodes_after
                elif record.name == "codegen":
                    exact["codegen.source_lines"] += info.get("source_lines", 0)
        sums["pipeline.cache_hit_share"] = hits / lookups
        return sums, exact, op_ns

    def layers(self) -> dict:
        """Times are the median over sweeps of the sum over the 66
        configurations; counts are the sum of one sweep."""
        sweeps = self.ctx.count(SWEEPS // 3, 2)
        untraced_ns = []
        for _ in range(sweeps):
            untraced_ns.append(sum(self._cold_then_hit(config)[0]
                                   for config in range(len(self.configs))))
        all_sums, all_exact, traced_ns = [], [], []
        for sweep in range(sweeps):
            sums, exact, op_ns = self._traced_sweep(sweep * len(self.configs))
            all_sums.append(sums)
            all_exact.append(exact)
            traced_ns.append(sum(op_ns))
        out = {name: stats.median([sums[name] for sums in all_sums]) for name in all_sums[0]}
        out.update(all_exact[0])
        out["pipeline.deterministic"] = int(all(exact == all_exact[0] for exact in all_exact))
        out["bench.trace_overhead_share"] = (
            stats.median(traced_ns) / stats.median(untraced_ns) - 1.0)
        return out


def _digest(outcome) -> str:
    return hashlib.sha256(outcome.compiled.source.encode()).hexdigest()
