"""The benchmark's names: workloads, end-to-end metrics with their bounds,
per-layer metrics with the workload whose traced run measures each.

``BENCHMARK.json`` at the repo root is ``document()`` written out
(``python benchmarks/e2e/spec.py > BENCHMARK.json``); the smoke test checks
the two agree.
"""

from __future__ import annotations

import json

RUN_SECONDS = 10

WORKLOADS = {
    "grad_npbench": (
        "steady-state O3 gradient calls of 8 NPBench kernels at paper size on numpy and "
        "native backends: time is in generated kernels, argument binding is under 1%"
    ),
    "call_tiny": (
        "gradient calls on tiny inputs, numpy O1: the kernel does microseconds of work so "
        "bind_arguments and result unwrap dominate; kernel quality must not move it"
    ),
    "compile_cold": (
        "fresh parse + cold compile_gradient of all 33 kernels at O1 and O3, each followed "
        "by its cache hit: the compiler alone, no kernel execution"
    ),
    "serve_open": (
        "open loop at a fixed 2000 req/s of per-sample bias_act through BatchQueue: time is "
        "queue wait, stack, dispatch and scatter, the kernel is tens of microseconds"
    ),
    "ckpt_budget": (
        "Listing-1 gradient at N=1024 under ILP checkpointing with a 20 MiB limit: same "
        "layers as grad_npbench but trading time for memory, so either side shows"
    ),
}

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen; the time bounds are twice the
#: widest spread seen over ten runs on this sandbox (p50 9.2 %, tail 19 %),
#: capped at the contract's 0.25.  ``fail_share`` is 0 on a healthy commit
#: and so cannot carry a relative bound: it is the ``failed`` / ``attempted``
#: pair of every result line, and any failure makes the run ``correct: false``.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.20),
    "op_ms_tail": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.20),
    "peak_mem_mib": ("MiB", "lower", 0.02),
}

GRAD_KERNELS = ("atax", "gemm", "bias_act", "softmax", "jacobi2d", "hdiff",
                "seidel2d", "cholesky")
BACKENDS = ("numpy", "cython")


def _layer_metrics() -> dict:
    """name -> (unit, better, the workloads whose traced run measures it)."""
    table: dict[str, tuple[str, str, tuple[str, ...]]] = {}

    def add(owner, unit, better, *names):
        owners = (owner,) if isinstance(owner, str) else owner
        for name in names:
            table[name] = (unit, better, owners)

    add("compile_cold", "ms", "lower", "frontend.parse_ms", "passes.simplify_ms",
        "passes.gvn_ms", "passes.map_fusion_ms", "passes.memory_planning_ms",
        "pipeline.cold_total_ms", "pipeline.warm_compile_ms", "autodiff.backward_ms",
        "codegen.emit_ms")
    add("compile_cold", "us", "lower", "ir.content_hash_us", "ir.free_symbols_us",
        "pipeline.build_pipeline_us")
    add("compile_cold", "count", "lower", "frontend.sdfg_nodes", "autodiff.backward_nodes",
        "codegen.source_lines")
    add("compile_cold", "count", "higher", "passes.maps_fused", "passes.gvn_deduplicated",
        "passes.buffers_shared", "pipeline.deterministic")
    add("compile_cold", "bytes", "lower", "passes.transient_bytes_after")
    add("compile_cold", "ratio", "higher", "pipeline.cache_hit_share")

    add("grad_npbench", "ratio", "higher", "passes.o3_over_o1", "native.artifact_hit_share",
        "native.speedup_over_numpy", "baselines.speedup_vs_jaxlike")
    add("grad_npbench", "ratio", "lower", "autodiff.grad_over_forward")
    add("grad_npbench", "ms", "lower", "codegen.numpy_geomean_ms", "native.geomean_ms",
        "native.cc_ms", "baselines.jaxlike_grad_ms",
        *(f"kernel.{kernel}.{backend}_ms" for kernel in GRAD_KERNELS
          for backend in BACKENDS))
    add("grad_npbench", "us", "lower", "native.native_us", "native.driver_us")
    add("grad_npbench", "count", "higher", "native.segments")
    add("grad_npbench", "count", "lower", "native.declined")

    add("call_tiny", "us", "lower", "codegen.bind_us", "codegen.kernel_us",
        "codegen.unwrap_us", "codegen.forward_call_us", "codegen.numpy_forward_us",
        "native.tiny_call_us")
    add("call_tiny", "ratio", "lower", "codegen.bind_share")

    add("ckpt_budget", "ms", "lower", "checkpointing.ilp_solve_ms",
        "checkpointing.store_all_ms", "checkpointing.recompute_all_ms", "passes.o2_call_ms")
    add("ckpt_budget", "count", "lower", "checkpointing.ilp_variables",
        "checkpointing.recomputed")
    add("ckpt_budget", "count", "higher", "checkpointing.stored")
    add("ckpt_budget", "MiB", "lower", "checkpointing.modelled_peak_mib",
        "checkpointing.store_all_peak_mib", "checkpointing.recompute_all_peak_mib",
        "passes.o2_peak_mib")
    add("ckpt_budget", "ratio", "lower", "checkpointing.measured_over_modelled")

    add("serve_open", "ms", "lower", "batching.vmap_compile_ms", "batching.batched_call_ms",
        "serve.wait_ms_p50", "serve.wait_ms_p99", "serve.dispatch_ms_p50",
        "serve.dispatch_ms_p99", "serve.kernel_ms_p50", "serve.generator_late_ms_p99",
        "serve.p99_ms_at_500", "serve.p99_ms_at_4000", "serve.p99_ms_at_8000")
    add("serve_open", "us", "lower", "batching.per_sample_us", "batching.stack_us",
        "serve.submit_us", "serve.overhead_us_per_req")
    add("serve_open", "count", "higher", "serve.mean_batch")
    add("serve_open", "count", "lower", "serve.retries", "serve.rejected", "serve.failed")
    add("serve_open", "1/s", "higher", "serve.max_rate_ok", "serve.burst_rps")

    # Measured by more than one workload's traced run, each on its own ops.
    add(("call_tiny", "serve_open"), "ratio", "lower", "obs.enabled_overhead_share")
    add(tuple(WORKLOADS), "ratio", "lower", "bench.trace_overhead_share", "bench.fail_share")
    return table


PER_LAYER = _layer_metrics()

#: Counts that must repeat bit-for-bit between sweeps, runs and seeds.
EXACT = (
    "frontend.sdfg_nodes", "passes.maps_fused", "passes.gvn_deduplicated",
    "passes.buffers_shared", "passes.transient_bytes_after", "autodiff.backward_nodes",
    "codegen.source_lines", "pipeline.deterministic", "checkpointing.ilp_variables",
    "checkpointing.stored", "checkpointing.recomputed", "native.declined",
    "native.segments",
)


def document() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


if __name__ == "__main__":
    print(json.dumps(document(), indent=2))
