"""Micro-benchmark: the ``optimize="O2"`` tier (map fusion + value numbering) vs ``O1``.

For a set of fusion-relevant kernels (the ``bias_act`` deep-learning epilogue,
``softmax``, and the ``vadv`` weather sweep) this compiles the forward and
gradient programs at ``O1`` and ``O2`` and measures execution time at the
``"paper"`` preset.  ``O2`` inlines element-wise producer maps into their
consumer, so chains like ``pre = x + bias; act = maximum(pre, 0); out = act +
r`` execute as one fused NumPy statement instead of materialising a full-size
intermediate array per assignment.

Also verified here (and asserted when run under pytest):

* ``O2`` forward values match ``O1`` exactly;
* ``O2`` gradients match the unoptimised ``O0`` gradients to 1e-9 relative;
* at least one kernel shows a >= 1.3x forward-or-gradient speedup;
* the fused pipeline is visible in ``PipelineReport.pretty()`` (a
  ``map-fusion`` row with ``maps_fused > 0``).

Results go to ``benchmarks/results/o2_fusion.json`` via the shared
``_common.write_results`` helper.

Run with:  python benchmarks/bench_o2_fusion.py
      or:  python -m pytest benchmarks/bench_o2_fusion.py -q -s
"""

from __future__ import annotations

import time

import numpy as np

from _common import write_results

from repro.harness import copy_data as _copy
from repro.harness import format_table
from repro.npbench import get_kernel
from repro.pipeline import compile_forward, compile_gradient

KERNELS = ["bias_act", "softmax", "vadv"]
REPEATS = 7
SPEEDUP_TARGET = 1.3
GRAD_RTOL = 1e-9


def _time(compiled, data, repeats=REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        args = _copy(data)
        start = time.perf_counter()
        compiled(**args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_kernel(name: str, preset: str = "paper") -> dict:
    spec = get_kernel(name)
    data = spec.data(preset)
    program = spec.program_for(preset)

    outcomes = {
        level: compile_forward(program, level, cache=False)
        for level in ("O1", "O2")
    }
    grads = {
        level: compile_gradient(program, wrt=spec.wrt, optimize=level, cache=False)
        for level in ("O0", "O1", "O2")
    }

    # Correctness first: O2 must not change values or gradients.
    fwd1 = outcomes["O1"].compiled(**_copy(data))
    fwd2 = outcomes["O2"].compiled(**_copy(data))
    np.testing.assert_allclose(fwd2, fwd1, rtol=1e-12)
    g0 = np.asarray(grads["O0"].compiled(**_copy(data)))
    g2 = np.asarray(grads["O2"].compiled(**_copy(data)))
    np.testing.assert_allclose(g2, g0, rtol=GRAD_RTOL)

    fusion_record = outcomes["O2"].report.record_for("map-fusion")
    maps_fused = fusion_record.info.get("maps_fused", 0) if fusion_record else 0

    forward_times = {lvl: _time(out.compiled, data) for lvl, out in outcomes.items()}
    gradient_times = {lvl: _time(grads[lvl].compiled, data) for lvl in ("O1", "O2")}
    return {
        "kernel": name,
        "preset": preset,
        "maps_fused": maps_fused,
        "forward_seconds": forward_times,
        "gradient_seconds": gradient_times,
        "forward_speedup": forward_times["O1"] / forward_times["O2"],
        "gradient_speedup": gradient_times["O1"] / gradient_times["O2"],
        "per_pass_seconds_o2": {
            record.name: record.seconds
            for record in outcomes["O2"].report.records
        },
        "o2_report": outcomes["O2"].report.pretty(),
    }


def run_fusion_benchmark(kernels=KERNELS) -> dict:
    rows = []
    results = []
    for name in kernels:
        result = bench_kernel(name)
        results.append(result)
        rows.append([
            name,
            result["maps_fused"],
            result["forward_seconds"]["O1"] * 1e3,
            result["forward_seconds"]["O2"] * 1e3,
            result["forward_speedup"],
            result["gradient_seconds"]["O1"] * 1e3,
            result["gradient_seconds"]["O2"] * 1e3,
            result["gradient_speedup"],
        ])

    best = max(max(r["forward_speedup"], r["gradient_speedup"]) for r in results)
    payload = {
        "repeats": REPEATS,
        "speedup_target": SPEEDUP_TARGET,
        "best_speedup": best,
        "kernels": results,
    }
    path = write_results("o2_fusion", payload)

    print()
    print(format_table(
        ["kernel", "fused", "fwd O1 [ms]", "fwd O2 [ms]", "fwd speedup",
         "grad O1 [ms]", "grad O2 [ms]", "grad speedup"],
        rows,
        title=f"O2 map fusion vs O1 (paper preset): best speedup {best:.2f}x",
    ))
    print()
    print("O2 pipeline of", results[0]["kernel"])
    print(results[0]["o2_report"])
    print(f"results written to {path}")
    return payload


def test_o2_fuses_and_is_at_least_1_3x_faster_on_one_kernel():
    payload = run_fusion_benchmark()
    assert any(k["maps_fused"] > 0 for k in payload["kernels"])
    assert payload["best_speedup"] >= SPEEDUP_TARGET
    # The fused pipeline is visible in the pretty-printed report.
    fused = [k for k in payload["kernels"] if k["maps_fused"] > 0]
    assert all("map-fusion" in k["o2_report"] for k in fused)


if __name__ == "__main__":
    run_fusion_benchmark()
