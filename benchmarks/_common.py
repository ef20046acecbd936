"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure of the paper's
evaluation.  Kernels are run at the ``"paper"`` size preset (scaled-down
versions of NPBench's paper sizes so the whole suite finishes in minutes -
see docs/benchmarks.md); the comparison tables report measured DaCe-AD and
jaxlike gradient times, the resulting speedup and the paper's reported number
where available.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.harness import (
    environment_metadata,
    format_table,
    geometric_mean,
    paper_expectation,
    run_kernel_comparison,
)
from repro.harness.runners import dace_gradient_runner, jaxlike_gradient_runner
from repro.npbench import get_kernel

#: Module-level result store so a final "report" entry can print the table
#: after all individual benchmark entries of a figure have run.
RESULTS: dict[str, dict[str, "object"]] = {}


def record(figure: str, kernel: str, engine: str, seconds: float) -> None:
    RESULTS.setdefault(figure, {}).setdefault(kernel, {})[engine] = seconds


def comparison_rows(figure: str) -> list[list]:
    rows = []
    for kernel, engines in sorted(RESULTS.get(figure, {}).items()):
        dace = engines.get("dace")
        jax = engines.get("jaxlike")
        speedup = (jax / dace) if (dace and jax) else None
        rows.append([kernel, _ms(dace), _ms(jax), speedup, paper_expectation(kernel)])
    return rows


def print_comparison(figure: str, title: str) -> None:
    rows = comparison_rows(figure)
    speedups = [row[3] for row in rows if row[3] is not None]
    table = format_table(
        ["kernel", "DaCe AD [ms]", "jaxlike [ms]", "speedup", "paper speedup"],
        rows,
        title=title,
    )
    print()
    print(table)
    if speedups:
        print(f"measured: average speedup {np.mean(speedups):.2f}x, "
              f"geo-mean {geometric_mean(speedups):.2f}x, "
              f"DaCe AD faster on {sum(1 for s in speedups if s > 1)}/{len(speedups)} kernels")


def gradient_runners(kernel_name: str, preset: str = "paper"):
    """(dace_runner, jaxlike_runner, data) for one kernel at one preset."""
    spec = get_kernel(kernel_name)
    data = spec.data(preset)
    dace = dace_gradient_runner(spec, preset)
    jax = jaxlike_gradient_runner(spec)
    return spec, dace, jax, data


def _ms(seconds) -> float | None:
    return seconds * 1e3 if seconds is not None else None


def write_json(name: str, payload: dict) -> str:
    """Persist one benchmark's results as JSON under ``benchmarks/results/``
    (and return the path), so runs can be compared across commits."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_results(benchmark: str, payload: dict) -> str:
    """The one result-writing helper every ``bench_*`` script should use.

    Stamps the payload with the benchmark name, the environment metadata
    (:func:`repro.harness.environment_metadata`: interpreter, platform,
    NumPy, C toolchain) and a snapshot of the process-wide observability metrics
    (cache hit/miss counters, queue latency histograms — see
    ``docs/observability.md``), and writes it to
    ``benchmarks/results/<benchmark>.json`` via :func:`write_json`, so all
    benchmark output lands in one place with one envelope shape.
    """
    from repro.obs import metrics_snapshot

    body = {
        "benchmark": benchmark,
        "environment": environment_metadata(),
        "metrics": metrics_snapshot(),
    }
    body.update(payload)
    return write_json(f"{benchmark}.json", body)
