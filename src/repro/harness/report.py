"""Result aggregation and text/CSV reporting."""

from __future__ import annotations

import csv
import math
from typing import Iterable, Optional, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_summary(results) -> dict:
    """Average and geometric-mean speedup over a list of KernelRunResults,
    mirroring how the paper reports both numbers."""
    speedups = [r.speedup for r in results if r.speedup is not None]
    return {
        "count": len(speedups),
        "average": sum(speedups) / len(speedups) if speedups else float("nan"),
        "geomean": geometric_mean(speedups),
        "wins": sum(1 for s in speedups if s > 1.0),
    }


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Plain-text table (the ``bench_*.py`` scripts print these; their index
    is docs/benchmarks.md)."""
    rendered_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "-"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def format_pipeline_report(report) -> str:
    """Plain-text rendering of a :class:`repro.pipeline.PipelineReport`:
    one row per pass with wall time, IR size before/after and diagnostics,
    followed by the process-wide compilation-cache and native-artifact-cache
    counters (from the observability registry) when any lookups happened."""
    rows = []
    for record in report.records:
        notes = ", ".join(f"{k}={v}" for k, v in record.info.items())
        rows.append(
            [
                record.name,
                record.seconds * 1e3,
                record.nodes_before,
                record.nodes_after,
                f"{record.delta:+d}" if record.delta else "0",
                notes,
            ]
        )
    suffix = " (cache hit)" if getattr(report, "cache_hit", False) else ""
    backend = getattr(report, "backend", None)
    backend_part = f" [backend={backend}]" if backend else ""
    title = (
        f"pipeline {report.pipeline}{backend_part}: "
        f"{report.total_seconds * 1e3:.2f} ms total{suffix}"
    )
    table = format_table(
        ["pass", "time [ms]", "IR before", "IR after", "delta", "notes"],
        rows,
        title=title,
    )
    cache_lines = _cache_summary_lines()
    if cache_lines:
        table += "\n" + "\n".join(cache_lines)
    return table


def _counter_value(name: str) -> int:
    from repro.obs.metrics import METRICS

    metric = METRICS.get(name)
    return metric.snapshot() if metric is not None else 0


def _cache_summary_lines() -> list[str]:
    """Process-wide cache counters as report footer lines (empty when the
    caches saw no traffic this process)."""
    lines = []
    hits = _counter_value("cache.hits")
    misses = _counter_value("cache.misses")
    disk_hits = _counter_value("cache.disk_hits")
    lookups = hits + misses + disk_hits
    if lookups:
        served = hits + disk_hits
        lines.append(
            f"compilation cache (process): {hits} hits, {misses} misses, "
            f"{disk_hits} disk hits — {served / lookups:.0%} served from cache"
        )
    artifact_hits = _counter_value("native.artifacts.hits")
    builds = _counter_value("native.artifacts.builds")
    restored = _counter_value("native.artifacts.restored")
    artifact_total = artifact_hits + builds + restored
    if artifact_total:
        lines.append(
            f"native .so artifacts (process): {artifact_hits} cache hits, "
            f"{builds} compiler builds, {restored} restored from pickles — "
            f"{artifact_hits / artifact_total:.0%} hit rate"
        )
    return lines


def write_csv(path: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Persist results so figures can be regenerated without rerunning."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
