"""Run metadata for fuzz campaigns, in the benchmark results envelope.

Mirrors ``benchmarks/_common.write_results``: one JSON document per run
with the environment block (interpreter, platform, NumPy, C toolchain —
:func:`repro.harness.report.environment_metadata`), the generator seed, program and
configuration counts, outcome totals, and — crucially — a histogram of
every recorded skip reason plus full detail for every failure.  "Zero
unexplained divergences" is checkable from the report alone: ``counts.fail
== 0`` and every skip carries a reason string.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Iterable, Optional

from repro.fuzz.harness import CaseOutcome
from repro.harness.report import environment_metadata


def summarize(outcomes: Iterable[CaseOutcome]) -> dict:
    """Aggregate outcomes into counts, skip-reason histogram and failures."""
    outcomes = list(outcomes)
    counts = Counter(outcome.status for outcome in outcomes)
    skip_reasons = Counter(
        outcome.reason for outcome in outcomes if outcome.status == "skip"
    )
    failures = [outcome.to_dict() for outcome in outcomes
                if outcome.status == "fail"]
    return {
        "checks": len(outcomes),
        "counts": {status: counts.get(status, 0)
                   for status in ("ok", "skip", "fail")},
        "skip_reasons": dict(sorted(skip_reasons.items())),
        "failures": failures,
    }


def build_report(*, seed: int, program_count: int,
                 outcomes: Iterable[CaseOutcome], elapsed_seconds: float,
                 full_matrix: bool, extra: Optional[dict] = None) -> dict:
    report = {
        "benchmark": "fuzz_differential",
        "environment": environment_metadata(),
        "seed": seed,
        "program_count": program_count,
        "full_matrix": full_matrix,
        "elapsed_seconds": round(elapsed_seconds, 3),
    }
    report.update(summarize(outcomes))
    if extra:
        report.update(extra)
    return report


def write_report(path: str, report: dict) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


__all__ = ["build_report", "summarize", "write_report"]
