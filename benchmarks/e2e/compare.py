"""Compare two result files of ``run.py`` (``--repeat K`` puts K runs of each
workload into one file)::

    python3 benchmarks/e2e/compare.py out/A.json out/B.json

One row per (workload, end-to-end metric): both medians, how much worse B is
than A as a share of A, the bound, and a verdict:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  the run-to-run spread of either side (interquartile
  distance over median) exceeds the bound, so the runs cannot tell.

Exact counts of the traced runs must be identical.  Exit code 1 if any row
is ``worse`` or ``unresolved`` or any exact count differs.  For a parent
against a change, make at least ten alternating pairs of runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402
from stats import spread  # noqa: E402


def values_by_metric(document: dict, trace: int) -> dict:
    """(workload, metric) -> the values of every run in the file."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(metric["value"])
    return table


def compare(first: dict, second: dict) -> tuple[list[dict], list[str]]:
    """Rows for the end-to-end metrics and the exact counts that differ."""
    before, after = values_by_metric(first, 0), values_by_metric(second, 0)
    rows = []
    for workload in spec.WORKLOADS:
        for name, (unit, better, bound) in spec.END_TO_END.items():
            a, b = before.get((workload, name)), after.get((workload, name))
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if better == "higher":
                worse = -worse
            widest = max(spread(a), spread(b))
            # Set-up time has the largest bound because its spread is not
            # judged; only its medians are compared.
            if name != "setup_s" and widest > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse > bound else "ok"
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "a": median_a, "b": median_b, "worse_by": worse, "bound": bound,
                         "spread": widest, "runs": (len(a), len(b)), "verdict": verdict})
    exact_before, exact_after = values_by_metric(first, 1), values_by_metric(second, 1)
    differing = [
        f"{workload} {name}: {exact_before[workload, name]} vs {exact_after[workload, name]}"
        for (workload, name) in exact_before
        if name in spec.EXACT and (workload, name) in exact_after
        and set(exact_before[workload, name]) != set(exact_after[workload, name])
    ]
    return rows, differing


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as handle:
        first = json.load(handle)
    with open(sys.argv[2]) as handle:
        second = json.load(handle)
    rows, differing = compare(first, second)
    print(f"{'workload':<13} {'metric':<13} {'A':>12} {'B':>12} {'unit':<5} "
          f"{'B worse by':>10} {'bound':>6} {'spread':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<13} {row['a']:>12.5g} {row['b']:>12.5g} "
              f"{row['unit']:<5} {row['worse_by'] * 100:>9.2f}% {row['bound'] * 100:>5.0f}% "
              f"{row['spread'] * 100:>6.2f}%  {row['verdict']}")
    for line in differing:
        print(f"exact count differs: {line}")
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} rows, {len(bad)} not ok, {len(differing)} exact counts differ")
    return 1 if bad or differing else 0


if __name__ == "__main__":
    sys.exit(main())
