"""Order statistics shared by every workload: percentiles, the tail rule,
geometric means and the run-to-run spread the bounds are judged against."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401 - re-exported: stats.median
from typing import Sequence

import numpy as np

#: Candidate tail percentiles, highest first.  p75 is a fallback for
#: workloads whose op takes ~200 ms, so a run holds fewer than 100 samples.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    return float(np.percentile(values, pct))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(samples: int) -> float:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if samples * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return TAIL_PERCENTILES[-1]


def split(count: int, blocks: int) -> list[slice]:
    """``blocks`` contiguous slices of (nearly) equal length covering ``count``."""
    blocks = max(1, min(blocks, count))
    edges = [count * index // blocks for index in range(blocks + 1)]
    return [slice(low, high) for low, high in zip(edges, edges[1:])]


def second_highest(values: Sequence[float]) -> float:
    """The second-highest value (the highest of fewer than four)."""
    ordered = sorted(values)
    return ordered[-2] if len(ordered) >= 4 else ordered[-1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
