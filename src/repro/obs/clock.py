"""The single monotonic clock every repro timing path reads.

One clock, three consumers:

* the tracing core (:mod:`repro.obs.trace`) stamps span begin/end with
  :func:`monotonic_ns`;
* the pass manager derives ``PassRecord.seconds`` from the same counter, so
  pipeline-report rows and trace spans agree to the nanosecond;
* the repeated-measurement helper (:func:`repeat_timed`, backing
  ``repro.harness.measure``) uses it for benchmark loops.

Serving deadlines, the ILP solve time and the fuzz campaign's elapsed
time read it too: ``tests/test_obs.py`` fails on any other clock read in
``repro``.

``time.perf_counter_ns`` is monotonic, never adjusted by NTP, and integer —
no float rounding at nanosecond resolution.  Timestamps are only meaningful
*within* one process; exporters (Chrome trace) treat them as offsets from an
arbitrary epoch, which is exactly what the format expects.
"""

from __future__ import annotations

import time
from typing import Any, Callable

#: The raw monotonic counter (nanoseconds since an arbitrary epoch).
monotonic_ns = time.perf_counter_ns


def monotonic() -> float:
    """Monotonic seconds as a float (for callers that prefer seconds)."""
    return time.perf_counter_ns() / 1e9


def seconds_between(start_ns: int, end_ns: int) -> float:
    """Convert a pair of :func:`monotonic_ns` stamps into float seconds."""
    return (end_ns - start_ns) / 1e9


def repeat_timed(
    fn: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
) -> tuple[list[float], Any]:
    """Run ``fn`` with ``warmup`` unmeasured calls then ``repeats`` measured
    calls; returns the individual wall times (seconds) and the last value.

    This is the one repeated-measurement loop in the code base:
    ``repro.harness.measure`` wraps it, so every benchmark number comes off
    the same clock as the tracer's spans.
    """
    value: Any = None
    for _ in range(max(0, warmup)):
        value = fn()
    times: list[float] = []
    for _ in range(max(1, repeats)):
        start = monotonic_ns()
        value = fn()
        times.append((monotonic_ns() - start) / 1e9)
    return times, value
