"""What the five workloads share: the run context, the sample store that
turns op times into the end-to-end metrics, result checks and the
``tracemalloc`` pass."""

from __future__ import annotations

import gc
import os
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np

import stats
from repro.harness.runners import copy_data  # noqa: F401 - programs mutate their arguments
from spans import Recorder


@dataclass
class Context:
    """One worker process's settings (everything derives from the CLI)."""

    seed: int
    seconds: float
    quick: bool
    out_dir: str
    recorder: Optional[Recorder] = None  #: set in the traced pass only

    def count(self, base: float, least: int = 1) -> int:
        """Iteration counts are fixed for a 10 s run and scale with --seconds."""
        return max(least, round(base * self.seconds / 10.0))

    def fresh_native_dir(self) -> None:
        """Point the native artifact cache at a new empty directory, so the
        next native compile pays ``cc``."""
        os.environ["REPRO_NATIVE_CACHE_DIR"] = tempfile.mkdtemp(
            prefix="native-", dir=self.out_dir)


@dataclass
class Samples:
    """Op times in the order they were measured.

    The sandbox alternates between two speed levels about 25 % apart in
    bursts of a few seconds (a pure-Python loop takes 3.6 or 4.6 ms), and a
    run holds them in a ratio that changes from run to run: the median of a
    whole run of ``compile_cold`` spread 14 % over ten runs.  So the run is
    cut into ``speed_blocks`` contiguous blocks of equal op counts, each
    block gets a speed factor — the median of its op times, each divided by
    its configuration's median over the whole run — and ``op_ms_p50`` and
    ``ops_per_s`` are reported at the factor of the second-slowest block:
    the prevailing level, with one disturbed block tolerated.  That spread
    2.7 %.
    """

    configs: list[str]
    speed_blocks: int
    tail_blocks: int
    config: list[int] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)
    failed: int = 0
    ops_per_s: Optional[float] = None  #: set by open-loop workloads only
    notes: dict = field(default_factory=dict)

    def add(self, config: int, ns: int, ok: bool) -> None:
        self.config.append(config)
        self.ns.append(ns)
        if not ok:
            self.failed += 1

    def end_to_end(self) -> tuple[dict, dict]:
        """``op_ms_p50``, ``op_ms_tail``, ``ops_per_s`` and their details."""
        per_config: dict[int, list[int]] = {}
        for index, value in zip(self.config, self.ns):
            per_config.setdefault(index, []).append(value)
        medians = {index: stats.median(values) for index, values in per_config.items()}
        whole_run_ms = stats.geomean([medians[index] / 1e6 for index in sorted(medians)])
        relative = [value / medians[index] for index, value in zip(self.config, self.ns)]

        blocks = stats.split(len(relative), self.speed_blocks)
        factors = [stats.median(relative[block]) for block in blocks]
        prevailing = stats.second_highest(factors)
        p50_ms = whole_run_ms * prevailing
        # One closed-loop client that spends on every op its configuration's
        # median time at the prevailing level; time the benchmark itself
        # spends making inputs and checking results is not the program's.
        busy_s = sum(medians[index] for index in self.config) / 1e9 * prevailing
        ops_per_s = self.ops_per_s or len(self.ns) / busy_s

        # The tail, relative to the speed of the block each op ran in: the
        # highest percentile a tail block's size supports, in the quietest
        # tail block.  The machine only ever lengthens a tail, and what the
        # program itself does every so many ops shows in every block.
        levelled = list(relative)
        for block, factor in zip(blocks, factors):
            levelled[block] = [value / factor for value in relative[block]]
        tail_blocks = stats.split(len(levelled), self.tail_blocks)
        pct = stats.tail_percentile(tail_blocks[0].stop - tail_blocks[0].start)
        tail = min(stats.percentile(levelled[block], pct) for block in tail_blocks)

        attempted = len(self.ns)
        metrics = {
            "op_ms_p50": p50_ms,
            "op_ms_tail": p50_ms * tail,
            "ops_per_s": ops_per_s * (attempted - self.failed) / attempted,
        }
        details = {
            "attempted": attempted,
            "failed": self.failed,
            "tail_percentile": pct,
            "tail_blocks": self.tail_blocks,
            "tail_block_samples": tail_blocks[0].stop - tail_blocks[0].start,
            "tail_over_p50": tail,
            "whole_run_p50_ms": whole_run_ms,
            "speed_factors": factors,
            "config_median_ms": {
                self.configs[index]: medians[index] / 1e6 for index in sorted(medians)
            },
            **self.notes,
        }
        return metrics, details


class Workload:
    """What ``worker.py`` drives: ``setup()``, then ``measure()`` and
    ``peak_mem_mib()`` in an untraced run or ``layers()`` in a traced one.
    Checks made outside the measured ops are counted here."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.checks = 0
        self.check_failures = 0

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.check_failures += not ok


def tolerances(dtype) -> dict:
    """Dtype-aware comparison tolerances (the values the tier-1 kernel tests
    use).  The absolute term matters for gradients that are pure round-off,
    such as the gradient of the sum of a softmax."""
    if np.dtype(dtype) == np.float32:
        return {"rtol": 2e-2, "atol": 2e-3}
    return {"rtol": 1e-4, "atol": 1e-6}


def matches(result, reference, dtype=np.float64) -> bool:
    """True when ``result`` equals ``reference`` within the dtype's tolerance."""
    result = np.asarray(result)
    reference = np.asarray(reference)
    if result.shape != reference.shape:
        return False
    if np.array_equal(result, reference):
        return True
    return bool(np.allclose(result, reference, **tolerances(dtype)))


def op_peak_bytes(make_args: Callable[[], tuple], call: Callable) -> int:
    """Peak bytes ``tracemalloc`` sees allocated during one op: its outputs
    and temporaries, not its inputs (made before tracing starts).  NumPy
    buffers are tracked; C ``malloc`` inside native segments is not."""
    args = make_args()
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


def median_call_ms(call: Callable[[dict], object], data: dict, repeats: int) -> float:
    """Median time of ``call(fresh copy of data)`` in milliseconds."""
    times = []
    for _ in range(repeats):
        args = copy_data(data)
        start = perf_counter_ns()
        call(args)
        times.append(perf_counter_ns() - start)
    return stats.median(times) / 1e6


def median_us(call: Callable[[], object], repeats: int) -> float:
    """Median time of ``call`` in microseconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        call()
        times.append(perf_counter_ns() - start)
    return stats.median(times) / 1e3


def gradient_of(raw: dict, gradient):
    """The gradient array in a compiled call's raw result dict."""
    return raw[gradient.result.gradient_names[gradient.wrt[0]]]


def traced_gradient_call(recorder: Recorder, op: int, name: str, gradient, args, kwargs):
    """One gradient op taken apart at the codegen layer's public calls:
    ``bind_arguments`` then ``call_with_bindings``; what is left of the op
    span is result selection.  Returns the gradient."""
    from repro.codegen.runtime import bind_arguments

    compiled = gradient.compiled
    with recorder.span(name, op=op):
        with recorder.span("codegen.bind"):
            bindings = bind_arguments(compiled.sdfg, args, kwargs)
        with recorder.span("codegen.kernel"):
            raw = compiled.call_with_bindings(bindings)
        return gradient_of(raw, gradient)


def spread_schedule(counts: list[int]) -> list[int]:
    """Interleave configurations: configuration ``k`` appears ``counts[k]``
    times, evenly spread over ``max(counts)`` rounds, so a slow phase of the
    machine hits all configurations alike."""
    rounds = max(counts)
    order = []
    for index in range(rounds):
        for config, count in enumerate(counts):
            if (index * count) // rounds != ((index + 1) * count) // rounds:
                order.append(config)
    return order
