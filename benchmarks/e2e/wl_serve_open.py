"""Workload ``serve_open``: an open loop of per-sample requests.

One generator thread submits per-sample ``bias_act`` (16x16, a pool of 64
samples) to ``BatchQueue(vmap(bias_act).compile("O1"), max_batch=16,
max_wait_ms=1.0)`` at a fixed 2000 req/s.  op time runs from the instant a
request was *due* to its future resolving, so a stall is charged to every
request it delays.  The latency limit is p99 <= 20 ms.  Time is queue wait +
stack + dispatch + scatter in ``serve``/``batching``; the compiled kernel
costs tens of microseconds per sample.

The generator sleeps until each due time and never busy-waits: a spinning
generator holds the GIL and starves the worker (p50 jumps from ~1.3 ms to
5-7 ms).  How late it ran is reported.
"""

from __future__ import annotations

import time
import tracemalloc
from time import perf_counter_ns

import numpy as np

import harness
import stats

RATE = 2000
LIMIT_MS = 20.0        #: on p99: 1 % of requests may take longer
SAMPLE_SIZE = {"N": 16, "M": 16}
POOL = 64
AXES = {"x": 0, "r": 0, "bias": None}
QUEUE = {"max_batch": 16, "max_wait_ms": 1.0}
LADDER = (500, 4000, 8000)
RESULT_TIMEOUT_S = 30


class Phase:
    """What one open-loop phase observed."""

    def __init__(self, count: int) -> None:
        self.count = count
        self.due = np.zeros(count, dtype=np.int64)
        self.done = np.zeros(count, dtype=np.int64)
        self.late = np.zeros(count, dtype=np.int64)     #: generator lateness
        self.submit = np.zeros(count, dtype=np.int64)   #: time inside submit()
        self.wrong = 0      #: raised, refused, timed out or wrong value
        self.stats = None   #: the queue's BatchStats

    @property
    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) / 1e6

    def keeps_up(self) -> bool:
        """No growing backlog: the last tenth is not served later than 4x
        the median of the whole phase, and the limit is met."""
        latency = self.latency_ms
        tenth = max(1, self.count // 10)
        return (self.wrong == 0
                and stats.percentile(latency, 99) <= LIMIT_MS
                and float(np.median(latency[-tenth:])) <= 4 * float(np.median(latency)))


class Workload(harness.Workload):

    def setup(self) -> None:
        import repro
        from repro.npbench import get_kernel
        from repro.pipeline import CompilationCache
        from repro.serve import BatchQueue

        self.repro = repro
        self.BatchQueue = BatchQueue
        self.cache = CompilationCache()
        spec = get_kernel("bias_act")
        self.program = spec.program_for()
        self.samples = [spec.initialize(**SAMPLE_SIZE, seed=self.ctx.seed * 1000 + index)
                        for index in range(POOL)]
        self.bias = self.samples[0]["bias"]
        start = time.perf_counter()
        self.batched = repro.vmap(self.program, in_axes=AXES).compile(
            optimize="O1", cache=self.cache)
        self.vmap_compile_ms = (time.perf_counter() - start) * 1e3
        # Expected results come from per-sample compiled calls, checked
        # against plain NumPy.
        per_sample = repro.compile(self.program, "O1", cache=self.cache)
        self.expected = []
        for sample in self.samples:
            value = per_sample(x=sample["x"].copy(), r=sample["r"].copy(), bias=self.bias.copy())
            self.check(harness.matches(
                value, spec.run_numpy({"x": sample["x"], "r": sample["r"], "bias": self.bias})))
            self.expected.append(value)
        warmup = self.open_loop(RATE, max(POOL, self.ctx.count(400)))
        self.check(warmup.wrong == 0)

    # -- the open loop ----------------------------------------------------
    def open_loop(self, rate: float, count: int, batched_fn=None) -> Phase:
        """Submit ``count`` requests, request ``i`` due at ``i / rate``
        seconds.  ``rate=0`` submits everything at once (a burst).

        The done-callback only stores the time and the value; values are
        verified after the phase.  No future is kept: 20000 retained futures
        made the interpreter's full collections take 30-50 ms, every 2-3 s.
        """
        phase = Phase(count)
        due, done, late, submit_ns = phase.due, phase.done, phase.late, phase.submit
        values = np.full(count, np.nan)
        samples = self.samples
        clock = perf_counter_ns
        period = 1e9 / rate if rate else 0.0

        def resolved(future, index):
            if future.exception() is None:
                values[index] = future.result()
            done[index] = clock()

        queue = self.BatchQueue(batched_fn or self.batched, static_kwargs={"bias": self.bias},
                                **QUEUE)
        try:
            origin = clock() + 5_000_000
            for index in range(count):
                due[index] = origin + int(index * period)
                now = clock()
                if now < due[index]:
                    time.sleep((due[index] - now) / 1e9)
                    now = clock()
                late[index] = max(0, now - due[index])
                sample = samples[index % POOL]
                future = queue.submit(x=sample["x"], r=sample["r"])
                submit_ns[index] = clock() - now
                future.add_done_callback(lambda future, index=index: resolved(future, index))
            give_up = time.monotonic() + RESULT_TIMEOUT_S
            while not done.all() and time.monotonic() < give_up:
                time.sleep(0.001)
        finally:
            queue.close()
        # Raised, refused and never-resolved requests left NaN behind.
        expected = np.resize(np.asarray(self.expected, dtype=float), count)
        phase.wrong = count - int(np.sum(np.isclose(values, expected, **harness.tolerances(float))))
        done[done == 0] = clock()
        phase.stats = queue.stats
        return phase

    def measure(self) -> harness.Samples:
        count = int(RATE * self.ctx.seconds)
        phase = self.open_loop(RATE, count)
        latency = phase.latency_ms
        over = int(np.sum(latency > LIMIT_MS))
        # The limit is judged on the tail as the benchmark reports it (the
        # median over blocks, which a stall of the machine does not move).
        # When that misses the limit, every request beyond it, less the 1 %
        # a p99 limit allows, counts as failed.
        tail_ms = stats.median([stats.percentile(latency[block], 99)
                                for block in stats.split(count, 10)])
        missed = max(0, over - count // 100) if tail_ms > LIMIT_MS else 0
        samples = harness.Samples(["request"], speed_blocks=10, tail_blocks=10)
        samples.config = [0] * count
        samples.ns = [int(value) for value in phase.done - phase.due]
        samples.failed = min(count, phase.wrong + missed)
        # Open loop: the rate is the offered one unless a backlog grows.
        samples.ops_per_s = count / ((phase.done.max() - phase.due[0]) / 1e9)
        samples.notes.update(
            rate=RATE, latency_limit_ms=LIMIT_MS, over_limit=over, wrong_or_raised=phase.wrong,
            p99_ms=stats.percentile(latency, 99),
            generator_late_ms_p50=stats.percentile(phase.late, 50) / 1e6,
            generator_late_ms_p99=stats.percentile(phase.late, 99) / 1e6,
            mean_batch=phase.stats.mean_batch,
        )
        return samples

    def peak_mem_mib(self) -> float:
        """A staged burst of 256 requests, released at once: batch formation
        is deterministic, so the peak does not depend on thread timing."""
        tracemalloc.start()
        try:
            queue = self.BatchQueue(self.batched, static_kwargs={"bias": self.bias}, **QUEUE)
            queue.hold()
            futures = [queue.submit(x=self.samples[index % POOL]["x"],
                                    r=self.samples[index % POOL]["r"])
                       for index in range(256)]
            queue.release()
            for future in futures:
                future.result(timeout=RESULT_TIMEOUT_S)
            queue.close()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- traced pass ------------------------------------------------------
    def layers(self) -> dict:
        from repro import obs
        from repro.pipeline import CompilationCache

        recorder = self.ctx.recorder
        out = {"batching.vmap_compile_ms": self.vmap_compile_ms}
        with recorder.span("batching.vmap_compile_artifact"):
            self.repro.vmap(self.program, in_axes=AXES).compile(
                optimize="O1", cache=CompilationCache())

        # batching: one full batch, called directly.
        rows = self.samples[:QUEUE["max_batch"]]
        stacked = {name: np.stack([row[name] for row in rows]) for name in ("x", "r")}
        out["batching.stack_us"] = harness.median_us(
            lambda: [np.stack([np.asarray(row[name]) for row in rows]) for name in ("x", "r")],
            200)
        with recorder.span("batching.batched_call"):
            out["batching.batched_call_ms"] = harness.median_us(
                lambda: self.batched(**stacked, bias=self.bias), 200) / 1e3
        out["batching.per_sample_us"] = out["batching.batched_call_ms"] * 1e3 / len(rows)

        # serve: the measured traffic again, with the kernel timed by a
        # wrapper passed as batched_fn and one span per request and dispatch.
        count = int(RATE * self.ctx.seconds * 0.4)
        untraced = self.open_loop(RATE, count)
        kernel_ns = []

        def timed_kernel(**stacked):
            start = perf_counter_ns()
            result = self.batched(**stacked)
            end = perf_counter_ns()
            kernel_ns.append(end - start)
            recorder.add("serve.kernel", start, end, op=-1)
            return result

        traced = self.open_loop(RATE, count, batched_fn=timed_kernel)
        for index in range(count):
            recorder.add("op.serve_open", int(traced.due[index]), int(traced.done[index]),
                         op=index)
        queue_stats = traced.stats
        kernel_ms = stats.median(kernel_ns) / 1e6
        out.update({
            "serve.submit_us": float(np.median(traced.submit)) / 1e3,
            "serve.wait_ms_p50": queue_stats.wait_p50 * 1e3,
            "serve.wait_ms_p99": queue_stats.wait_p99 * 1e3,
            "serve.dispatch_ms_p50": queue_stats.dispatch_p50 * 1e3,
            "serve.dispatch_ms_p99": queue_stats.dispatch_p99 * 1e3,
            "serve.kernel_ms_p50": kernel_ms,
            "serve.mean_batch": queue_stats.mean_batch,
            "serve.generator_late_ms_p99": stats.percentile(traced.late, 99) / 1e6,
            "serve.retries": queue_stats.retries,
            "serve.rejected": queue_stats.rejected,
            "serve.failed": queue_stats.failed,
        })
        out["serve.overhead_us_per_req"] = out["serve.submit_us"] + (
            (out["serve.dispatch_ms_p50"] - kernel_ms) * 1e3 / queue_stats.mean_batch)
        self.check(untraced.wrong == 0 and traced.wrong == 0)
        out["bench.trace_overhead_share"] = (
            float(np.median(traced.latency_ms)) / float(np.median(untraced.latency_ms)) - 1.0)

        # Latency at a few fixed rates, and the highest that keeps up.
        best = RATE if untraced.keeps_up() else 0
        for rate in LADDER:
            phase = self.open_loop(rate, int(rate * self.ctx.seconds * 0.3))
            self.check(phase.wrong == 0)
            out[f"serve.p99_ms_at_{rate}"] = stats.percentile(phase.latency_ms, 99)
            if phase.keeps_up():
                best = max(best, rate)
        out["serve.max_rate_ok"] = best
        burst = self.open_loop(0, self.ctx.count(20000, 500))
        self.check(burst.wrong == 0)
        out["serve.burst_rps"] = burst.count / ((burst.done.max() - burst.due[0]) / 1e9)

        # repro.obs switched on, against the same traffic with it off.
        obs.enable()
        try:
            enabled = self.open_loop(RATE, count // 2)
        finally:
            obs.disable()
        self.check(enabled.wrong == 0)
        out["obs.enabled_overhead_share"] = (
            float(np.median(enabled.latency_ms)) / float(np.median(untraced.latency_ms)) - 1.0)
        return out
