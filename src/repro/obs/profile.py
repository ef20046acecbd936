"""Opt-in runtime profiling of compiled kernels: ``repro.compile(..., profile=True)``.

:func:`profile_compiled` wraps a finished
:class:`~repro.codegen.CompiledSDFG` in a :class:`ProfiledCompiledSDFG`
whose every call is timed on the obs monotonic clock:

* the **total call** lands in the ``kernel.runtime.<sdfg>`` histogram (and,
  while tracing is enabled, as a ``kernel.execute`` span);
* under the native backend, every C-kernel segment is timed individually —
  the driver is re-``exec``-uted with timing trampolines around the ctypes
  calls (``CompiledSDFG.with_kernel_timers``) — giving per-segment
  ``kernel.segment.<sdfg>.<kernel>`` histograms plus the
  **native-vs-NumPy-driver split**: ``kernel.native.<sdfg>`` is the time
  spent inside C kernels and ``kernel.driver.<sdfg>`` the remainder spent
  in the NumPy driver (BLAS matmuls, softmax, glue).

The wrapper is created *outside* the compilation cache: the cache keeps the
unprofiled object, so ``profile=True`` never changes a cache key and a
profiled and an unprofiled handle to the same compilation coexist.  The
histograms live in the process-wide metrics registry **and** on the wrapper
(``.runtime_histogram``, ``.segment_histograms``) for direct inspection;
``.profile_snapshot()`` returns them as one JSON dict.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.obs.clock import monotonic_ns
from repro.obs.metrics import METRICS, Histogram, MetricsRegistry
from repro.obs.trace import TRACER, Tracer


class ProfiledCompiledSDFG:
    """A compiled callable whose executions feed runtime histograms.

    Delegates everything except ``__call__`` / ``call_with_bindings`` to the
    wrapped compiled object (``source``, ``sdfg``, ``result_names``,
    ``pipeline_report``, ... all behave as before), so it drops into every
    place a :class:`~repro.codegen.CompiledSDFG` fits — including
    :class:`~repro.autodiff.GradientFunction` and
    :class:`~repro.serve.BatchQueue`.
    """

    def __init__(
        self,
        inner,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inner = inner
        self._metrics = metrics if metrics is not None else METRICS
        self._tracer = tracer if tracer is not None else TRACER
        name = inner.sdfg.name
        self._name = name
        self.runtime_histogram: Histogram = self._metrics.histogram(
            f"kernel.runtime.{name}"
        )
        self.segment_histograms: dict[str, Histogram] = {}
        self._local = threading.local()
        timed = inner.with_kernel_timers(self._segment_sink)
        self._target = timed if timed is not None else inner
        self._has_segments = timed is not None
        if self._has_segments:
            self.native_histogram: Histogram = self._metrics.histogram(
                f"kernel.native.{name}"
            )
            self.driver_histogram: Histogram = self._metrics.histogram(
                f"kernel.driver.{name}"
            )

    # -- segment instrumentation ----------------------------------------
    def _segment_sink(self, kernel_name: str, start_ns: int, end_ns: int) -> None:
        """Called by the timing trampolines around each native C kernel."""
        seconds = (end_ns - start_ns) / 1e9
        histogram = self.segment_histograms.get(kernel_name)
        if histogram is None:
            histogram = self._metrics.histogram(
                f"kernel.segment.{self._name}.{kernel_name}"
            )
            self.segment_histograms[kernel_name] = histogram
        histogram.observe(seconds)
        accumulator = getattr(self._local, "native_seconds", None)
        if accumulator is not None:
            self._local.native_seconds = accumulator + seconds
        self._tracer.record(
            f"kernel.segment.{kernel_name}", start_ns, end_ns - start_ns,
            sdfg=self._name,
        )

    # -- execution -------------------------------------------------------
    def _timed(self, invoke):
        self._local.native_seconds = 0.0
        with self._tracer.span(
            "kernel.execute", sdfg=self._name, backend=self.inner.backend
        ):
            start_ns = monotonic_ns()
            result = invoke()
            seconds = (monotonic_ns() - start_ns) / 1e9
        self.runtime_histogram.observe(seconds)
        if self._has_segments:
            native = self._local.native_seconds
            self.native_histogram.observe(native)
            self.driver_histogram.observe(max(0.0, seconds - native))
        self._local.native_seconds = None
        return result

    def __call__(self, *args, **kwargs):
        return self._timed(lambda: self._target(*args, **kwargs))

    def call_with_bindings(self, bindings: dict) -> dict:
        return self._timed(lambda: self._target.call_with_bindings(bindings))

    # -- inspection ------------------------------------------------------
    def profile_snapshot(self) -> dict:
        """JSON dict of this callable's runtime histograms (total call,
        native/driver split and per-segment, where applicable)."""
        body = {"kernel": self._name, "backend": self.inner.backend,
                "runtime": self.runtime_histogram.snapshot()}
        if self._has_segments:
            body["native"] = self.native_histogram.snapshot()
            body["driver"] = self.driver_histogram.snapshot()
            body["segments"] = {
                name: histogram.snapshot()
                for name, histogram in sorted(self.segment_histograms.items())
            }
        return body

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"Profiled{self.inner!r}"


def profile_compiled(
    compiled,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
):
    """Wrap ``compiled`` for per-call runtime profiling (idempotent)."""
    if isinstance(compiled, ProfiledCompiledSDFG):
        return compiled
    return ProfiledCompiledSDFG(compiled, metrics=metrics, tracer=tracer)
