"""The fault-tolerant micro-batching executor: :class:`BatchQueue`.

Requests arrive one sample at a time (from many threads); a supervised
background worker coalesces them — up to ``max_batch`` samples, waiting at
most ``max_wait_ms`` after the first request of a batch — stacks the
per-sample arrays along a new leading axis, optionally pads up to a
bucketed size, dispatches **one** call of a batched kernel (typically
``repro.vmap(f).compile()``) and scatters the per-sample result slices
back to the callers' futures.

On top of the coalescing core (see ``docs/batching.md``) the runtime is
hardened for production serving (``docs/serving.md``):

* **Request lifecycle** — ``submit(..., timeout_ms=)`` attaches a deadline
  enforced while queued and again right before padding into a batch
  (:class:`~repro.serve.errors.DeadlineExceeded`); ``Future.cancel()`` is
  honored — cancelled requests are dropped pre-dispatch via
  ``set_running_or_notify_cancel`` and can never wedge the worker.
* **Backpressure** — a bounded pending queue (``max_pending``) with
  ``block`` / ``reject`` / ``shed_oldest`` policies
  (:mod:`repro.serve.policies`).
* **Supervision** — the worker loop is supervised: an unexpected dispatch
  error fails the in-flight batch with that error, restarts the loop and
  counts ``serve.worker_restarts_total`` instead of silently dying.
* **Fault isolation** — a failing batch is retried (capped exponential
  backoff) and then **bisected**, so transient faults are retried and a
  single poison sample fails alone while its batch-mates get results.

A :class:`~repro.serve.breaker.CircuitBreaker` composes as the
``batched_fn`` (it is just a callable), giving native-kernel failures a
NumPy-backend fallback path.  Deterministic failure injection for all of
the above lives in :mod:`repro.faults`.

::

    batched = repro.vmap(program).compile(optimize="O3")
    with BatchQueue(batched, max_batch=64, max_wait_ms=2.0) as queue:
        future = queue.submit(x=sample, bias=b)               # async
        bounded = queue.submit(timeout_ms=50.0, x=s2, bias=b) # with deadline
        y = queue(x=sample3, bias=b)                          # sync
        result = future.result()
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.obs.clock import monotonic, monotonic_ns
from repro.obs.metrics import METRICS, Histogram
from repro.obs.trace import TRACER, span as _span
from repro.serve.errors import DeadlineExceeded, QueueFullError, RequestCancelled
from repro.serve.policies import Closed, Empty, PendingQueue

# Process-wide serving metrics, fed alongside the per-queue BatchStats:
# queue depth (samples submitted but not yet dispatched), the wait/dispatch
# latency distributions aggregated over every queue, and the resilience
# counters (retries, bisections, shed/rejected/expired/cancelled requests,
# worker restarts) — see docs/serving.md and docs/observability.md.
_OBS_QUEUE_DEPTH = METRICS.gauge("serve.queue_depth")
_OBS_WAIT = METRICS.histogram("serve.wait_seconds")
_OBS_DISPATCH = METRICS.histogram("serve.dispatch_seconds")
_OBS_RETRIES = METRICS.counter("serve.retries_total")
_OBS_BISECTIONS = METRICS.counter("serve.bisections_total")
_OBS_SHED = METRICS.counter("serve.shed_total")
_OBS_REJECTED = METRICS.counter("serve.rejected_total")
_OBS_EXPIRED = METRICS.counter("serve.deadline_expired_total")
_OBS_CANCELLED = METRICS.counter("serve.cancelled_total")
_OBS_RESTARTS = METRICS.counter("serve.worker_restarts_total")
_OBS_FAILED = METRICS.counter("serve.failed_requests_total")


@dataclass
class BatchStats:
    """Counters describing how the queue coalesced — and survived — traffic.

    Besides the coalescing counters, two latency histograms record, per
    queue, how long samples sat in the queue (``wait_seconds``: submit →
    dispatch start) and how long batched-kernel dispatches took
    (``dispatch_seconds``); ``wait_p50``/``wait_p99`` and
    ``dispatch_p50``/``dispatch_p99`` summarise them (NaN before the first
    dispatch).  The resilience counters mirror the process-wide
    ``serve.*_total`` metrics for this one queue.
    """

    requests: int = 0            #: samples accepted by submit()
    batches: int = 0             #: successful batched kernel dispatches
    batched_samples: int = 0     #: samples served through those dispatches
    padded_samples: int = 0      #: padding rows added by bucketing
    max_batch_observed: int = 0  #: largest batch dispatched (pre-padding)
    batch_sizes: dict[int, int] = field(default_factory=dict)  #: dispatched size -> count
    retries: int = 0             #: same-batch retries after a dispatch failure
    bisections: int = 0          #: batch splits while isolating a failure
    shed: int = 0                #: requests evicted by the shed_oldest policy
    rejected: int = 0            #: submits refused by the reject policy
    expired: int = 0             #: requests whose deadline passed pre-dispatch
    cancelled: int = 0           #: requests cancelled by their caller pre-dispatch
    failed: int = 0              #: requests resolved with an error
    worker_restarts: int = 0     #: supervised restarts of the worker loop
    #: queue-wait distribution in seconds (submit → dispatch start)
    wait_seconds: Histogram = field(default_factory=Histogram, repr=False)
    #: batched-kernel dispatch duration distribution in seconds
    dispatch_seconds: Histogram = field(default_factory=Histogram, repr=False)

    @property
    def mean_batch(self) -> float:
        """Average samples per dispatch (0.0 before the first dispatch)."""
        return self.batched_samples / self.batches if self.batches else 0.0

    @property
    def wait_p50(self) -> float:
        """Median queue wait in seconds (NaN before the first dispatch)."""
        return self.wait_seconds.p50

    @property
    def wait_p99(self) -> float:
        """99th-percentile queue wait in seconds."""
        return self.wait_seconds.p99

    @property
    def dispatch_p50(self) -> float:
        """Median dispatch duration in seconds."""
        return self.dispatch_seconds.p50

    @property
    def dispatch_p99(self) -> float:
        """99th-percentile dispatch duration in seconds."""
        return self.dispatch_seconds.p99


@dataclass
class _Request:
    kwargs: dict
    future: Future
    enqueued_ns: int = 0
    deadline_ns: int = 0  # 0 = no deadline


def bucketed(size: int, max_batch: int) -> int:
    """Round ``size`` up to the next power of two, capped at ``max_batch``."""
    bucket = 1
    while bucket < size:
        bucket *= 2
    return min(bucket, max_batch)


def _safe_set_result(future: Future, value) -> bool:
    """Resolve ``future`` with ``value`` unless it is already done/cancelled.

    A caller-side ``Future.cancel()`` or a double resolution must never
    raise ``InvalidStateError`` into the worker thread (the pre-hardening
    bug that permanently wedged the queue)."""
    try:
        future.set_result(value)
        return True
    except InvalidStateError:
        return False


def _safe_set_exception(future: Future, exc: BaseException) -> bool:
    """Fail ``future`` with ``exc`` unless it is already done/cancelled."""
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


class BatchQueue:
    """Coalesces per-sample requests into calls of one batched function.

    Parameters
    ----------
    batched_fn:
        Callable accepting keyword arguments stacked along a leading batch
        axis and returning an array, a dict of arrays, or a (nested)
        tuple/list of them, each with the batch axis leading.  A compiled
        ``repro.vmap`` program, a batched
        :class:`~repro.autodiff.GradientFunction` or a
        :class:`~repro.serve.breaker.CircuitBreaker` fits directly.
    max_batch:
        Largest number of samples dispatched in one call.
    max_wait_ms:
        How long the worker waits for more samples after the first request
        of a batch arrived.  ``0`` dispatches whatever is immediately
        available (lowest latency, least coalescing).
    bucket:
        Pad each dispatch up to a power-of-two size (see :func:`bucketed`)
        by replicating the final sample; padded outputs are discarded.
    static_kwargs:
        Values passed to every dispatch unchanged — broadcast operands
        (``in_axes=None`` arguments) and symbol bindings.
    start:
        Start the worker thread immediately.  With ``start=False`` the
        queue refuses requests (``submit``/``__call__`` raise
        ``RuntimeError``) until :meth:`start` is called.  To stage a known
        set of requests for deterministic batch formation use
        :meth:`hold` / :meth:`release` on a *started* queue instead.
    max_pending:
        Bound on queued-but-undispatched requests (``None`` = unbounded).
    policy:
        Backpressure policy once ``max_pending`` is reached: ``"block"``
        (default), ``"reject"`` (submit raises
        :class:`~repro.serve.errors.QueueFullError`) or ``"shed_oldest"``
        (the oldest pending request fails with
        :class:`~repro.serve.errors.RequestCancelled`).
    max_retries:
        Dispatch attempts beyond the first for a failing batch (at each
        bisection level) before the batch is split — see
        ``docs/serving.md``.
    backoff_ms / backoff_cap_ms:
        Base and cap of the capped exponential backoff slept between
        retry attempts (``backoff_ms * 2**attempt``, capped).
    """

    def __init__(
        self,
        batched_fn: Callable,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        bucket: bool = False,
        static_kwargs: Optional[dict] = None,
        start: bool = True,
        max_pending: Optional[int] = None,
        policy: str = "block",
        max_retries: int = 2,
        backoff_ms: float = 1.0,
        backoff_cap_ms: float = 50.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.batched_fn = batched_fn
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.bucket = bucket
        self.static_kwargs = dict(static_kwargs or {})
        self.max_retries = int(max_retries)
        self.backoff_ms = float(backoff_ms)
        self.backoff_cap_ms = float(backoff_cap_ms)
        self.stats = BatchStats()
        self._pending = PendingQueue(capacity=max_pending, policy=policy)
        self._worker: Optional[threading.Thread] = None
        self._inflight: list[_Request] = []
        self._lock = threading.Lock()
        if start:
            self.start()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "BatchQueue":
        """Start the worker thread (idempotent)."""
        with self._lock:
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run, name="repro-batch-queue", daemon=True
                )
                self._worker.start()
        return self

    def close(self) -> None:
        """Stop accepting requests, drain the queue and join the worker."""
        self._pending.close()
        worker = self._worker
        if worker is not None:
            worker.join()

    def __enter__(self) -> "BatchQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def hold(self) -> "BatchQueue":
        """Pause batch formation: submitted requests stage in the queue."""
        self._pending.hold()
        return self

    def release(self) -> "BatchQueue":
        """Resume batch formation over everything staged under :meth:`hold`."""
        self._pending.release()
        return self

    # -- front-ends ------------------------------------------------------
    def submit(self, timeout_ms: Optional[float] = None, **sample) -> Future:
        """Enqueue one sample; returns a future resolving to its result.

        ``timeout_ms`` bounds how long the request may wait for dispatch;
        past the deadline it resolves with
        :class:`~repro.serve.errors.DeadlineExceeded` instead of riding a
        batch.  The returned future honors ``cancel()`` until the moment
        the worker claims it for dispatch.
        """
        if self._worker is None:
            raise RuntimeError("BatchQueue worker not started; call start()")
        now = monotonic_ns()
        deadline_ns = now + int(timeout_ms * 1e6) if timeout_ms is not None else 0
        request = _Request(
            kwargs=sample, future=Future(), enqueued_ns=now, deadline_ns=deadline_ns
        )
        # PendingQueue.put is atomic against close(): it either raises the
        # closed RuntimeError, or the request lands before the close and is
        # drained (failed with RequestCancelled) by the worker — a racing
        # close() can never leave this future pending forever.
        try:
            shed = self._pending.put(request)
        except QueueFullError:
            with self._lock:
                self.stats.rejected += 1
            _OBS_REJECTED.inc()
            raise
        with self._lock:
            self.stats.requests += 1
        _OBS_QUEUE_DEPTH.inc()
        if shed is not None:
            self._resolve_shed(shed)
        return request.future

    def __call__(self, timeout_ms: Optional[float] = None, **sample):
        """Synchronous front-end: submit and wait for the result."""
        return self.submit(timeout_ms=timeout_ms, **sample).result()

    # -- request resolution helpers --------------------------------------
    def _resolve_shed(self, request: _Request) -> None:
        with self._lock:
            self.stats.shed += 1
        _OBS_SHED.inc()
        _OBS_QUEUE_DEPTH.dec()
        _safe_set_exception(
            request.future,
            RequestCancelled("request shed under backpressure (shed_oldest)"),
        )

    def _resolve_expired(self, request: _Request) -> None:
        self.stats.expired += 1
        self.stats.failed += 1
        _OBS_EXPIRED.inc()
        _OBS_FAILED.inc()
        waited_ms = (monotonic_ns() - request.enqueued_ns) / 1e6
        _safe_set_exception(
            request.future,
            DeadlineExceeded(f"deadline exceeded after {waited_ms:.1f} ms in queue"),
        )

    def _resolve_cancelled(self, request: _Request) -> None:
        self.stats.cancelled += 1
        _OBS_CANCELLED.inc()
        # Moves a caller-cancelled future to CANCELLED_AND_NOTIFIED.
        request.future.set_running_or_notify_cancel()

    def _backoff_seconds(self, attempt: int) -> float:
        return min(self.backoff_ms * 2.0 ** attempt, self.backoff_cap_ms) / 1e3

    # -- worker ----------------------------------------------------------
    def _run(self) -> None:
        """Supervised worker entry: restart the serve loop on unexpected
        errors (failing the in-flight batch with them) until shutdown."""
        while True:
            try:
                self._serve_loop()
                break  # clean shutdown
            except BaseException as exc:  # noqa: BLE001 - supervised restart
                inflight, self._inflight = self._inflight, []
                for request in inflight:
                    if _safe_set_exception(request.future, exc):
                        self.stats.failed += 1
                        _OBS_FAILED.inc()
                self.stats.worker_restarts += 1
                _OBS_RESTARTS.inc()
                TRACER.record(
                    "serve.worker.restart", monotonic_ns(), 0,
                    error=type(exc).__name__,
                )
                if self._pending.closed:
                    break
        # Fail whatever is still queued after shutdown.
        for request in self._pending.drain():
            _OBS_QUEUE_DEPTH.dec()
            self.stats.failed += 1
            _OBS_FAILED.inc()
            _safe_set_exception(
                request.future, RequestCancelled("BatchQueue closed before dispatch")
            )

    def _serve_loop(self) -> None:
        """Form batches and dispatch until the pending queue closes."""
        while True:
            try:
                item = self._pending.get()
            except Closed:
                return
            if not self._admit(item):
                continue
            batch = [item]
            deadline = monotonic() + self.max_wait_ms / 1e3
            closing = False
            while len(batch) < self.max_batch:
                timeout = deadline - monotonic()
                try:
                    if timeout > 0:
                        extra = self._pending.get(timeout=timeout)
                    else:
                        extra = self._pending.get_nowait()
                except Empty:
                    break
                except Closed:
                    closing = True
                    break
                if self._admit(extra):
                    batch.append(extra)
            self._inflight = batch
            self._dispatch(batch)
            self._inflight = []
            if closing:
                return

    def _admit(self, request: _Request) -> bool:
        """Drop cancelled/expired requests before they enter a batch."""
        if request.future.cancelled():
            _OBS_QUEUE_DEPTH.dec()
            self._resolve_cancelled(request)
            return False
        if request.deadline_ns and monotonic_ns() > request.deadline_ns:
            _OBS_QUEUE_DEPTH.dec()
            self._resolve_expired(request)
            return False
        return True

    def _dispatch(self, batch: list) -> None:
        """Claim, validate and resiliently execute one formed batch."""
        start_ns = monotonic_ns()
        _OBS_QUEUE_DEPTH.dec(len(batch))
        claimed: list[_Request] = []
        for request in batch:
            if request.deadline_ns and start_ns > request.deadline_ns:
                self._resolve_expired(request)
                continue
            # Claim the future: from here on cancel() is refused, so
            # set_result/set_exception below cannot race a cancellation.
            if not request.future.set_running_or_notify_cancel():
                self._resolve_cancelled(request)
                continue
            if request.enqueued_ns:
                waited = (start_ns - request.enqueued_ns) / 1e9
                self.stats.wait_seconds.observe(waited)
                _OBS_WAIT.observe(waited)
            claimed.append(request)
        if not claimed:
            return
        # A sample with inconsistent argument names fails alone; the rest
        # of the batch still dispatches.
        names = list(claimed[0].kwargs)
        matching: list[_Request] = []
        for request in claimed:
            if list(request.kwargs) != names:
                self.stats.failed += 1
                _OBS_FAILED.inc()
                _safe_set_exception(
                    request.future,
                    ValueError(
                        f"Inconsistent sample arguments: {sorted(request.kwargs)} "
                        f"vs {sorted(names)}"
                    ),
                )
            else:
                matching.append(request)
        self._dispatch_resilient(matching)

    def _dispatch_resilient(self, requests: list, attempt: int = 0) -> None:
        """Execute; on failure retry with backoff, then bisect, so a single
        poison sample fails alone while its batch-mates get results."""
        live: list[_Request] = []
        now = monotonic_ns()
        for request in requests:
            if request.deadline_ns and now > request.deadline_ns:
                self._resolve_expired(request)
            else:
                live.append(request)
        if not live:
            return
        try:
            self._execute(live)
        except BaseException as exc:  # noqa: BLE001 - isolate, retry, bisect
            if attempt < self.max_retries:
                self.stats.retries += 1
                _OBS_RETRIES.inc()
                time.sleep(self._backoff_seconds(attempt))
                self._dispatch_resilient(live, attempt + 1)
            elif len(live) > 1:
                self.stats.bisections += 1
                _OBS_BISECTIONS.inc()
                mid = len(live) // 2
                self._dispatch_resilient(live[:mid])
                self._dispatch_resilient(live[mid:])
            else:
                self.stats.failed += 1
                _OBS_FAILED.inc()
                _safe_set_exception(live[0].future, exc)

    def _execute(self, requests: list) -> None:
        """Stack, pad, call the batched function once, scatter results."""
        size = len(requests)
        names = list(requests[0].kwargs)
        padded = bucketed(size, self.max_batch) if self.bucket else size
        stacked = {}
        for name in names:
            rows = [np.asarray(request.kwargs[name]) for request in requests]
            rows.extend([rows[-1]] * (padded - size))
            stacked[name] = np.stack(rows, axis=0)
        with _span("batch.dispatch", size=size, padded=padded):
            call_start_ns = monotonic_ns()
            result = self.batched_fn(**stacked, **self.static_kwargs)
            elapsed = (monotonic_ns() - call_start_ns) / 1e9
        self.stats.dispatch_seconds.observe(elapsed)
        _OBS_DISPATCH.observe(elapsed)
        self.stats.batches += 1
        self.stats.batched_samples += size
        self.stats.padded_samples += padded - size
        self.stats.max_batch_observed = max(self.stats.max_batch_observed, size)
        self.stats.batch_sizes[padded] = self.stats.batch_sizes.get(padded, 0) + 1
        for position, request in enumerate(requests):
            try:
                _safe_set_result(request.future, _scatter(result, position))
            except BaseException as exc:  # noqa: BLE001 - scatter failure
                self.stats.failed += 1
                _OBS_FAILED.inc()
                _safe_set_exception(request.future, exc)


def _scatter(result, position: int):
    """Per-sample slice of a batched result (arrays along axis 0; dicts,
    tuples and lists element-wise)."""
    if isinstance(result, np.ndarray):
        return result[position]
    if isinstance(result, dict):
        return {key: _scatter(value, position) for key, value in result.items()}
    if isinstance(result, (tuple, list)):
        return type(result)(_scatter(value, position) for value in result)
    raise TypeError(
        f"Batched function returned {type(result).__name__}; expected an "
        "ndarray, dict, tuple or list of batched arrays"
    )
