"""The fault-tolerant serving runtime.

Production serving on top of the batching subsystem (ROADMAP direction 3):
:class:`BatchQueue` (:mod:`repro.serve.runtime`) coalesces per-sample
requests into batched kernel calls and is hardened end to end —
per-request deadlines and honored cancellation, bounded-queue
backpressure with pluggable policies (:mod:`repro.serve.policies`), a
supervised worker loop, retry-with-backoff plus batch bisection for fault
isolation, and a :class:`CircuitBreaker` (:mod:`repro.serve.breaker`) that
degrades to a NumPy-backend fallback after repeated native-kernel
failures.  Failure modes surface as typed errors
(:mod:`repro.serve.errors`) and everything is counted/spanned through
:mod:`repro.obs`.

Deterministic fault injection for all of the above lives in
:mod:`repro.faults`; the walkthrough is ``docs/serving.md``.
"""

from repro.serve.breaker import STATE_VALUES, CircuitBreaker, numpy_fallback
from repro.serve.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    QueueFullError,
    RequestCancelled,
    ServingError,
)
from repro.serve.policies import BACKPRESSURE_POLICIES, PendingQueue
from repro.serve.runtime import BatchQueue, BatchStats, bucketed

__all__ = [
    "BatchQueue",
    "BatchStats",
    "bucketed",
    "CircuitBreaker",
    "numpy_fallback",
    "STATE_VALUES",
    "ServingError",
    "DeadlineExceeded",
    "RequestCancelled",
    "QueueFullError",
    "CircuitOpenError",
    "BACKPRESSURE_POLICIES",
    "PendingQueue",
]
