"""Circuit breaker: graceful degradation around the compiled callable.

:class:`CircuitBreaker` wraps a *primary* batched callable (typically the
native-backend compiled kernel) and an optional *fallback* (typically the
same program recompiled on the NumPy backend — see :func:`numpy_fallback`).
It is itself just a callable taking the stacked batch kwargs, so it drops
straight into :class:`~repro.serve.runtime.BatchQueue` as ``batched_fn``.

Three states (the classic pattern):

* **closed** — calls go to the primary; each success resets the
  consecutive-failure count, each failure increments it, and reaching
  ``failure_threshold`` trips the breaker **open**;
* **open** — calls go to the fallback (or raise
  :class:`~repro.serve.errors.CircuitOpenError` if none is configured)
  until ``reset_timeout_ms`` has elapsed since the trip;
* **half_open** — after the cooldown, exactly one call probes the primary
  while concurrent calls keep using the fallback; a successful probe
  closes the breaker, a failed probe re-opens it (restarting the clock).

Primary failures always propagate to the caller (so the batch queue's
retry/bisection machinery still isolates poison samples); the breaker only
changes *routing* of subsequent calls.  Fallback failures propagate too
but never move the state machine.

Observability (``docs/serving.md``): every trip increments
``serve.breaker_open_total``, fallback calls increment
``serve.breaker_fallback_total``, the ``serve.breaker_state`` gauge holds
the current state (0 = closed, 1 = half_open, 2 = open) and — with tracing
enabled — every transition records a zero-length
``serve.breaker.transition`` span carrying ``from_state``/``to_state``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.obs.clock import monotonic_ns
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER
from repro.serve.errors import CircuitOpenError

_OBS_BREAKER_OPEN = METRICS.counter("serve.breaker_open_total")
_OBS_BREAKER_FALLBACK = METRICS.counter("serve.breaker_fallback_total")
_OBS_BREAKER_STATE = METRICS.gauge("serve.breaker_state")

#: Gauge encoding of the breaker states.
STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class CircuitBreaker:
    """Routes calls between a primary callable and a degraded fallback.

    Parameters
    ----------
    primary:
        The preferred callable (e.g. a native-backend compiled kernel).
    fallback:
        Degraded-mode callable used while the breaker is open (e.g. the
        NumPy-backend recompile from :func:`numpy_fallback`).  Without a
        fallback, open-state calls raise :class:`CircuitOpenError`.
    failure_threshold:
        Consecutive primary failures that trip the breaker open.
    reset_timeout_ms:
        Cooldown after a trip before a half-open recovery probe is allowed.
    name:
        Label attached to transition spans (useful with several breakers).
    """

    def __init__(
        self,
        primary: Callable,
        fallback: Optional[Callable] = None,
        failure_threshold: int = 5,
        reset_timeout_ms: float = 1000.0,
        name: str = "default",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.primary = primary
        self.fallback = fallback
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_ms = float(reset_timeout_ms)
        self.name = name
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_ns = 0
        self._probe_inflight = False
        self._lock = threading.Lock()
        _OBS_BREAKER_STATE.set(STATE_VALUES[self._state])

    # -- introspection ---------------------------------------------------
    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half_open"``."""
        return self._state

    def reset(self) -> None:
        """Force the breaker closed and forget failure history."""
        with self._lock:
            self._transition("closed")
            self._consecutive_failures = 0
            self._probe_inflight = False

    # -- state machine (call with self._lock held) -----------------------
    def _transition(self, to_state: str) -> None:
        from_state = self._state
        self._state = to_state
        if to_state == "open":
            self._opened_ns = monotonic_ns()
            _OBS_BREAKER_OPEN.inc()
        _OBS_BREAKER_STATE.set(STATE_VALUES[to_state])
        TRACER.record(
            "serve.breaker.transition", monotonic_ns(), 0,
            breaker=self.name, from_state=from_state, to_state=to_state,
        )

    def _cooldown_elapsed(self) -> bool:
        return (monotonic_ns() - self._opened_ns) >= self.reset_timeout_ms * 1e6

    # -- the callable ----------------------------------------------------
    def __call__(self, **kwargs):
        probing = False
        use_fallback = False
        with self._lock:
            if self._state == "open":
                if not self._probe_inflight and self._cooldown_elapsed():
                    self._transition("half_open")
                    self._probe_inflight = True
                    probing = True
                else:
                    use_fallback = True
            elif self._state == "half_open":
                if self._probe_inflight:
                    use_fallback = True
                else:
                    self._probe_inflight = True
                    probing = True
        if use_fallback:
            if self.fallback is None:
                raise CircuitOpenError(
                    f"circuit breaker {self.name!r} is {self._state} and no "
                    "fallback is configured"
                )
            _OBS_BREAKER_FALLBACK.inc()
            return self.fallback(**kwargs)
        try:
            result = self.primary(**kwargs)
        except BaseException:  # noqa: BLE001 - routing decision, then re-raise
            with self._lock:
                self._consecutive_failures += 1
                if probing:
                    self._probe_inflight = False
                    self._transition("open")  # failed probe restarts the clock
                elif (
                    self._state == "closed"
                    and self._consecutive_failures >= self.failure_threshold
                ):
                    self._transition("open")
            raise
        with self._lock:
            self._consecutive_failures = 0
            if probing:
                self._probe_inflight = False
                self._transition("closed")
        return result

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self._state!r}, "
            f"failures={self._consecutive_failures}/{self.failure_threshold})"
        )


def numpy_fallback(program, optimize: str = "O1", **options) -> Callable:
    """Lazy NumPy-backend fallback for a (batched) program.

    Returns a callable that, on first use, compiles ``program`` through the
    existing ``backend="numpy"`` pipeline path (``program.compile`` — works
    for :class:`~repro.batching.BatchedProgram` and plain programs alike;
    a cache hit when the program was compiled before with the default
    backend and the same options) and serves it from then on.  ``options`` are
    :class:`~repro.pipeline.CompileOptions` fields (docs/architecture.md);
    ``backend`` is always forced to ``"numpy"``.  Compilation is deferred so
    a breaker that never trips never pays for the fallback.
    """
    lock = threading.Lock()
    compiled: dict = {}

    def call(**kwargs):
        fn = compiled.get("fn")
        if fn is None:
            with lock:
                fn = compiled.get("fn")
                if fn is None:
                    fn = program.compile(optimize, **{**options, "backend": "numpy"})
                    compiled["fn"] = fn
        return fn(**kwargs)

    return call
