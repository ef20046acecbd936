"""Bounded pending-request queue with pluggable backpressure policies.

:class:`PendingQueue` is the synchronisation core of :class:`~repro.serve.
runtime.BatchQueue`: a capacity-bounded deque guarded by one condition
variable, owning the close/hold lifecycle so the producer-side race
(``submit()`` vs ``close()``) has exactly two outcomes — the put raises
:class:`~repro.serve.errors.QueueFullError`/``RuntimeError``, or the item
lands *before* the close and is drained (and typed-error-failed) by the
worker.  No third "enqueued but never resolved" state exists.

Backpressure policies (the ``policy`` constructor argument, see
``docs/serving.md``):

* ``"block"`` — ``put`` blocks until space frees (or the queue closes);
  classic producer throttling;
* ``"reject"`` — ``put`` raises :class:`QueueFullError` immediately;
  load-shedding at the front door (HTTP 429 style);
* ``"shed_oldest"`` — the *oldest* pending item is evicted and returned to
  the caller (who fails its future with a typed error); freshest-first
  serving under overload.

``hold()``/``release()`` gate the consumer side: while held, ``get``
treats the queue as empty so tests and warm-up code can stage a known set
of requests and then let the worker form deterministic batches.
``close()`` releases any hold, wakes every waiter, and makes further puts
raise; remaining items are handed out by ``get`` (so the worker can serve
or fail them) and finally by ``drain()``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from repro.obs.clock import monotonic
from repro.serve.errors import QueueFullError

#: The recognised backpressure policies.
BACKPRESSURE_POLICIES = ("block", "reject", "shed_oldest")


class Empty(Exception):
    """``get`` found no item within the timeout (queue still open)."""


class Closed(Exception):
    """``get`` found the queue closed *and* empty — clean shutdown signal."""


class PendingQueue:
    """A bounded, closeable, holdable FIFO of pending requests."""

    def __init__(self, capacity: Optional[int] = None, policy: str = "block") -> None:
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"Unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 (or None), got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._held = False

    # -- producer side ---------------------------------------------------
    def put(self, item):
        """Enqueue ``item``, applying the backpressure policy.

        Returns the evicted oldest item under ``shed_oldest`` (``None``
        otherwise); raises :class:`QueueFullError` under ``reject`` and
        ``RuntimeError`` once the queue is closed.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("BatchQueue is closed")
            shed = None
            if self.capacity is not None and len(self._items) >= self.capacity:
                if self.policy == "reject":
                    raise QueueFullError(
                        f"queue full ({len(self._items)}/{self.capacity} pending)"
                    )
                if self.policy == "shed_oldest":
                    shed = self._items.popleft()
                else:  # block
                    while len(self._items) >= self.capacity and not self._closed:
                        self._cond.wait()
                    if self._closed:
                        raise RuntimeError("BatchQueue is closed")
            self._items.append(item)
            self._cond.notify_all()
            return shed

    # -- consumer side ---------------------------------------------------
    def get(self, timeout: Optional[float] = None):
        """Next item, waiting up to ``timeout`` seconds (forever if None).

        Raises :class:`Empty` on timeout and :class:`Closed` once the queue
        is both closed and empty.  Items enqueued *before* ``close()`` are
        still returned, so the worker serves or fails them deterministically.
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while True:
                if self._items and not self._held:
                    item = self._items.popleft()
                    self._cond.notify_all()  # space freed for blocked putters
                    return item
                if self._closed:
                    raise Closed
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        raise Empty
                    self._cond.wait(remaining)

    def get_nowait(self):
        """``get`` without waiting (raises :class:`Empty`/:class:`Closed`)."""
        with self._cond:
            if self._items and not self._held:
                item = self._items.popleft()
                self._cond.notify_all()
                return item
            if self._closed:
                raise Closed
            raise Empty

    def drain(self) -> list:
        """Remove and return every pending item, ignoring any hold."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify_all()
            return items

    # -- lifecycle -------------------------------------------------------
    def hold(self) -> None:
        """Make ``get`` treat the queue as empty (stage requests)."""
        with self._cond:
            self._held = True

    def release(self) -> None:
        """Undo :meth:`hold`; the consumer sees everything staged at once."""
        with self._cond:
            self._held = False
            self._cond.notify_all()

    def close(self) -> None:
        """Refuse further puts, release any hold and wake every waiter."""
        with self._cond:
            self._closed = True
            self._held = False
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)
