"""The benchmark's own span recorder.

Spans wrap only the calls the benchmark makes into each layer's public
functions; spans inside ``src/`` are a later issue.  Everything stays in
memory until the run ends, then :meth:`Recorder.write_chrome` dumps a
Chrome-trace JSON (load it in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Iterator, Optional


@dataclass
class Span:
    index: int
    name: str
    op: int               #: id shared by every span of one op
    parent: Optional[int]  #: index of the span that caused this one
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Nestable spans on ``perf_counter_ns`` with one open stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            record = Span(
                index=len(self.spans),
                name=name,
                op=op if op is not None else (parent.op if parent else -1),
                parent=parent.index if parent else None,
                start_ns=0,
            )
            self.spans.append(record)
        stack.append(record)
        record.start_ns = perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = perf_counter_ns()
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, op: int,
            parent: Optional[int] = None) -> Span:
        """Record an interval timed elsewhere (another thread's callback)."""
        with self._lock:
            record = Span(len(self.spans), name, op, parent, start_ns, end_ns)
            self.spans.append(record)
        return record

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the part its children cover."""
        covered = [0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration_ns
        totals: dict[str, int] = {}
        for record in self.spans:
            own = max(0, record.duration_ns - covered[record.index])
            totals[record.name] = totals.get(record.name, 0) + own
        return totals

    def write_chrome(self, path: str) -> None:
        events = [
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start_ns / 1e3,
                "dur": record.duration_ns / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": record.op, "parent": record.parent},
            }
            for record in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
