"""The pass manager: ordered pipeline execution with per-pass instrumentation.

``PassManager.run`` executes the configured passes in order on (a copy of) the
input SDFG and records, for every pass, its wall-clock time and the change in
IR size (compute nodes and control-flow elements) into a
:class:`PipelineReport`.  The report is attached to compiled objects so users
can see where compilation time goes (``print(report.pretty())``).

Pass timing reads the obs monotonic clock (:mod:`repro.obs.clock`) and every
pass execution additionally opens a ``pipeline.<pass>`` tracing span (plus
one ``pipeline.run`` span around the whole pipeline), so an enabled tracer
(``repro.obs.enable()``) sees per-pass compilation time on the same clock
the report records — see ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.ir import SDFG, State
from repro.obs.clock import monotonic_ns
from repro.obs.trace import span as _span
from repro.pipeline.pass_base import Pass, PassContext, as_passes


def ir_size(sdfg: SDFG) -> int:
    """Compute nodes plus control-flow elements — the "node count" whose
    per-pass delta the report tracks."""
    nodes = 0
    elements = 0
    for element in sdfg.all_elements():
        elements += 1
        if isinstance(element, State):
            nodes += len(element.nodes)
    return nodes + elements


@dataclass
class PassRecord:
    """Instrumentation of one pass execution."""

    name: str
    seconds: float
    nodes_before: int
    nodes_after: int
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def delta(self) -> int:
        """IR-size change caused by the pass (negative = IR shrank)."""
        return self.nodes_after - self.nodes_before

    def to_dict(self) -> dict:
        """JSON-serialisable form (benchmark scripts persist these)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "delta": self.delta,
            "info": dict(self.info),
        }


@dataclass
class PipelineReport:
    """Per-pass timings and IR-size deltas of one pipeline run."""

    pipeline: str = "pipeline"
    records: list[PassRecord] = field(default_factory=list)
    cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        """Sum of per-pass wall times (the pipeline's compile cost)."""
        return sum(record.seconds for record in self.records)

    @property
    def backend(self) -> Optional[str]:
        """Name of the code-generation backend that actually ran (recorded
        by the codegen stage; reflects fallbacks — a compile requested with
        ``backend="cython"`` that fell back reports ``"numpy"`` here, with
        the fallback event in the codegen record's notes).  Derived from the
        records, so cache hits report it for free."""
        record = self.record_for("codegen")
        if record is None:
            return None
        return record.info.get("backend")

    @property
    def backend_fallback(self) -> Optional[str]:
        """The fallback event (``"cython→numpy: ..."``) if one happened."""
        record = self.record_for("codegen")
        if record is None:
            return None
        return record.info.get("backend_fallback")

    def record_for(self, name: str) -> Optional[PassRecord]:
        """The first record of the pass called ``name``, or ``None`` if the
        pipeline did not run it."""
        for record in self.records:
            if record.name == name:
                return record
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable form (benchmark scripts persist these)."""
        return {
            "pipeline": self.pipeline,
            "cache_hit": self.cache_hit,
            "backend": self.backend,
            "total_seconds": self.total_seconds,
            "passes": [record.to_dict() for record in self.records],
        }

    def pretty(self) -> str:
        """Plain-text table: one row per pass with wall time, IR size
        before/after and the pass's diagnostic notes."""
        from repro.harness.report import format_pipeline_report

        return format_pipeline_report(self)


class PassManager:
    """Runs an ordered pass pipeline over an SDFG.

    Parameters
    ----------
    passes:
        :class:`Pass` instances, run in order; anything else raises
        ``TypeError``.
    name:
        Label used in reports and cache keys.
    """

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline") -> None:
        self.passes: list[Pass] = list(as_passes(passes))
        self.name = name

    def fingerprint(self) -> tuple:
        """Stable identity of the configured pipeline (part of cache keys)."""
        return (self.name,) + tuple(p.fingerprint() for p in self.passes)

    def run(
        self, sdfg: SDFG, ctx: Optional[PassContext] = None
    ) -> tuple[SDFG, PipelineReport]:
        """Execute the pipeline; returns the final SDFG and the report.

        The input SDFG is never mutated — passes run on a deep copy, so
        callers can keep reusing their program.
        """
        ctx = ctx if ctx is not None else PassContext()
        current = sdfg.copy()
        report = PipelineReport(pipeline=self.name)
        with _span("pipeline.run", pipeline=self.name, sdfg=sdfg.name):
            for p in self.passes:
                before = ir_size(current)
                ctx.info = {}
                with _span(f"pipeline.{p.name}", pipeline=self.name):
                    start_ns = monotonic_ns()
                    result = p.apply(current, ctx)
                    elapsed = (monotonic_ns() - start_ns) / 1e9
                if result is not None:
                    current = result
                report.records.append(
                    PassRecord(
                        name=p.name,
                        seconds=elapsed,
                        nodes_before=before,
                        nodes_after=ir_size(current),
                        info=dict(ctx.info),
                    )
                )
        ctx.info = {}
        return current, report
