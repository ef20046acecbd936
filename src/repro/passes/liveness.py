"""Liveness analysis: live intervals over the program-order linearisation.

:func:`repro.ir.usage.collect_uses` gives every compute node one global
position and every container the list of positions at which it is read or
written.  From those events this module derives a conservative **live
interval** per container — the position range outside of which its storage
can be reused without changing any observable value (memory planning,
:mod:`repro.passes.planning`) — and the top-level first/last uses
:mod:`repro.checkpointing.memseq` builds its timeline on.

Conservatism
------------
Positions follow syntactic order across states, loop bodies and conditional
branches.  Control flow is handled by *widening* instead of
path-sensitivity; a loop's span is the position range of the nodes whose
``ctrl_path`` contains it:

* branches of a conditional are linearised one after the other — a value live
  in any branch is treated as live across the whole conditional;
* a live interval that overlaps a loop's position span only partially (e.g.
  written before the loop, read inside it) is extended over the *entire*
  span: the read re-executes every iteration, so the value must survive all
  of them;
* a value defined and used inside a loop body is per-iteration **unless** it
  is *loop-carried* — some iteration reads it before the body has written it
  again — in which case its interval is widened to the loop's full span
  (live across the back-edge).

Containers referenced by branch conditions or loop bounds have no rewritable
memlet; their ``LivenessInfo.uses[name].opaque_reads`` count is non-zero and
passes must leave them alone.

The module is pure analysis: it never mutates the SDFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.control_flow import LoopRegion
from repro.ir.usage import (
    ProgramUses,
    UseSite,
    collect_uses,
    is_identity_elementwise_write,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.sdfg import SDFG


@dataclass
class Interval:
    """Inclusive live range ``[start, end]`` in global positions.

    ``extended`` is set when control-flow widening grew the interval beyond
    its raw first/last event positions (``first_event``/``last_event``) —
    consumers that reason about the *defining event itself* (in-place reuse)
    must check it.
    """

    start: int
    end: int
    first_event: int
    last_event: int
    extended: bool = False

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class LoopSpan:
    """The inclusive global-position span of one loop's body."""

    loop: LoopRegion
    lo: int
    hi: int


@dataclass
class LivenessInfo:
    """The live intervals of one SDFG and the linearisation they are over."""

    uses: ProgramUses
    intervals: dict[str, Interval] = field(default_factory=dict)
    #: One span per loop whose body holds a compute node, in order of its
    #: first node (an enclosing loop before the loops it contains).
    loop_spans: list[LoopSpan] = field(default_factory=list)


@dataclass(frozen=True)
class TopLevelUse:
    """First/last use of a container at top-level element granularity.

    ``last_read`` excludes accumulate self-reads (mirroring
    ``ControlFlowElement.read_data()``); ``last_access`` includes every
    event.  All three default to 0 for never-used containers, matching the
    historical behaviour of the memseq helpers built on this.
    """

    first_write: int = 0
    last_read: int = 0
    last_access: int = 0


def _is_unconditional_full_write(event: UseSite, desc, loop: LoopRegion) -> bool:
    """A write that is guaranteed to replace ``desc``'s whole contents on
    every iteration of ``loop``: a non-accumulating full write sitting
    *directly* in the loop's body (not nested in an inner conditional or
    loop, whose execution per iteration is not guaranteed)."""
    if event.kind != "write" or event.memlet.accumulate:
        return False
    if not event.ctrl_path or event.ctrl_path[-1] is not loop:
        return False
    return event.memlet.is_full_write(desc.shape) or (
        is_identity_elementwise_write(event.node, desc)
    )


def _loop_carried(
    sdfg: "SDFG", name: str, events: list[UseSite], span: LoopSpan
) -> bool:
    """True if some read of ``name`` inside ``span`` may observe a value
    produced by a *previous* iteration (live across the back-edge)."""
    desc = sdfg.arrays.get(name)
    if desc is None:
        return True  # unknown container: assume the worst
    inside = [e for e in events if span.lo <= e.pos <= span.hi]
    for read in inside:
        if read.kind != "read":
            continue
        killed = any(
            _is_unconditional_full_write(w, desc, span.loop)
            and w.pos < read.pos
            for w in inside
        )
        if not killed:
            return True
    return False


def compute_liveness(sdfg: "SDFG") -> LivenessInfo:
    """Linearise ``sdfg`` (:func:`repro.ir.usage.collect_uses`) and derive
    per-container live intervals (see the module docstring for the widening
    rules)."""
    info = LivenessInfo(uses=collect_uses(sdfg))
    spans: dict[LoopRegion, LoopSpan] = {}
    for site in info.uses.nodes:
        for loop in site.ctrl_path:
            if loop in spans:
                spans[loop].hi = site.pos
            elif isinstance(loop, LoopRegion):
                spans[loop] = LoopSpan(loop, site.pos, site.pos)
    info.loop_spans = list(spans.values())

    for name, sites in info.uses.items():
        if sites.events:
            first, last = sites.events[0].pos, sites.events[-1].pos
            info.intervals[name] = Interval(
                start=first, end=last, first_event=first, last_event=last,
            )

    # Widen to a fixed point: each extension can expose a new partial overlap
    # with an outer loop's span.
    changed = True
    while changed:
        changed = False
        for name, interval in info.intervals.items():
            for span in info.loop_spans:
                s, e = interval.start, interval.end
                if e < span.lo or s > span.hi:
                    continue  # disjoint
                if s <= span.lo and e >= span.hi:
                    continue  # already covers the loop
                if s >= span.lo and e <= span.hi:
                    # Fully inside the loop body: per-iteration unless a
                    # value crosses the back-edge.
                    if not _loop_carried(sdfg, name, info.uses[name].events, span):
                        continue
                    new_s, new_e = span.lo, span.hi
                else:
                    # Partial overlap (defined outside, used inside or vice
                    # versa): the value must survive every iteration.
                    new_s, new_e = min(s, span.lo), max(e, span.hi)
                if (new_s, new_e) != (s, e):
                    interval.start, interval.end = new_s, new_e
                    interval.extended = True
                    changed = True
    return info


def top_level_uses(sdfg: "SDFG") -> dict[str, TopLevelUse]:
    """First-write / last-read / last-access indices of every container at
    top-level element granularity (the view
    :mod:`repro.checkpointing.memseq` builds its measurement timeline on).
    """
    out: dict[str, TopLevelUse] = {}
    for name, sites in collect_uses(sdfg).items():
        out[name] = TopLevelUse(
            first_write=min((e.top_index for e in sites.writes), default=0),
            last_read=max((e.top_index for e in sites.reads
                           if not e.accumulate_read), default=0),
            last_access=max((e.top_index for e in sites.events), default=0),
        )
    return out


__all__ = [
    "Interval",
    "LivenessInfo",
    "LoopSpan",
    "TopLevelUse",
    "compute_liveness",
    "top_level_uses",
]
