"""Liveness analysis over the SDFG control-flow tree.

Memory planning (:mod:`repro.passes.planning`) and global value numbering
(:mod:`repro.passes.gvn`) both need a *global program order*: every compute
node gets one position in a linearisation of the control-flow tree, and every
container gets the list of positions at which it is read or written.  From
those events this module derives a conservative **live interval** per
transient — the position range outside of which the container's storage can
be reused without changing any observable value.

Linearisation and conservatism
------------------------------
States, loop bodies and conditional branches are walked in syntactic order
(the same order :func:`repro.ir.usage.collect_uses` uses), so positions are
comparable across states.  Control flow is handled by *widening* instead of
path-sensitivity:

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
memlet; they are reported in :attr:`LivenessInfo.opaque` and passes must
leave them alone (same contract as ``UseSites.opaque_reads``).

The module is pure analysis: it never mutates the SDFG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.ir.control_flow import (
    ConditionalRegion,
    ControlFlowRegion,
    LoopRegion,
)
from repro.ir.memlet import Memlet
from repro.ir.nodes import ComputeNode
from repro.ir.state import State

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.sdfg import SDFG


@dataclass(frozen=True)
class NodeRecord:
    """One compute node at its global position in the linearised program.

    ``ctrl_path`` is the tuple of enclosing :class:`LoopRegion` /
    :class:`ConditionalRegion` objects, outermost first (empty for top-level
    states); ``top_index`` is the index of the enclosing top-level element of
    ``sdfg.root`` (the granularity :mod:`repro.checkpointing.memseq` works
    at).
    """

    pos: int
    region: ControlFlowRegion
    element_index: int
    state: State
    node_index: int
    node: ComputeNode
    ctrl_path: tuple
    top_index: int


@dataclass(frozen=True)
class LiveEvent:
    """One read or write of a container at a global position.

    Within one node, input reads are recorded *before* the write (matching
    execution semantics: the right-hand side is evaluated first), and an
    accumulating write additionally records a read of the previous contents
    flagged ``accumulate_read`` — callers that mirror
    ``ControlFlowElement.read_data()`` (which excludes ``+=`` self-reads)
    filter on that flag.
    """

    pos: int
    kind: str  # "read" | "write"
    node: ComputeNode
    memlet: Optional[Memlet]
    ctrl_path: tuple
    top_index: int
    accumulate_read: bool = False


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
    """Everything the liveness walk produced for one SDFG."""

    records: list[NodeRecord] = field(default_factory=list)
    events: dict[str, list[LiveEvent]] = field(default_factory=dict)
    intervals: dict[str, Interval] = field(default_factory=dict)
    loop_spans: list[LoopSpan] = field(default_factory=list)
    opaque: set[str] = field(default_factory=set)
    node_count: int = 0


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


def _walk(
    region: ControlFlowRegion,
    ctrl_path: tuple,
    top_index: Optional[int],
    info: LivenessInfo,
    counter: list[int],
) -> None:
    for element_index, element in enumerate(region.elements):
        top = top_index if top_index is not None else element_index
        if isinstance(element, State):
            for node_index, node in enumerate(element.nodes):
                pos = counter[0]
                counter[0] += 1
                info.records.append(NodeRecord(
                    pos, region, element_index, element, node_index, node,
                    ctrl_path, top,
                ))
                for memlet in node.inputs.values():
                    info.events.setdefault(memlet.data, []).append(LiveEvent(
                        pos, "read", node, memlet, ctrl_path, top,
                    ))
                out = node.output
                info.events.setdefault(out.data, []).append(LiveEvent(
                    pos, "write", node, out, ctrl_path, top,
                ))
                if out.accumulate:
                    info.events.setdefault(out.data, []).append(LiveEvent(
                        pos, "read", node, out, ctrl_path, top,
                        accumulate_read=True,
                    ))
        elif isinstance(element, LoopRegion):
            lo = counter[0]
            _walk(element.body, ctrl_path + (element,), top, info, counter)
            hi = counter[0] - 1
            if hi >= lo:  # empty loop bodies span nothing
                info.loop_spans.append(LoopSpan(element, lo, hi))
        elif isinstance(element, ConditionalRegion):
            for _, branch in element.branches:
                _walk(branch, ctrl_path + (element,), top, info, counter)


def _collect_opaque(sdfg: "SDFG", info: LivenessInfo) -> None:
    array_names = set(sdfg.arrays)
    for conditional in sdfg.all_conditionals():
        for condition, _ in conditional.branches:
            if condition is None:
                continue
            info.opaque |= condition.free_symbols() & array_names
    for loop in sdfg.all_loops():
        for bound in (loop.start, loop.stop, loop.step):
            info.opaque |= bound.free_symbols() & array_names


def _is_unconditional_full_write(event: LiveEvent, desc, loop: LoopRegion) -> bool:
    """A write that is guaranteed to replace ``desc``'s whole contents on
    every iteration of ``loop``: a non-accumulating full write sitting
    *directly* in the loop's body (not nested in an inner conditional or
    loop, whose execution per iteration is not guaranteed)."""
    if event.kind != "write" or event.memlet is None:
        return False
    if event.memlet.accumulate:
        return False
    if not event.ctrl_path or event.ctrl_path[-1] is not loop:
        return False
    if event.memlet.is_full_write(desc.shape):
        return True
    from repro.passes.gvn import is_identity_elementwise_write

    return is_identity_elementwise_write(event.node, desc)


def _loop_carried(
    sdfg: "SDFG", name: str, events: list[LiveEvent], span: LoopSpan
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
    """Walk the control-flow tree once and derive per-container live
    intervals (see the module docstring for the widening rules)."""
    info = LivenessInfo()
    counter = [0]
    _walk(sdfg.root, (), None, info, counter)
    info.node_count = counter[0]
    _collect_opaque(sdfg, info)

    for name, events in info.events.items():
        first = min(e.pos for e in events)
        last = max(e.pos for e in events)
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
                    if not _loop_carried(sdfg, name, info.events[name], span):
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
    info = compute_liveness(sdfg)
    out: dict[str, TopLevelUse] = {}
    for name, events in info.events.items():
        writes = [e.top_index for e in events if e.kind == "write"]
        reads = [e.top_index for e in events
                 if e.kind == "read" and not e.accumulate_read]
        accesses = [e.top_index for e in events]
        out[name] = TopLevelUse(
            first_write=min(writes) if writes else 0,
            last_read=max(reads) if reads else 0,
            last_access=max(accesses) if accesses else 0,
        )
    return out


__all__ = [
    "Interval",
    "LiveEvent",
    "LivenessInfo",
    "LoopSpan",
    "NodeRecord",
    "TopLevelUse",
    "compute_liveness",
    "top_level_uses",
]
