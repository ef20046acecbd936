"""Liveness-driven memory planning: color transients into shared buffers.

Fused pipelines still allocate one container per *defined* transient even
when only a couple are ever live at once (a chain ``u1 -> u2 -> ... -> u8``
needs two buffers, not eight).  This pass colors the live intervals computed
by :mod:`repro.passes.liveness` into a minimal set of shared buffers and
rewrites the SDFG so later containers reuse the storage of earlier, dead
ones:

* **strict reuse** — a guest whose interval starts strictly after a buffer's
  last use is renamed into that buffer;
* **in-place reuse** — a guest whose defining node is an
  identity element-wise map reading the buffer's current occupant at exactly
  the output index (``t2[k] = f(t1[k], ...)``) may overwrite the occupant
  *while* reading it: per element, the read happens before the write (NumPy
  evaluates the right-hand side fully; the native backend's aliasing guard
  admits equal-subset self-reads), so touching intervals are safe.  Offset
  reads (``t1[k+1]``) are rejected — they would observe clobbered values.

Planning is *size-aware*, not equal-shape-only: a guest fits a buffer when
dtypes match, ranks match and every host dimension is **provably** at least
the guest dimension — proven over the symbolic shapes by
:func:`repro.symbolic.affine.window_fits`, the bounds proof fusion and
stencil hoisting use (``N - 3 <= N - 1`` holds for every ``N``; anything it
cannot decide does not fit).  When a guest is renamed into a larger buffer,
its whole-container memlets (``subset=None``) are first given an explicit
full-guest-shape subset so both code generators keep reading/writing the
guest's window of the shared buffer rather than the buffer's full extent.

Eligibility is deliberately conservative.  A container participates (as
buffer seed or guest) only if it is a transient that is not ``zero_init``
(zeroed-at-allocation semantics — gradient accumulators — cannot inherit a
dirty buffer), not protected (return container, user ``extra_keep``,
gradient targets), not referenced opaquely by control flow, and its *first*
event is a non-accumulating full write that executes unconditionally before
every other use (its control path contains no conditional and is a prefix of
every other event's path).  Everything else keeps its own allocation.

``plan_memory`` (analysis, returns a :class:`MemoryPlan`) and
``apply_memory_plan`` (the rewrite) are split so property tests can check
plans — non-overlapping intervals per buffer, protected containers never
reused — without compiling anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.ir.control_flow import ConditionalRegion
from repro.ir.subsets import Subset
from repro.ir.usage import is_identity_elementwise_write
from repro.passes.liveness import Interval, LivenessInfo, compute_liveness
from repro.symbolic.affine import window_fits

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ir.sdfg import SDFG


# ------------------------------------------------------------------- the plan
@dataclass
class MemoryPlan:
    """The result of :func:`plan_memory` — enough for both the rewrite and
    the no-compilation property tests."""

    #: guest container -> the buffer (host container) it is renamed into.
    assignments: dict[str, str] = field(default_factory=dict)
    #: Buffer groups: ``[host, guest, guest, ...]`` in assignment order.
    buffers: list[list[str]] = field(default_factory=list)
    #: Guests placed via the in-place rule (interval *touches* the previous
    #: occupant's at one position instead of starting strictly after it).
    inplace_guests: set[str] = field(default_factory=set)
    intervals: dict[str, Interval] = field(default_factory=dict)
    transient_bytes_before: int = 0
    transient_bytes_after: int = 0
    peak_bytes_before: int = 0
    peak_bytes_after: int = 0

    @property
    def planned_reuse(self) -> int:
        return len(self.assignments)


def _size_env(desc, symbol_values: Optional[Mapping[str, object]],
              default_symbol_value: int) -> dict[str, int]:
    env = {name: default_symbol_value for name in desc.free_symbols()}
    for name, value in (symbol_values or {}).items():
        if name in env and isinstance(value, (int, float)):
            env[name] = int(value)
    return env


def _container_bytes(sdfg: "SDFG", name: str,
                     symbol_values: Optional[Mapping[str, object]],
                     default_symbol_value: int) -> int:
    desc = sdfg.arrays[name]
    return desc.size_bytes(_size_env(desc, symbol_values, default_symbol_value))


def _eligible(sdfg: "SDFG", name: str, info: LivenessInfo,
              protected: set[str]) -> bool:
    desc = sdfg.arrays.get(name)
    if desc is None or not desc.transient or desc.zero_init:
        return False
    sites = info.uses[name]
    if name in protected or sites.opaque_reads:
        return False
    events = sites.events
    if not events:
        return False
    first = events[0]
    if first.kind != "write" or first.memlet.accumulate:
        return False
    # A full overwrite either through the memlet itself (whole-container
    # subset) or through a map that writes every element once per execution.
    if not first.memlet.is_full_write(desc.shape) and not (
        is_identity_elementwise_write(first.node, desc)
    ):
        return False
    if any(isinstance(region, ConditionalRegion) for region in first.ctrl_path):
        return False
    prefix = first.ctrl_path
    return all(
        event.ctrl_path[: len(prefix)] == prefix for event in events[1:]
    )


def _fits(host_desc, guest_desc) -> bool:
    """Guest storage fits inside host storage for every symbol assignment."""
    if host_desc.dtype.str != guest_desc.dtype.str:
        return False
    host_shape = host_desc.shape_exprs()
    guest_shape = guest_desc.shape_exprs()
    if len(host_shape) != len(guest_shape):
        return False
    return all(window_fits(h, g) for h, g in zip(host_shape, guest_shape))


def _inplace_safe(sdfg: "SDFG", guest: str, members: list[str],
                  info: LivenessInfo) -> bool:
    """May ``guest``'s defining node overwrite the buffer while a member is
    still being read by that same node?  Only when the write is an identity
    element-wise map and every read of a member goes through exactly the
    output subset — the same element the iteration writes."""
    events = info.uses[guest].events
    if not events:
        return False
    node = events[0].node
    desc = sdfg.arrays[guest]
    if not is_identity_elementwise_write(node, desc):
        return False
    member_set = set(members)
    for memlet in node.inputs.values():
        if memlet.data in member_set and memlet.subset != node.output.subset:
            return False
    return True


@dataclass
class _Buffer:
    host: str
    members: list[str]
    end: int
    end_extended: bool


def plan_memory(
    sdfg: "SDFG",
    protect: Iterable[str] = (),
    symbol_values: Optional[Mapping[str, object]] = None,
    default_symbol_value: int = 1024,
) -> MemoryPlan:
    """Color non-overlapping transient live ranges into shared buffers.

    ``protect`` names containers that must keep their own storage (gradient
    targets, ``extra_keep``); the return container is always protected.
    Pure analysis — apply the returned plan with :func:`apply_memory_plan`.
    """
    protected = set(protect)
    return_name = getattr(sdfg, "return_name", None)
    if return_name:
        protected.add(return_name)

    info = compute_liveness(sdfg)
    plan = MemoryPlan(intervals=dict(info.intervals))

    candidates = sorted(
        (name for name in sdfg.arrays if _eligible(sdfg, name, info, protected)),
        key=lambda name: (
            info.intervals[name].start, info.intervals[name].end, name,
        ),
    )

    buffers: list[_Buffer] = []
    for name in candidates:
        interval = info.intervals[name]
        desc = sdfg.arrays[name]
        best: Optional[_Buffer] = None
        best_inplace = False
        for buf in buffers:
            if not _fits(sdfg.arrays[buf.host], desc):
                continue
            if buf.end < interval.start:
                inplace = False
            elif (
                buf.end == interval.start
                and not buf.end_extended
                and not interval.extended
                and _inplace_safe(sdfg, name, buf.members, info)
            ):
                inplace = True
            else:
                continue
            if best is None or buf.end > best.end:
                best = buf
                best_inplace = inplace
        if best is None:
            buffers.append(_Buffer(
                host=name, members=[name],
                end=interval.end, end_extended=interval.extended,
            ))
            continue
        plan.assignments[name] = best.host
        best.members.append(name)
        if interval.end >= best.end:
            best.end = interval.end
            best.end_extended = interval.extended
        if best_inplace:
            plan.inplace_guests.add(name)

    plan.buffers = [list(buf.members) for buf in buffers]

    # ------------------------------------------------- footprint accounting
    transient_names = [n for n, d in sdfg.arrays.items() if d.transient]
    sizes = {
        n: _container_bytes(sdfg, n, symbol_values, default_symbol_value)
        for n in transient_names
    }
    plan.transient_bytes_before = sum(sizes.values())
    plan.transient_bytes_after = plan.transient_bytes_before - sum(
        sizes[guest] for guest in plan.assignments
    )

    # Modelled concurrent-live peak (the numpy backend allocates all
    # transients up front, so the *realized* saving is the total-bytes delta
    # above; the peak figures show what an arena allocator would see).
    def sweep(groups: list[tuple[int, int, int]]) -> int:
        deltas: dict[int, int] = {}
        for start, end, size in groups:
            deltas[start] = deltas.get(start, 0) + size
            deltas[end + 1] = deltas.get(end + 1, 0) - size
        peak = current = 0
        for pos in sorted(deltas):
            current += deltas[pos]
            peak = max(peak, current)
        return peak

    before_groups = [
        (info.intervals[n].start, info.intervals[n].end, sizes[n])
        for n in transient_names if n in info.intervals
    ]
    plan.peak_bytes_before = sweep(before_groups)

    guest_set = set(plan.assignments)
    after_groups = []
    for buf in buffers:
        start = min(info.intervals[m].start for m in buf.members)
        end = max(info.intervals[m].end for m in buf.members)
        after_groups.append((start, end, sizes[buf.host]))
    for n in transient_names:
        if n in guest_set or n in info.intervals and any(
            n in buf.members for buf in buffers
        ):
            continue
        if n in info.intervals:
            iv = info.intervals[n]
            after_groups.append((iv.start, iv.end, sizes[n]))
    plan.peak_bytes_after = sweep(after_groups)
    return plan


def apply_memory_plan(sdfg: "SDFG", plan: MemoryPlan) -> int:
    """Rewrite the SDFG per ``plan``: rename every guest's memlets (inputs
    *and* outputs) onto its buffer and drop the guest descriptor.  Returns
    the number of containers whose storage was reused."""
    for guest, host in plan.assignments.items():
        guest_desc = sdfg.arrays[guest]
        host_desc = sdfg.arrays[host]
        shapes_differ = (
            repr(guest_desc.shape_exprs()) != repr(host_desc.shape_exprs())
        )
        for state in sdfg.all_states():
            for node in state.nodes:
                for memlet in list(node.inputs.values()) + [node.output]:
                    if memlet.data != guest:
                        continue
                    if shapes_differ and memlet.subset is None:
                        # Keep whole-container accesses confined to the
                        # guest's window of the (larger) shared buffer.
                        memlet.subset = Subset.full(guest_desc.shape_exprs())
                    memlet.data = host
        del sdfg.arrays[guest]
    return len(plan.assignments)


__all__ = [
    "MemoryPlan",
    "apply_memory_plan",
    "plan_memory",
]
