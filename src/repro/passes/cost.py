"""The static cost model: symbolic FLOPs + memory traffic, in one place.

The paper's central methodological claim is that optimization decisions can
be driven by costs obtained "through static analysis" instead of profiling.
Two passes already needed such costs — ILP checkpointing ranks recomputation
by the symbolic FLOP counts of :mod:`repro.passes.flops` — and the ``"O3"``
fusion tier adds a second consumer: a recompute-vs-memory-traffic trade-off.
This module combines both cost sources behind one queryable object so every
pass prices a rewrite the same way (see docs/cost-model.md).

Model
-----
Costs are *symbolic expressions* in the SDFG's size symbols, evaluated to
floats on demand:

* **FLOPs** — per-node counts from :mod:`repro.passes.flops`; per-element
  tasklet counts from :func:`repro.passes.flops.expr_op_count`.
* **Traffic** — bytes moved per memlet (subset volume × element size) and
  per container (write volume + read volume over all use sites, from
  :func:`repro.ir.usage.collect_uses`).

Per-backend knobs (:class:`CostModelConfig`)
--------------------------------------------
``bytes_per_flop``
    How many bytes of memory traffic one modelled FLOP is worth.  For the
    NumPy backend it is ``24.0``: every scalar operation in a vectorised
    statement streams two operand arrays in and one temporary out (3 × 8
    bytes per element), so "recomputing" is never free.  The native backend
    keeps values in registers and sets it well below 1.
``assignment_passes``
    Extra full-array passes one materialised statement costs beyond its
    arithmetic (NumPy evaluates the right-hand side into a temporary, then
    copies it into the named target array): 2 passes — one read, one write.

Constants
---------
:data:`DEFAULT_SYMBOL_VALUE` stands in for a size symbol no binding fixes
(:func:`size_env`, which memory planning's footprint counters share).
Decisions compare costs that scale with the same volumes, so they are
largely insensitive to it; it exists so the model never needs profiling or
user input.  :data:`BACKWARD_TRAFFIC_CREDIT` is what a *gradient-mode*
fusion of a transient the backward pass is linear in saves: its adjoint
container's accumulating write and read.  Candidates the backward pass
would have to *recompute* get no credit; they pay ``gradient_flops``.

:class:`FusionDecision` records every input of a fusion query so pipeline
reports and tests can show *why* a fusion happened (or did not).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from repro.ir import SDFG
from repro.ir.dtypes import itemsize_bytes
from repro.ir.nodes import ComputeNode, MapCompute
from repro.ir.usage import UseSites
from repro.passes.flops import count_node_flops, expr_op_count
from repro.symbolic import Const, Expr, evaluate
from repro.symbolic.simplify import simplify


DEFAULT_SYMBOL_VALUE = 1024
BACKWARD_TRAFFIC_CREDIT = 2.0  # container passes (see module docstring)


def size_env(
    symbols: Iterable[str], symbol_values: Optional[Mapping[str, object]] = None
) -> dict[str, object]:
    """Values for ``symbols``: the numeric binding from ``symbol_values``
    where there is one, :data:`DEFAULT_SYMBOL_VALUE` otherwise."""
    env: dict[str, object] = {name: DEFAULT_SYMBOL_VALUE for name in symbols}
    for name, value in (symbol_values or {}).items():
        if name in env and isinstance(value, (int, float)):
            env[name] = value
    return env


@dataclass(frozen=True)
class CostModelConfig:
    """Per-backend knobs of the static cost model (see module docstring)."""

    bytes_per_flop: float = 24.0
    assignment_passes: int = 2

    def fingerprint(self) -> tuple:
        """Cache-key identity: any knob change must invalidate compilations
        whose pass decisions depended on it."""
        return (self.bytes_per_flop, self.assignment_passes)

    @classmethod
    def for_backend(cls, backend: str) -> "CostModelConfig":
        """Knobs calibrated for one code-generation backend, by canonical
        name (``repro.codegen.resolve_backend``)."""
        return cls(**BACKEND_COST_PRESETS[backend])


#: Per-backend calibration of :class:`CostModelConfig` (see docs/backends.md
#: and docs/cost-model.md).  NumPy: every recomputed scalar op streams
#: operand arrays through memory (24 bytes/FLOP) and each materialised
#: statement costs an extra temp read + target write (2 passes).  The native
#: backend keeps recomputed values in registers and stores straight into the
#: target, so recompute is nearly free relative to the traffic a fusion
#: saves (0.75 bytes/FLOP ~ one double per 10-op expression) and no extra
#: assignment pass exists.
BACKEND_COST_PRESETS: dict[str, dict] = {
    "numpy": {"bytes_per_flop": 24.0, "assignment_passes": 2},
    "cython": {"bytes_per_flop": 0.75, "assignment_passes": 1},
}


@dataclass(frozen=True)
class FusionDecision:
    """One priced fusion query: the verdict plus every number that led to it.

    All byte/FLOP figures are evaluated (floats), per whole-program execution
    of the candidate pair.  ``reason`` is a short human-readable tag used in
    pipeline report notes and tests.
    """

    fuse: bool
    reason: str
    transient: str = ""
    saved_bytes: float = 0.0
    recompute_flops: float = 0.0
    gradient_flops: float = 0.0
    extra_read_bytes: float = 0.0
    backward_credit_bytes: float = 0.0
    offsets: int = 1
    hoistable: bool = True

    def net_benefit_bytes(self, config: CostModelConfig) -> float:
        """Saved traffic (including any backward-pass credit) minus every
        modelled cost, in bytes."""
        return (
            self.saved_bytes
            + self.backward_credit_bytes
            - self.extra_read_bytes
            - (self.recompute_flops + self.gradient_flops) * config.bytes_per_flop
        )


class CostModel:
    """Queries over one SDFG: FLOPs, traffic, and fusion pricing.

    Construct once per pipeline invocation (``symbol_values`` come from the
    compilation context); the model holds no mutable state beyond a decision
    log, so it can be shared by several passes.
    """

    def __init__(
        self,
        sdfg: SDFG,
        symbol_values: Optional[Mapping[str, object]] = None,
        config: Optional[CostModelConfig] = None,
    ) -> None:
        self.sdfg = sdfg
        self.symbol_values = dict(symbol_values or {})
        self.config = config or CostModelConfig()
        self.decisions: list[FusionDecision] = []

    # -- scalarisation ----------------------------------------------------
    def evaluate(self, expr: Expr | int | float) -> float:
        """Symbolic cost -> float, substituting :data:`DEFAULT_SYMBOL_VALUE`
        for any size symbol without a concrete value."""
        if isinstance(expr, (int, float)):
            return float(expr)
        env = size_env(expr.free_symbols(), self.symbol_values)
        return float(evaluate(expr, env))

    # -- FLOPs ------------------------------------------------------------
    def node_flops(self, node: ComputeNode) -> Expr:
        """Symbolic FLOP count of one compute node (whole domain)."""
        return count_node_flops(self.sdfg, node)

    def map_element_flops(self, node: MapCompute) -> int:
        """Scalar operations per element of a map's tasklet."""
        return expr_op_count(node.expr)

    # -- traffic ----------------------------------------------------------
    def itemsize(self, data: str) -> int:
        return itemsize_bytes(self.sdfg.arrays[data].dtype)

    def memlet_bytes(self, memlet) -> Expr:
        """Symbolic bytes moved by one memlet traversal."""
        if memlet.subset is None:
            volume = self.sdfg.arrays[memlet.data].symbolic_total_elements()
        else:
            volume = memlet.subset.volume_expr()
        return simplify(volume * Const(self.itemsize(memlet.data)))

    def container_bytes(self, data: str) -> Expr:
        """Symbolic size of one container in bytes."""
        desc = self.sdfg.arrays[data]
        return simplify(
            desc.symbolic_total_elements() * Const(itemsize_bytes(desc.dtype))
        )

    def container_traffic_bytes(self, data: str, sites: UseSites) -> Expr:
        """Symbolic bytes moved through a container across all of its use
        sites (writes + reads), from :func:`repro.ir.usage.collect_uses`.
        A per-element memlet inside a map moves its bytes once per domain
        element, so map sites scale by their iteration-domain volume."""
        total: Expr = Const(0)
        for site in sites.traffic_sites():
            volume = self.memlet_bytes(site.memlet)
            if isinstance(site.node, MapCompute):
                for rng in site.node.ranges:
                    volume = volume * rng.length_expr()
            total = total + volume
        return simplify(total)

    # -- fusion pricing ----------------------------------------------------
    def price_fusion(
        self,
        producer: MapCompute,
        consumer: MapCompute,
        transient: str,
        offsets: Sequence[tuple[int, ...]],
        hoistable: bool,
        backward_value_uses: int = 0,
        dim_lengths: Optional[Sequence[Expr]] = None,
        gradient_mode: bool = False,
    ) -> FusionDecision:
        """Price inlining ``producer`` (sole writer of ``transient``) into
        ``consumer`` (its sole reader) at the given read ``offsets``.

        Parameters
        ----------
        offsets:
            The distinct per-dimension read offsets; ``[(0, ...)]``-like
            single entry for the plain O2 shape.
        hoistable:
            True when code generation can evaluate the producer once over the
            union window (offset-shifted hoisting,
            :mod:`repro.codegen.stencil`) instead of once per offset.
        backward_value_uses:
            Number of backward-pass maps that would read the *stored* value of
            ``transient`` were it materialised (0 when no gradient is being
            compiled, or when the consumer is linear in the transient).  Each
            such map must recompute the producer expression element-wise once
            the transient is fused away.
        dim_lengths:
            Consumer-side iteration length per *producer* dimension (the
            producer's dims need not map onto the consumer's parameters in
            positional order); used for the union-window overhang estimate.
        gradient_mode:
            True when this compilation will differentiate.  A linear
            candidate (``backward_value_uses == 0``) then earns the
            :data:`BACKWARD_TRAFFIC_CREDIT`: fusing it away also removes its
            adjoint container from the generated backward pass.

        Returns (and logs) a :class:`FusionDecision`.
        """
        config = self.config
        volume = self.evaluate(self.container_bytes(transient))
        consumer_volume = self._domain_elements(consumer)
        per_element = self.map_element_flops(producer)
        input_bytes_per_element = sum(
            self.itemsize(m.data) for m in producer.inputs.values()
        )

        # Materialising the transient costs the assignment passes (NumPy:
        # right-hand side temporary + copy into the named array) every time
        # the producer statement executes.
        saved = config.assignment_passes * volume

        n_offsets = max(len(offsets), 1)
        if hoistable:
            # Producer evaluated once over the union window: the overhang
            # beyond the consumer's own domain is the only extra arithmetic.
            window_overhang = self._window_overhang(consumer, offsets, dim_lengths)
            recompute = per_element * window_overhang
            extra_reads = 0.0
        else:
            # Fused, the producer is evaluated once per offset over the
            # consumer's domain instead of once over its own, and its
            # operands are re-read accordingly; the producer's original
            # operand pass and the transient reads both disappear, so the
            # balance can be a net credit (negative extra_reads) — e.g. a
            # strided consumer reading only part of the producer's output.
            producer_volume = self._domain_elements(producer)
            recompute = per_element * max(
                n_offsets * consumer_volume - producer_volume, 0.0
            )
            extra_reads = input_bytes_per_element * (
                n_offsets * consumer_volume - producer_volume
            ) - n_offsets * consumer_volume * self.itemsize(transient)

        # Gradient-awareness: a value the backward pass reads must be
        # recomputed (per element, per backward use) once it is fused away.
        gradient = float(backward_value_uses) * per_element * consumer_volume
        # A linear candidate's adjoint container disappears with it: the
        # backward pass saves its accumulating write plus its read.
        backward_credit = 0.0
        if gradient_mode and backward_value_uses == 0:
            backward_credit = BACKWARD_TRAFFIC_CREDIT * volume

        decision = FusionDecision(
            fuse=False,
            reason="",
            transient=transient,
            saved_bytes=saved,
            recompute_flops=recompute,
            gradient_flops=gradient,
            extra_read_bytes=extra_reads,
            backward_credit_bytes=backward_credit,
            offsets=n_offsets,
            hoistable=hoistable,
        )
        benefit = decision.net_benefit_bytes(config)
        # "gradient-recompute" only when the gradient term was decisive:
        # the candidate would have fused with gradient_flops at zero.
        without_gradient = benefit + gradient * config.bytes_per_flop
        if benefit > 0:
            reason = "traffic-saved" if n_offsets == 1 else "stencil-profitable"
        elif gradient > 0 and without_gradient > 0:
            reason = "gradient-recompute"
        else:
            reason = "recompute-dominates"
        decision = replace(decision, fuse=benefit > 0, reason=reason)
        self.decisions.append(decision)
        return decision

    # -- helpers ----------------------------------------------------------
    def _domain_elements(self, node: MapCompute) -> float:
        total: Expr = Const(1)
        for rng in node.ranges:
            total = total * rng.length_expr()
        return self.evaluate(simplify(total))

    def _window_overhang(
        self,
        consumer: MapCompute,
        offsets: Sequence[tuple[int, ...]],
        dim_lengths: Optional[Sequence[Expr]] = None,
    ) -> float:
        """Elements of the union window beyond the read footprint itself.

        ``dim_lengths`` gives the consumer-side iteration length per producer
        dimension (supplied by the fusion pass, which knows which consumer
        parameter each dimension maps to); without it the estimate falls
        back to positional consumer ranges.
        """
        if not offsets:
            return 0.0
        ndims = len(offsets[0])
        window: Expr = Const(1)
        footprint: Expr = Const(1)
        for dim in range(ndims):
            span = max(o[dim] for o in offsets) - min(o[dim] for o in offsets)
            if dim_lengths is not None and dim < len(dim_lengths):
                length = dim_lengths[dim]
            elif dim < len(consumer.ranges):
                length = consumer.ranges[dim].length_expr()
            else:
                length = Const(1)
            window = window * simplify(length + Const(span))
            footprint = footprint * length
        return max(
            self.evaluate(simplify(window)) - self.evaluate(simplify(footprint)), 0.0
        )


def summarize_decisions(decisions: Sequence[FusionDecision]) -> dict:
    """Aggregate counts for pipeline report notes.

    The fusion pass prices candidates anew on every fixed-point sweep, so a
    declined transient shows up repeatedly; only its *last* decision (the one
    that stuck) is counted."""
    latest: dict[str, FusionDecision] = {}
    for decision in decisions:
        latest[decision.transient or str(len(latest))] = decision
    decisions = list(latest.values())
    fused = [d for d in decisions if d.fuse]
    declined = [d for d in decisions if not d.fuse]
    return {
        "priced": len(decisions),
        "fused": len(fused),
        "declined": len(declined),
        "declined_gradient": sum(1 for d in declined if d.reason == "gradient-recompute"),
        "fused_stencil": sum(1 for d in fused if d.offsets > 1),
    }
