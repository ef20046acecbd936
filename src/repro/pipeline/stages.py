"""Built-in pipeline stages.

Every existing compilation step is wrapped as a :class:`Pass` so the whole
frontend-to-binary flow is one ordered pipeline:

* :class:`ConstantBranchPruning` / :class:`DeadCodeElimination` — the paper's
  pre-AD cleanup (Section IV-B), default at ``optimize="O1"``;
* :class:`GlobalValueNumbering` / :class:`MapFusion` — the ``"O2"`` tier:
  duplicate-map merging (within and across states, over the global program
  order of :func:`repro.ir.usage.collect_uses`) and producer/consumer map
  fusion, run before AD so
  both the forward and the generated backward pass benefit; ``"O3"`` runs
  the same two, with fusion's one gradient rule (``decline_recompute``);
* :class:`MemoryPlanning` — liveness-driven buffer reuse for transients,
  run *after* AD (gradient containers protected) and just before codegen,
  at every tier but O0;
* :class:`CheckpointingSelection` — hands the user's checkpointing
  strategy (an instance, or ``None`` for store-all) to the AD stage;
* :class:`Autodiff` — reverse-mode differentiation
  (:func:`repro.autodiff.add_backward_pass`);
* :class:`Codegen` — the terminal stage, emitting and compiling code on
  the ``"numpy"`` or ``"cython"`` backend via
  :func:`repro.codegen.compile_sdfg`.

Heavy imports happen inside ``apply`` to keep the package import-cycle free
(``autodiff`` itself imports the pipeline driver for its public API).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir import SDFG
from repro.pipeline.pass_base import Pass, PassContext


class ConstantBranchPruning(Pass):
    """Resolve conditionals whose conditions fold to compile-time constants
    (uses ``ctx.symbol_values`` for configuration symbols)."""

    name = "prune-constant-branches"

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.simplification import prune_constant_branches

        removed = prune_constant_branches(sdfg, ctx.symbol_values or None)
        ctx.note("conditionals_removed", removed)
        return sdfg


class DeadCodeElimination(Pass):
    """Remove compute nodes whose results cannot reach an output.

    Besides the default keep set (non-transients plus the return container),
    ``extra_keep`` preserves containers later stages depend on — a
    user-selected gradient ``output`` / ``wrt`` or explicit codegen
    ``result_names``.  ``build_pipeline`` derives it from the same arguments
    it configures those stages with, so the two cannot drift apart.
    """

    name = "dead-code-elimination"

    def __init__(self, extra_keep: Sequence[str] = ()) -> None:
        self.extra_keep = tuple(extra_keep)

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.simplification import eliminate_dead_code

        keep = {name for name in self.extra_keep if name in sdfg.arrays}
        removed = eliminate_dead_code(sdfg, extra_keep=keep)
        ctx.note("nodes_removed", removed)
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, self.extra_keep)


class GlobalValueNumbering(Pass):
    """Merge duplicate element-wise maps and repeated memlet reads, within
    and across state boundaries (see
    :func:`repro.passes.gvn.global_value_numbering`).

    ``extra_keep`` protects containers later stages name explicitly
    (gradient ``output``/``wrt``, codegen ``result_names``).
    """

    name = "global-value-numbering"

    def __init__(self, extra_keep: Sequence[str] = ()) -> None:
        self.extra_keep = tuple(extra_keep)

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.gvn import global_value_numbering

        protect = {name for name in self.extra_keep if name in sdfg.arrays}
        result = global_value_numbering(sdfg, protect=protect)
        ctx.note("nodes_deduplicated", result.nodes_merged)
        ctx.note("connectors_merged", result.connectors_merged)
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, self.extra_keep)


class MemoryPlanning(Pass):
    """Color non-overlapping transient live ranges into shared buffers (see
    :mod:`repro.passes.planning`), cutting allocated transient bytes.

    Runs *after* the AD stage so the backward program is planned too; the
    gradient containers (and the forward value container when it is
    returned) are derived from ``ctx.artifacts["backward"]`` and protected,
    on top of ``extra_keep`` and the return container.  Footprint counters
    (``planned_reuse``, ``peak_bytes_before``/``after``, ...) land in the
    pipeline report.
    """

    name = "memory-planning"

    def __init__(self, extra_keep: Sequence[str] = ()) -> None:
        self.extra_keep = tuple(extra_keep)

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.planning import apply_memory_plan, plan_memory

        protect = {name for name in self.extra_keep if name in sdfg.arrays}
        backward = ctx.artifacts.get("backward")
        if backward is not None:
            protect |= {
                name for name in backward.gradient_names.values()
                if name in sdfg.arrays
            }
            if backward.output in sdfg.arrays:
                protect.add(backward.output)
        plan = plan_memory(sdfg, protect=protect, symbol_values=ctx.symbol_values)
        reused = apply_memory_plan(sdfg, plan)
        ctx.note("planned_reuse", reused)
        ctx.note("buffers_shared",
                 sum(1 for members in plan.buffers if len(members) > 1))
        ctx.note("inplace_reuse", len(plan.inplace_guests))
        ctx.note("transient_bytes_before", plan.transient_bytes_before)
        ctx.note("transient_bytes_after", plan.transient_bytes_after)
        ctx.note("peak_bytes_before", plan.peak_bytes_before)
        ctx.note("peak_bytes_after", plan.peak_bytes_after)
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, self.extra_keep)


class MapFusion(Pass):
    """Fuse element-wise producer maps into their sole consumer, eliminating
    the materialised transient between them (see
    :func:`repro.passes.fusion.fuse_elementwise_maps`).

    Runs pre-AD: the backward pass is generated from the fused forward SDFG,
    so gradients see the same savings.  ``extra_keep`` protects containers a
    later stage differentiates or returns.  ``decline_recompute`` (set by
    ``build_pipeline`` for ``"O3"`` gradient compiles on the ``numpy``
    backend) keeps a transient the backward pass would otherwise recompute;
    the report counts those as ``declined_recompute``.
    """

    name = "map-fusion"

    def __init__(self, extra_keep: Sequence[str] = (), decline_recompute: bool = False) -> None:
        self.extra_keep = tuple(extra_keep)
        self.decline_recompute = decline_recompute

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.fusion import fuse_elementwise_maps

        protect = {name for name in self.extra_keep if name in sdfg.arrays}
        declined: set[str] = set()
        fused = fuse_elementwise_maps(
            sdfg, protect=protect, decline_recompute=self.decline_recompute,
            declined=declined,
        )
        ctx.note("maps_fused", fused)
        ctx.note("transients_eliminated", fused)
        if self.decline_recompute:
            ctx.note("declined_recompute", len(declined))
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, self.extra_keep, self.decline_recompute)


class CheckpointingSelection(Pass):
    """Put the checkpointing strategy on the context for the AD stage: a
    :class:`~repro.checkpointing.CheckpointingStrategy` instance, or
    ``None`` (the store-all default)."""

    name = "checkpointing-selection"

    def __init__(self, strategy=None) -> None:
        self.strategy = check_strategy(strategy)

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        ctx.strategy = self.strategy
        ctx.note(
            "strategy",
            type(self.strategy).__name__ if self.strategy is not None else "store_all",
        )
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, strategy_fingerprint(self.strategy))


class Autodiff(Pass):
    """Reverse-mode AD: augment the forward SDFG with its backward pass and
    stash the :class:`BackwardPassResult` under ``ctx.artifacts["backward"]``."""

    name = "autodiff"

    def __init__(
        self,
        output: Optional[str] = None,
        inputs: Optional[Sequence[str]] = None,
    ) -> None:
        self.output = output
        self.inputs = list(inputs) if inputs is not None else None

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.autodiff.engine import add_backward_pass

        result = add_backward_pass(
            sdfg, output=self.output, inputs=self.inputs, strategy=ctx.strategy
        )
        ctx.artifacts["backward"] = result
        # Preserve the strategy's diagnostic report so warm (cached) compiles
        # can replay it onto the caller's strategy instance.
        ctx.artifacts["checkpoint_report"] = getattr(ctx.strategy, "last_report", None)
        ctx.note("gradients", sorted(result.gradient_names.values()))
        ctx.note("ccs_nodes", len(result.activity.active_nodes))
        ctx.note("wrt_pruned_nodes", len(result.activity.pruned_nodes))
        ctx.note("saved", result.storage.saved_counts())
        return result.sdfg

    def fingerprint(self) -> tuple:
        return (
            self.name,
            self.output,
            tuple(self.inputs) if self.inputs is not None else None,
        )


class Codegen(Pass):
    """Terminal stage: emit + compile executable code through the selected
    backend, stash the :class:`CompiledSDFG` under ``ctx.artifacts["compiled"]``.

    ``backend`` is a canonical name, ``"numpy"`` or ``"cython"``
    (``build_pipeline`` resolves aliases).  When the native build
    *declines* the program — :class:`UnsupportedFeatureError` from its
    emitter, or a missing C toolchain — the stage falls back to the numpy
    backend for this program; the report records both the backend that
    actually ran (``backend``) and the fallback event (``backend_fallback``,
    e.g. ``cython→numpy: UnsupportedFeatureError(...)``).  The backend name
    is part of the pass fingerprint, so the same program compiled under the
    two backends occupies two compilation-cache entries.
    """

    name = "codegen"

    def __init__(
        self,
        func_name: Optional[str] = None,
        result_names: Optional[list[str]] = None,
        return_value: bool = False,
        backend: str = "numpy",
    ) -> None:
        self.func_name = func_name
        self.result_names = result_names
        self.return_value = return_value
        self.backend = backend

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.obs.trace import span as _span

        backward = ctx.artifacts.get("backward")
        func_name = self.func_name
        result_names = self.result_names
        if backward is not None:
            # Gradient compile: results are the gradient containers (and the
            # forward value with return_value=True), mirroring the legacy
            # GradientFunction layout exactly.
            if func_name is None:
                func_name = f"__grad_{sdfg.name}"
            if result_names is None:
                result_names = [
                    backward.gradient_names[name] for name in backward.gradient_names
                ]
                if self.return_value:
                    result_names = result_names + [backward.output]
        with _span("codegen.build", sdfg=sdfg.name, backend=self.backend) as sp:
            compiled = self._compile(sdfg, ctx, func_name, result_names)
            sp.set(ran_backend=compiled.backend)
        ctx.artifacts["compiled"] = compiled
        ctx.note("backend", compiled.backend)
        ctx.note("source_lines", compiled.source.count("\n") + 1)
        return sdfg

    def _compile(self, sdfg: SDFG, ctx: PassContext, func_name, result_names):
        from repro.codegen import compile_sdfg
        from repro.codegen.cython_backend.build import NativeToolchainError
        from repro.util.errors import UnsupportedFeatureError

        try:
            return compile_sdfg(
                sdfg, func_name=func_name, result_names=result_names,
                backend=self.backend,
            )
        except (UnsupportedFeatureError, NativeToolchainError) as exc:
            if self.backend == "numpy":
                raise
            ctx.note(
                "backend_fallback",
                f"{self.backend}→numpy: {type(exc).__name__}({exc})",
            )
            return compile_sdfg(
                sdfg, func_name=func_name, result_names=result_names,
                backend="numpy",
            )

    def fingerprint(self) -> tuple:
        return (
            self.name,
            self.func_name,
            tuple(self.result_names) if self.result_names is not None else None,
            self.return_value,
            self.backend,
        )


def check_strategy(strategy):
    """``strategy`` if it is ``None`` or a
    :class:`~repro.checkpointing.CheckpointingStrategy` instance; a name or
    a duck-typed object raises ``TypeError``."""
    if strategy is None:
        return None  # before the import: repro.checkpointing loads SciPy's solver
    from repro.checkpointing import CheckpointingStrategy

    if not isinstance(strategy, CheckpointingStrategy):
        raise TypeError(
            f"checkpointing must be None or a CheckpointingStrategy instance, got "
            f"{strategy!r}; e.g. repro.checkpointing.RecomputeAll(), or subclass "
            "CheckpointingStrategy and give it a cache_fingerprint()"
        )
    return strategy


def strategy_fingerprint(strategy) -> tuple:
    """Cache-key identity of a checkpointing strategy: its class and its
    ``cache_fingerprint()``, which covers its configuration."""
    if strategy is None:
        return ("store_all",)
    return (type(strategy).__qualname__, strategy.cache_fingerprint())
