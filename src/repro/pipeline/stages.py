"""Built-in pipeline stages.

Every existing compilation step is wrapped as a :class:`Pass` so the whole
frontend-to-binary flow is one ordered pipeline:

* :class:`ConstantBranchPruning` / :class:`DeadCodeElimination` — the paper's
  pre-AD cleanup (Section IV-B), default at ``optimize="O1"``;
* :class:`GlobalValueNumbering` / :class:`MapFusion` — the ``"O2"`` tier:
  duplicate-map merging (within and across states, over the global program
  order of :func:`repro.ir.usage.collect_uses`) and producer/consumer map
  fusion, run before AD so
  both the forward and the generated backward pass benefit;
* :class:`MemoryPlanning` — liveness-driven buffer reuse for transients,
  run *after* AD (gradient containers protected) and just before codegen,
  at every tier but O0;
* :class:`CheckpointingSelection` — resolves the user's checkpointing spec
  (strategy instance or name) into the strategy the AD stage consumes;
* :class:`Autodiff` — reverse-mode differentiation
  (:func:`repro.autodiff.add_backward_pass`);
* :class:`Codegen` — the terminal stage, emitting and compiling NumPy code
  via :func:`repro.codegen.compile_sdfg`.

Heavy imports happen inside ``apply`` to keep the package import-cycle free
(``autodiff`` itself imports the pipeline driver for its public API).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir import SDFG
from repro.pipeline.cache import stable_repr, unique_token
from repro.pipeline.pass_base import Pass, PassContext, PipelineError, register_pass


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
    later stage differentiates or returns.

    With ``cost_driven=True`` (the ``"O3"`` tier) every candidate is priced
    by the static cost model (:mod:`repro.passes.cost`, knobs in
    ``cost_config``): reads at several distinct stencil offsets may fuse
    when the recompute-vs-traffic trade-off pays, and ``gradient_aware=True``
    declines fusions that would force the backward pass to recompute stored
    values.  Decision counts land in the pipeline report
    (``fused_stencil``, ``declined_gradient``, ...).

    ``backend`` calibrates the pricing: without an explicit ``cost_config``
    the knobs come from ``CostModelConfig.for_backend(backend)`` — native
    loops keep recomputed values in registers, so recompute is priced far
    cheaper than under the interpreted NumPy backend (see docs/cost-model.md).
    """

    name = "map-fusion"

    def __init__(
        self,
        extra_keep: Sequence[str] = (),
        cost_driven: bool = False,
        gradient_aware: bool = False,
        cost_config=None,
        backend: Optional[str] = None,
    ) -> None:
        self.extra_keep = tuple(extra_keep)
        self.cost_driven = cost_driven
        self.gradient_aware = gradient_aware
        self.cost_config = cost_config
        self.backend = backend

    def _resolved_config(self):
        from repro.passes.cost import CostModelConfig

        if self.cost_config is not None:
            return self.cost_config
        return CostModelConfig.for_backend(self.backend)

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        from repro.passes.cost import CostModel, summarize_decisions
        from repro.passes.fusion import fuse_elementwise_maps

        protect = {name for name in self.extra_keep if name in sdfg.arrays}
        model = None
        if self.cost_driven:
            model = CostModel(
                sdfg,
                symbol_values=ctx.symbol_values,
                config=self._resolved_config(),
            )
        fused = fuse_elementwise_maps(
            sdfg, protect=protect, cost_model=model,
            gradient_aware=self.gradient_aware,
        )
        ctx.note("maps_fused", fused)
        ctx.note("transients_eliminated", fused)
        if model is not None:
            for key, value in summarize_decisions(model.decisions).items():
                ctx.note(key, value)
        return sdfg

    def fingerprint(self) -> tuple:
        fp: tuple = (self.name, self.extra_keep)
        if self.cost_driven:
            fp += (
                "cost-driven",
                self.gradient_aware,
                self._resolved_config().fingerprint(),
            )
        return fp


class Validate(Pass):
    """Structural validation (cheap sanity net between transformations)."""

    name = "validate"

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        sdfg.validate()
        return sdfg


class CheckpointingSelection(Pass):
    """Resolve the checkpointing spec into a strategy on the context.

    Accepts a :class:`~repro.checkpointing.CheckpointingStrategy` instance,
    one of the names ``"store_all"`` / ``"recompute_all"``, or ``None`` (the
    store-all default).
    """

    name = "checkpointing-selection"

    def __init__(self, spec=None) -> None:
        self.spec = spec

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        ctx.strategy = _resolve_strategy(self.spec)
        ctx.note(
            "strategy",
            type(ctx.strategy).__name__ if ctx.strategy is not None else "store_all",
        )
        return sdfg

    def fingerprint(self) -> tuple:
        return (self.name, strategy_fingerprint(self.spec))


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

    ``backend`` names a registered code generator (``None`` = the numpy
    default; see :mod:`repro.codegen.backend`).  A non-default backend that
    *declines* the program — :class:`UnsupportedFeatureError` from its
    emitter, or a missing C toolchain — triggers a clean per-program
    fallback to the numpy backend; the report records both the backend that
    actually ran (``backend``) and the fallback event (``backend_fallback``,
    e.g. ``cython→numpy: UnsupportedFeatureError(...)``).  The backend name
    is part of the pass fingerprint, so the same program compiled under two
    backends occupies two distinct compilation-cache entries.
    """

    name = "codegen"

    def __init__(
        self,
        func_name: Optional[str] = None,
        result_names: Optional[list[str]] = None,
        return_value: bool = False,
        backend: Optional[str] = None,
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
        with _span("codegen.build", sdfg=sdfg.name,
                   backend=self.backend or "numpy") as sp:
            compiled = self._compile(sdfg, ctx, func_name, result_names)
            sp.set(ran_backend=compiled.backend)
        ctx.artifacts["compiled"] = compiled
        ctx.note("backend", compiled.backend)
        ctx.note("source_lines", compiled.source.count("\n") + 1)
        return sdfg

    def _compile(self, sdfg: SDFG, ctx: PassContext, func_name, result_names):
        from repro.codegen import compile_sdfg
        from repro.util.errors import UnsupportedFeatureError

        if self.backend in (None, "numpy"):
            return compile_sdfg(
                sdfg, func_name=func_name, result_names=result_names,
                backend=self.backend,
            )
        from repro.codegen.cython_backend.build import NativeToolchainError

        try:
            return compile_sdfg(
                sdfg, func_name=func_name, result_names=result_names,
                backend=self.backend,
            )
        except (UnsupportedFeatureError, NativeToolchainError) as exc:
            message = str(exc)
            if len(message) > 200:
                message = message[:200] + "..."
            ctx.note(
                "backend_fallback",
                f"{self.backend}→numpy: {type(exc).__name__}({message})",
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


def _resolve_strategy(spec):
    """Spec -> strategy instance (``None`` means the store-all default)."""
    if spec is None:
        return None
    if isinstance(spec, str):
        from repro.checkpointing import RecomputeAll, StoreAll

        named = {"store_all": StoreAll, "recompute_all": RecomputeAll}
        if spec not in named:
            raise PipelineError(
                f"Unknown checkpointing strategy {spec!r}; options: {sorted(named)} "
                "or a CheckpointingStrategy instance"
            )
        return named[spec]()
    if hasattr(spec, "decide"):
        return spec
    raise PipelineError(f"Cannot use {spec!r} as a checkpointing strategy")


def strategy_fingerprint(spec) -> tuple:
    """Cache-key identity of a checkpointing spec.

    Strategies define ``cache_fingerprint()`` covering their configuration
    (the :class:`CheckpointingStrategy` hierarchy does).  For foreign objects
    without one, attributes are fingerprinted via :func:`stable_repr`; any
    attribute lacking a stable representation gets a process-unique token,
    forcing a cache miss rather than risking a false hit between two
    configurations the fingerprint cannot distinguish.
    """
    if spec is None:
        return ("store_all",)
    if isinstance(spec, str):
        return (spec,)
    custom = getattr(spec, "cache_fingerprint", None)
    if callable(custom):
        return (type(spec).__qualname__, custom())
    attrs = tuple(
        (key, stable_repr(value) or unique_token())
        for key, value in sorted(vars(spec).items())
    )
    return (type(spec).__qualname__, attrs)


def register_builtin_passes() -> None:
    """Populate the global registry with every built-in stage, so pipelines
    can be assembled by name (``PassManager(["map-fusion", "codegen"])``)."""
    for cls in (
        ConstantBranchPruning,
        DeadCodeElimination,
        GlobalValueNumbering,
        MemoryPlanning,
        MapFusion,
        Validate,
        CheckpointingSelection,
        Autodiff,
        Codegen,
    ):
        register_pass(cls.name, cls)


register_builtin_passes()
