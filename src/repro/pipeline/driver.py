"""The compilation driver: pipeline assembly, caching and the top-level API.

Every way to compile — ``repro.compile``, ``grad`` / ``value_and_grad``,
``Program.compile``, ``vmap(...).compile``, the harness and fuzz runners —
builds one frozen :class:`CompileOptions` from its keywords and hands it to
:func:`compile_request`, the single place that turns knobs into a pipeline,
a pass context and a cache key:

* ``optimize="O1"`` (default) runs the paper's pre-AD cleanup — constant
  branch pruning followed by dead code elimination — before differentiation
  and liveness-driven buffer reuse after it; ``"O0"`` compiles the program
  as written; ``"O2"``
  additionally merges duplicate element-wise maps (global value numbering)
  and fuses producer/consumer maps so intermediate transients are never
  materialised; ``"O3"`` is ``"O2"`` except that a gradient compile on the
  ``numpy`` backend declines a fusion whose value the backward pass would
  recompute (see docs/optimization-levels.md).
* When a gradient is requested, the pipeline appends checkpointing-strategy
  selection, the reverse-mode AD stage and the terminal codegen stage.
* Results are cached in :data:`~repro.pipeline.cache.DEFAULT_CACHE` keyed on
  the SDFG content hash and the pipeline configuration — recompiling an
  unchanged program is a hash plus a dictionary lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.codegen.compiled import resolve_backend
from repro.ir import SDFG
from repro.pipeline.cache import DEFAULT_CACHE, CacheEntry, CompilationCache
from repro.pipeline.manager import PassManager, PipelineReport
from repro.pipeline.pass_base import Pass, PassContext, PipelineError, as_passes
from repro.pipeline.stages import (
    Autodiff,
    Codegen,
    CheckpointingSelection,
    ConstantBranchPruning,
    DeadCodeElimination,
    GlobalValueNumbering,
    MapFusion,
    MemoryPlanning,
    check_strategy,
)

#: The optimization levels.  ``O0`` compiles the program as written;
#: ``O1`` is the paper's pre-AD cleanup; ``O2`` adds duplicate-work
#: elimination — global value numbering, within and across states — and
#: producer/consumer map fusion; ``O3`` runs the same stages, and its
#: ``numpy`` gradient compiles decline the fusions the backward pass would
#: have to recompute (``MapFusion(decline_recompute=True)``).  See
#: docs/optimization-levels.md.
OPT_LEVELS = ("O0", "O1", "O2", "O3")


def _tier_passes(optimize: str, keep: tuple, gradient: bool, backend: str) -> list[Pass]:
    """The simplification stages of one level.  ``keep`` names containers
    later stages need even when they look dead or mergeable (gradient
    targets, result names).  All of them run before AD, so gradients are
    generated from the optimised forward SDFG."""
    if optimize == "O0":
        return []
    passes: list[Pass] = [ConstantBranchPruning(), DeadCodeElimination(keep)]
    if optimize in ("O2", "O3"):
        # A native loop recomputes a fused value in registers; a NumPy
        # backward statement recomputes it one full-array operation at a time.
        decline = optimize == "O3" and gradient and backend == "numpy"
        passes += [GlobalValueNumbering(keep), MapFusion(keep, decline_recompute=decline)]
    return passes


def to_sdfg(program) -> SDFG:
    """Lower any accepted program form (SDFG, ``@repro.program`` object or a
    plain annotated function) to its forward SDFG."""
    if isinstance(program, SDFG):
        return program
    to_sdfg_method = getattr(program, "to_sdfg", None)
    if callable(to_sdfg_method):
        return to_sdfg_method()
    if callable(program):
        from repro.frontend import parse_function

        return parse_function(program)
    raise PipelineError(f"Cannot lower {program!r} to an SDFG")


def build_pipeline(
    optimize: str = "O1",
    *,
    gradient: bool = False,
    checkpointing=None,
    wrt: Optional[Sequence[str]] = None,
    output: Optional[str] = None,
    return_value: bool = False,
    func_name: Optional[str] = None,
    result_names: Optional[list[str]] = None,
    extra_passes: Sequence[Pass] = (),
    backend: Optional[str] = None,
) -> PassManager:
    """Assemble the default pipeline for one compilation request.

    ``extra_passes`` (:class:`Pass` instances) are inserted after
    simplification and before AD/codegen.  ``backend``
    selects the code generator (``None`` / ``"numpy"`` or ``"cython"`` /
    ``"native"``, resolved to its canonical name so every spelling builds
    the same pipeline) — it configures the terminal codegen stage and, in an
    ``"O3"`` gradient compile, whether fusion declines recomputed values
    (``numpy`` only; see docs/backends.md).
    Every tier but ``"O0"`` runs liveness-driven buffer reuse after AD
    (gradient containers protected), immediately before codegen.
    """
    if optimize not in OPT_LEVELS:
        raise PipelineError(
            f"Unknown optimization level {optimize!r}; options: {sorted(OPT_LEVELS)}"
        )
    backend = resolve_backend(backend)
    # Containers downstream stages will need: simplification must not delete
    # them even when they are dead w.r.t. the program's return value.
    keep = tuple(
        name for value in (output, wrt, result_names)
        for name in ([value] if isinstance(value, str) else value or ())
    )
    passes = _tier_passes(optimize, keep, gradient, backend)
    passes.extend(extra_passes)
    if gradient:
        passes.append(CheckpointingSelection(checkpointing))
        passes.append(Autodiff(output=output, inputs=wrt))
    if optimize != "O0":
        passes.append(MemoryPlanning(keep))
    passes.append(
        Codegen(
            func_name=func_name,
            result_names=result_names,
            return_value=return_value,
            backend=backend,
        )
    )
    kind = "grad" if gradient else "forward"
    return PassManager(passes, name=f"{kind}-{optimize}")


@dataclass
class CompileOutcome:
    """Everything one driver invocation produced (or fetched from cache)."""

    compiled: Any
    report: PipelineReport
    artifacts: dict[str, Any] = field(default_factory=dict)
    cache_hit: bool = False
    key: Optional[tuple] = None


def run_pipeline(
    sdfg: SDFG,
    manager: PassManager,
    ctx: Optional[PassContext] = None,
    cache: Union[CompilationCache, bool, None] = None,
) -> CompileOutcome:
    """Run ``manager`` over ``sdfg`` with caching.

    ``cache=None`` or ``cache=True`` uses the process-wide default cache;
    ``cache=False`` disables caching for this call; a
    :class:`CompilationCache` instance uses that instance.  On a hit the
    cached :class:`CompiledSDFG` object itself is returned (no
    recompilation); the returned report is the cached pipeline report flagged
    with ``cache_hit=True``.
    """
    ctx = ctx if ctx is not None else PassContext()
    use_cache: Optional[CompilationCache]
    if cache is None or cache is True:
        use_cache = DEFAULT_CACHE
    elif cache is False:
        use_cache = None
    else:
        use_cache = cache

    key = None
    if use_cache is not None:
        key = (sdfg.content_hash(), manager.fingerprint(), ctx.fingerprint())
        entry = use_cache.lookup(key)
        if entry is not None:
            report = PipelineReport(
                pipeline=entry.report.pipeline,
                records=entry.report.records,
                cache_hit=True,
            )
            # Keep the attribute in sync with the outcome of the *latest*
            # compile call (cold timings, flagged as a hit).
            entry.compiled.pipeline_report = report
            return CompileOutcome(
                compiled=entry.compiled,
                report=report,
                artifacts=dict(entry.artifacts),
                cache_hit=True,
                key=key,
            )

    _, report = manager.run(sdfg, ctx)
    compiled = ctx.artifacts.get("compiled")
    if compiled is None:
        raise PipelineError(
            f"Pipeline {manager.name!r} has no codegen stage; nothing was compiled"
        )
    compiled.pipeline_report = report
    outcome = CompileOutcome(
        compiled=compiled,
        report=report,
        artifacts=dict(ctx.artifacts),
        cache_hit=False,
        key=key,
    )
    if use_cache is not None:
        # Copy so caller mutations of outcome.artifacts cannot corrupt the entry.
        use_cache.store(
            CacheEntry(
                key=key, compiled=compiled, report=report,
                artifacts=dict(outcome.artifacts),
            )
        )
    return outcome


#: Fields that only make sense when a gradient is compiled.
_GRADIENT_ONLY = ("wrt", "output", "checkpointing", "return_value")

#: Field metadata of the two knobs that are deliberately *not* in the cache
#: key: ``cache`` picks where to look, ``profile`` wraps the result after the
#: lookup.  Every other field must change the key (tests/test_compile_options.py).
_NOT_IN_KEY = {"cache_key": False}


def _symbol_value(name: str, value):
    """A compile-time symbol binding as a plain int, float or bool (NumPy
    scalars are unwrapped); anything else raises ``TypeError``."""
    if isinstance(value, np.generic):
        value = value.item()
    if not isinstance(value, (int, float, bool)):
        raise TypeError(
            f"symbol_values[{name!r}] must be an int, float or bool, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class CompileOptions:
    """The knobs of one compilation request — the single definition every
    entry point (``repro.compile``, ``grad``, ``Program.compile``, ...)
    builds from its keywords.  The field table (default, effect, "in cache
    key?") is in docs/architecture.md.

    Construction normalises (``backend`` becomes its canonical name,
    ``wrt`` / ``result_names`` become tuples, ``symbol_values`` a sorted
    item tuple of plain numbers), so instances are hashable, comparable and
    ``dataclasses.replace``-able, and every spelling of one request has one
    cache key.  It also rejects what cannot be keyed: an unknown backend
    (``CodegenError``), a ``checkpointing`` that is not a strategy instance
    and a symbol value that is not an int, float or bool (``TypeError``).
    :meth:`from_keywords` rejects unknown keywords.
    """

    optimize: str = "O1"
    backend: Optional[str] = None
    checkpointing: Any = None
    wrt: Union[str, Sequence[str], None] = None
    output: Optional[str] = None
    return_value: bool = False
    symbol_values: Union[Mapping[str, object], tuple] = ()
    extra_passes: Sequence[Pass] = ()
    func_name: Optional[str] = None
    result_names: Optional[Sequence[str]] = None
    profile: bool = field(default=False, metadata=_NOT_IN_KEY)
    cache: Union[CompilationCache, bool, None] = field(default=None, metadata=_NOT_IN_KEY)

    def __post_init__(self) -> None:
        def names(value):
            if value is None:
                return None
            return (value,) if isinstance(value, str) else tuple(value)

        symbols = {
            name: _symbol_value(name, value)
            for name, value in dict(self.symbol_values or ()).items()
        }
        check_strategy(self.checkpointing)
        for name, value in (
            ("backend", resolve_backend(self.backend)),
            ("wrt", names(self.wrt)),
            ("result_names", names(self.result_names)),
            ("symbol_values", tuple(sorted(symbols.items()))),
            ("extra_passes", as_passes(self.extra_passes or ())),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def from_keywords(
        cls, keywords: Mapping[str, Any], aliases: Mapping[str, str] = {}
    ) -> "CompileOptions":
        """Build options from an entry point's ``**keywords``.  ``aliases``
        maps accepted alternative spellings to field names; any other
        unknown keyword raises a ``TypeError`` listing the valid ones."""
        keywords = dict(keywords)
        for alias, name in aliases.items():
            if alias in keywords:
                if name in keywords:
                    raise TypeError(f"pass {name}= or its alias {alias}=, not both")
                keywords[name] = keywords.pop(alias)
        valid = [f.name for f in fields(cls)]
        unknown = sorted(set(keywords) - set(valid))
        if unknown:
            raise TypeError(
                f"unexpected compile option(s) {', '.join(unknown)}; "
                f"valid: {', '.join(valid + sorted(aliases))}"
            )
        return cls(**keywords)

    @property
    def wants_gradient(self) -> bool:
        """True when any gradient-only field is set."""
        return any(getattr(self, name) not in (None, False) for name in _GRADIENT_ONLY)


def compile_request(program, options: CompileOptions, gradient: bool) -> CompileOutcome:
    """Compile ``program`` as ``options`` say — forward code, or with
    ``gradient`` the forward+backward program, whose outcome carries the
    :class:`BackwardPassResult` under ``artifacts["backward"]``.

    Every entry point ends here; it is the only place that turns knobs into
    a configured ``(PassManager, PassContext)`` pair, hence into the cache
    key ``(content hash, manager fingerprint, context fingerprint)``.
    ``options.profile`` wraps ``outcome.compiled`` in a
    :class:`~repro.obs.ProfiledCompiledSDFG` *after* the cache lookup, so
    neither the key nor the cached object depends on it.
    """
    if not gradient and options.wants_gradient:
        raise PipelineError(
            "a forward compile contradicts the gradient options "
            f"{'/'.join(_GRADIENT_ONLY)}; drop them or request a gradient"
        )
    wrt = list(options.wrt) if options.wrt is not None else None
    result_names = list(options.result_names) if options.result_names is not None else None
    manager = build_pipeline(
        options.optimize,
        gradient=gradient,
        checkpointing=options.checkpointing,
        wrt=wrt,
        output=options.output,
        return_value=options.return_value,
        func_name=options.func_name,
        result_names=result_names,
        extra_passes=options.extra_passes,
        backend=options.backend,
    )
    ctx = PassContext(
        symbol_values=dict(options.symbol_values),
        options=(
            {"wrt": wrt, "output": options.output, "return_value": options.return_value}
            if gradient
            else {"result_names": result_names}
        ),
    )
    outcome = run_pipeline(to_sdfg(program), manager, ctx, cache=options.cache)
    if outcome.cache_hit and hasattr(options.checkpointing, "last_report"):
        # The cached compile skipped strategy.decide(); replay the stored
        # diagnostic so strategy.last_report behaves as on a cold compile.
        report = outcome.artifacts.get("checkpoint_report")
        if report is not None:
            options.checkpointing.last_report = report
    if options.profile:
        from repro.obs.profile import profile_compiled

        outcome.compiled = profile_compiled(outcome.compiled)
    return outcome


def compile_forward(program, optimize: str = "O1", **options) -> CompileOutcome:
    """Compile the forward program through the pipeline (cached).
    ``options`` are :class:`CompileOptions` fields (docs/architecture.md)."""
    request = CompileOptions.from_keywords({"optimize": optimize, **options})
    return compile_request(program, request, gradient=False)


def compile_memoized(holder, optimize: str, options: Mapping[str, Any]):
    """``Program.compile`` / ``BatchedProgram.compile``: forward-compile
    ``holder.to_sdfg()`` and remember the request on the holder, so a repeat
    with equal options (the cache included) skips even the cache lookup."""
    request = CompileOptions.from_keywords({"optimize": optimize, **options})
    if holder._compiled is None or holder._compiled_options != request:
        holder._compiled = compile_request(holder.to_sdfg(), request, gradient=False).compiled
        holder._compiled_options = request
    return holder._compiled


def compile_gradient(program, **options) -> CompileOutcome:
    """Compile the forward+backward program through the pipeline (cached).
    ``options`` are :class:`CompileOptions` fields (docs/architecture.md)."""
    return compile_request(program, CompileOptions.from_keywords(options), gradient=True)


def compile(  # noqa: A001 - deliberate: mirrors ``repro.compile``
    program, optimize: str = "O1", *, gradient: Optional[bool] = None, **options
):
    """Top-level compilation entry point (re-exported as ``repro.compile``).

    ``options`` are :class:`CompileOptions` fields (docs/architecture.md).
    Without gradient options this returns a :class:`CompiledSDFG` computing
    the forward program.  With ``gradient=True`` — or any of the gradient
    options ``wrt``, ``output``, ``checkpointing`` or ``return_value`` — it
    returns a :class:`~repro.autodiff.GradientFunction`.  Both paths share
    the compilation cache: a second call on an unchanged program with the
    same configuration returns the previously compiled object.
    """
    request = CompileOptions.from_keywords({"optimize": optimize, **options})
    if gradient or (gradient is None and request.wants_gradient):
        from repro.autodiff.api import GradientFunction

        return GradientFunction(program, request)
    return compile_request(program, request, gradient=False).compiled
