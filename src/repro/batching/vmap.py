"""User-facing ``repro.vmap`` and the ``"vmap"`` pipeline pass.

Two ways to batch a program, both backed by the same IR transform
(:func:`repro.batching.transform.batch_sdfg`):

* :func:`vmap` — the JAX-style entry point.  ``vmap(f)`` returns a
  :class:`BatchedProgram` whose SDFG is the rank-extended program; it
  compiles through the ordinary pipeline (any ``optimize`` tier, cached) and
  is differentiable, so ``repro.grad(repro.vmap(f))`` just works.
  ``vmap(repro.grad(f))`` is also supported: the gradient function is
  recompiled with the batching pass inserted *before* the AD stage, which
  for per-sample-independent programs is the same function.
* :class:`Vmap` — the transform as a :class:`~repro.pipeline.Pass`, for
  explicit pipelines::

      repro.compile(prog, extra_passes=[Vmap(in_axes=0)], wrt="x")

Because the batch size is a *symbolic* dimension inferred from argument
shapes at call time, one compilation (one cache entry) serves every batch
size — the property the micro-batching runtime
(:mod:`repro.serve`) builds on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.batching.transform import BatchInfo, InAxes, batch_sdfg
from repro.ir import SDFG
from repro.pipeline.cache import stable_repr
from repro.pipeline.pass_base import Pass, PassContext


class Vmap(Pass):
    """Pipeline pass applying the batching transform (pre-AD).

    Inserted via ``extra_passes`` it runs after simplification and before
    the AD/codegen stages, so gradient compiles differentiate the *batched*
    forward SDFG.  The fingerprint covers ``in_axes`` and the batch-symbol
    override, keeping batched and unbatched compilations (and different
    axis specs) distinct in the compilation cache.
    """

    name = "vmap"

    def __init__(self, in_axes: InAxes = 0, batch_symbol: Optional[str] = None) -> None:
        try:
            self._axes_key = stable_repr(in_axes)
        except TypeError:
            raise TypeError(
                "in_axes must be 0, a {name: 0 | None} mapping or a sequence of "
                f"0 / None, got {in_axes!r}"
            ) from None
        self.in_axes = in_axes
        self.batch_symbol = batch_symbol

    def apply(self, sdfg: SDFG, ctx: PassContext) -> SDFG:
        info = batch_sdfg(sdfg, in_axes=self.in_axes, batch_symbol=self.batch_symbol)
        ctx.artifacts["batch_info"] = info
        ctx.note("batch_symbol", info.batch_symbol)
        ctx.note("containers_batched", len(info.batched))
        return info.sdfg

    def fingerprint(self) -> tuple:
        return (self.name, self._axes_key, self.batch_symbol)


class BatchedProgram:
    """A program rank-extended by a leading batch dimension.

    Produced by :func:`vmap`; behaves like a :class:`~repro.frontend.Program`
    — it has ``to_sdfg()`` (the *batched* SDFG), ``compile(optimize=...)``
    and is callable with stacked arguments, the batch size inferred from
    their leading dimension.  Pass it to :func:`repro.grad` for batched
    gradients.
    """

    def __init__(self, program, in_axes: InAxes = 0,
                 batch_symbol: Optional[str] = None) -> None:
        self.program = program
        self.in_axes = in_axes
        self.batch_symbol = batch_symbol
        self.name = f"{getattr(program, 'name', getattr(program, '__name__', 'program'))}_vmap"
        self._info: Optional[BatchInfo] = None
        self._compiled = None
        self._compiled_options = None

    # -- lowering --------------------------------------------------------
    @property
    def info(self) -> BatchInfo:
        """The transform's :class:`BatchInfo` (lowered and batched once)."""
        if self._info is None:
            from repro.pipeline.driver import to_sdfg

            self._info = batch_sdfg(
                to_sdfg(self.program), in_axes=self.in_axes,
                batch_symbol=self.batch_symbol,
            )
        return self._info

    def to_sdfg(self) -> SDFG:
        """The batched forward SDFG (an ordinary SDFG: every optimization
        tier, AD and the compilation cache apply unchanged)."""
        return self.info.sdfg

    # -- execution -------------------------------------------------------
    def compile(self, optimize: str = "O1", **options):
        """Compile batched forward code through the pipeline (cached);
        ``options`` are :class:`~repro.pipeline.CompileOptions` fields
        (docs/architecture.md) and the result is memoised on them."""
        from repro.pipeline.driver import compile_memoized

        return compile_memoized(self, optimize, options)

    def __call__(self, *args, **kwargs):
        compiled = self._compiled if self._compiled is not None else self.compile()
        return compiled(*args, **kwargs)

    def __repr__(self) -> str:
        return f"BatchedProgram({self.name!r}, in_axes={self.in_axes!r})"


def vmap(program, in_axes: InAxes = 0, batch_symbol: Optional[str] = None):
    """Vectorise ``program`` over a leading batch dimension (SDFG-level).

    ``program`` may be a ``@repro.program``, a plain annotated function, an
    SDFG, or a compiled :class:`~repro.autodiff.GradientFunction`:

    * programs/functions/SDFGs → a :class:`BatchedProgram`;
    * gradient functions → a new :class:`~repro.autodiff.GradientFunction`
      computing per-sample gradients (``vmap(grad(f))``).

    ``in_axes`` selects which arguments are batched: ``0`` (default, all),
    a ``{name: 0 | None}`` mapping, or a sequence over the array arguments
    in signature order; ``None`` entries broadcast one shared value across
    the batch.

    Examples
    --------
    >>> bf = repro.vmap(f)                     # batched forward
    >>> bf(np.stack([x0, x1]))                 # doctest: +SKIP
    >>> repro.grad(repro.vmap(f), wrt='x')     # per-sample gradients
    >>> repro.vmap(repro.grad(f, wrt='x'))     # same function
    """
    from repro.autodiff.api import GradientFunction

    if isinstance(program, GradientFunction):
        batching = Vmap(in_axes=in_axes, batch_symbol=batch_symbol)
        return GradientFunction(
            program.forward_sdfg,
            replace(program.options, extra_passes=program.options.extra_passes + (batching,)),
        )
    return BatchedProgram(program, in_axes=in_axes, batch_symbol=batch_symbol)
