"""User-facing AD API: ``grad`` and ``value_and_grad``.

Mirrors the ergonomics of JAX's ``jax.grad`` while requiring **no code
changes** to the NumPy program being differentiated (the paper's headline
usability property): the function is parsed, differentiated at the IR level
and compiled to NumPy code that computes the gradients.

Both entry points are thin wrappers over
:func:`repro.pipeline.compile_request`: simplification (at ``optimize="O1"``,
the default), checkpointing selection, reversal and codegen run as pipeline
stages, the per-stage timings land on ``GradientFunction.report`` and repeated
calls on an unchanged program hit the compilation cache.
"""

from __future__ import annotations

from typing import Optional

from repro.autodiff.engine import BackwardPassResult
from repro.ir import SDFG
from repro.pipeline.driver import CompileOptions, compile_request, to_sdfg

#: ``strategy=`` is the AD API's historical spelling of ``checkpointing=``.
_ALIASES = {"strategy": "checkpointing"}


class GradientFunction:
    """A compiled gradient function.

    Built from :class:`~repro.pipeline.CompileOptions` keywords (``wrt=``,
    ``optimize=``, ``backend=``, ... — table in docs/architecture.md;
    ``strategy=`` is an alias of ``checkpointing=``) or from one ready-made
    options object.  Calling it
    runs the augmented forward+backward program and returns the gradients
    with respect to ``wrt`` (a single array if one input was requested,
    otherwise a dict keyed by input name).  With ``return_value=True`` the
    forward output value is returned as well.

    The compilation itself runs through the pass pipeline; ``.report`` holds
    the per-stage timings (``print(df.report.pretty())``) and ``.cache_hit``
    says whether this instance reused a previously compiled program.
    """

    def __init__(self, func_or_program, options: Optional[CompileOptions] = None,
                 **keywords) -> None:
        if options is None:
            options = CompileOptions.from_keywords(keywords, _ALIASES)
        elif keywords or not isinstance(options, CompileOptions):
            raise TypeError("compile options are keywords (wrt=..., ...) or one CompileOptions")
        self.forward_sdfg = to_sdfg(func_or_program)
        #: The full compilation request, so transforms that recompile this
        #: gradient under a modified pipeline — ``repro.vmap(grad(f))``
        #: inserts its batching pass pre-AD — reproduce it exactly.
        self.options = options
        outcome = compile_request(self.forward_sdfg, options, gradient=True)
        self.result: BackwardPassResult = outcome.artifacts["backward"]
        self.wrt = list(self.result.gradient_names)
        self.return_value = options.return_value
        self.compiled = outcome.compiled
        self.report = outcome.report
        self.cache_hit = outcome.cache_hit
        #: Result selection, fixed at compile time: these keys pick the
        #: gradients out of the compiled program's result dict, unless its
        #: lone result is the lone gradient (then it returns no dict).
        self._gradient_keys = tuple(self.result.gradient_names[name] for name in self.wrt)
        self._lone_result = len(self.compiled.result_names) == 1

    # -- introspection ---------------------------------------------------------
    @property
    def backward_sdfg(self) -> SDFG:
        return self.result.sdfg

    @property
    def source(self) -> str:
        """Generated Python source of the forward+backward program."""
        return self.compiled.source

    # -- execution ----------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        raw = self.compiled(*args, **kwargs)
        if self._lone_result:
            return raw
        keys = self._gradient_keys
        if len(keys) == 1:
            grads = raw[keys[0]]
        else:
            grads = {name: raw[key] for name, key in zip(self.wrt, keys)}
        if self.return_value:
            return raw[self.result.output], grads
        return grads

    def __repr__(self) -> str:
        return f"GradientFunction({self.result.sdfg.name!r}, wrt={self.wrt})"


def grad(func_or_program, **options) -> GradientFunction:
    """Reverse-mode gradient of a scalar-output program; ``options`` as for
    :class:`GradientFunction`.

    Examples
    --------
    >>> N = repro.symbol('N')
    >>> @repro.program
    ... def f(A: repro.float64[N]):
    ...     return np.sum(np.sin(A))
    >>> df = repro.grad(f, wrt='A')
    >>> df(np.ones(4))            # doctest: +SKIP
    array([0.54, 0.54, 0.54, 0.54])
    """
    return GradientFunction(func_or_program, **options)


def value_and_grad(func_or_program, **options) -> GradientFunction:
    """Like :func:`grad` but also returns the forward value."""
    return GradientFunction(func_or_program, **{**options, "return_value": True})
