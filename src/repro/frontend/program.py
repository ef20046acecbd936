"""The ``@program`` decorator and :class:`Program` wrapper.

A :class:`Program` lazily parses the decorated function into an SDFG, compiles
it to executable NumPy code on first call and caches the result.  The AD API
(:func:`repro.autodiff.grad` and friends) accepts either a :class:`Program`
or a plain annotated function.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from typing import Callable, Optional

from repro.frontend.parser import ProgramParser
from repro.ir import SDFG
from repro.util.errors import FrontendError


def parse_function(func: Callable, name: Optional[str] = None) -> SDFG:
    """Parse an annotated Python function into an SDFG (no compilation)."""
    source = textwrap.dedent(inspect.getsource(func))
    tree = ast.parse(source)
    func_defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    if not func_defs:
        raise FrontendError(f"Could not find a function definition in the source of {func!r}")
    func_ast = func_defs[0]
    # Strip decorator list so re-parsing the unwrapped function is stable.
    func_ast.decorator_list = []

    try:
        # Resolves PEP 563 string annotations (modules using
        # ``from __future__ import annotations``) against the function's globals.
        annotations = dict(inspect.get_annotations(func, eval_str=True))
    except (NameError, AttributeError):
        annotations = dict(getattr(func, "__annotations__", {}))
    annotations.pop("return", None)
    signature = inspect.signature(func)
    arg_specs = {}
    for param_name in signature.parameters:
        if param_name not in annotations:
            raise FrontendError(
                f"Parameter {param_name!r} of {func.__name__} has no repro type annotation"
            )
        arg_specs[param_name] = annotations[param_name]

    parser = ProgramParser(name or func.__name__, arg_specs)
    sdfg = parser.parse_function(func_ast)
    if parser.return_name is not None:
        # Remember which container carries the return value.
        sdfg.return_name = parser.return_name  # type: ignore[attr-defined]
    else:
        sdfg.return_name = None  # type: ignore[attr-defined]
    return sdfg


class Program:
    """A parsed, compilable program (the result of ``@repro.program``)."""

    def __init__(self, func: Callable, name: Optional[str] = None) -> None:
        functools.update_wrapper(self, func)
        self.func = func
        self.name = name or func.__name__
        self._sdfg: Optional[SDFG] = None
        self._compiled = None
        self._compiled_options = None

    # -- compilation pipeline ------------------------------------------------
    def to_sdfg(self) -> SDFG:
        """Parse (once) and return the forward SDFG.

        The SDFG is memoised and shared: every later ``to_sdfg()`` and every
        compile of this program starts from this same object.  The compile
        path transforms a copy (``PassManager.run``), but a raw pass that
        rewrites its argument in place (fusion, GVN, ``apply_memory_plan``)
        must be given ``to_sdfg().copy()``."""
        if self._sdfg is None:
            self._sdfg = parse_function(self.func, self.name)
        return self._sdfg

    @property
    def sdfg(self) -> SDFG:
        return self.to_sdfg()

    def compile(self, optimize: str = "O1", **options):
        """Compile executable forward code through the pass pipeline.

        ``options`` are :class:`~repro.pipeline.CompileOptions` fields
        (``backend=``, ``profile=``, ``cache=``, ... — table in
        docs/architecture.md).  The result is memoised per instance on the
        options *and* in the compilation cache, so distinct :class:`Program`
        objects wrapping the same source share one compiled artifact.
        """
        from repro.pipeline.driver import compile_memoized

        return compile_memoized(self, optimize, options)

    # -- batching --------------------------------------------------------------
    def vmap(self, in_axes=0, batch_symbol=None):
        """Batched version of this program (leading-axis vectorisation).

        Equivalent to ``repro.vmap(self, in_axes=...)``: returns a
        :class:`~repro.batching.BatchedProgram` whose compiled kernel
        processes a whole stack of samples per call, the batch size inferred
        from the arguments' leading dimension.  ``in_axes`` selects which
        arguments are batched (``0`` = all; a ``{name: 0 | None}`` mapping
        or a per-argument sequence broadcasts the ``None`` entries).
        """
        from repro.batching import vmap as _vmap

        return _vmap(self, in_axes=in_axes, batch_symbol=batch_symbol)

    # -- execution -------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        # Reuse whatever level was last compiled (an explicit compile(optimize=
        # "O0") must not be silently recompiled at the default level).
        compiled = self._compiled if self._compiled is not None else self.compile()
        return compiled(*args, **kwargs)

    def __repr__(self) -> str:
        return f"Program({self.name!r})"


def program(func: Optional[Callable] = None, *, name: Optional[str] = None):
    """Decorator turning an annotated NumPy function into a :class:`Program`.

    Usage::

        N = repro.symbol('N')

        @repro.program
        def scale(A: repro.float64[N], alpha: repro.float64):
            A[:] = alpha * A
            return np.sum(A)
    """
    if func is None:
        return lambda f: Program(f, name=name)
    return Program(func, name=name)
