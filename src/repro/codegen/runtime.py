"""Runtime support for generated code: argument binding and the namespace in
which generated functions execute."""

from __future__ import annotations

import weakref
from typing import Mapping, Optional

import numpy as np
from scipy.special import erf as _scipy_erf

from repro.ir import SDFG
from repro.symbolic import Expr, Sym, evaluate
from repro.util.errors import CodegenError


def _relu(x):
    return np.maximum(x, 0)


def build_runtime_namespace() -> dict:
    """Globals available to generated code."""
    from repro.ml import ops as ml_ops

    return {
        "np": np,
        "__relu": _relu,
        "__erf": _scipy_erf,
        "__softmax": ml_ops.softmax,
        "__softmax_backward": ml_ops.softmax_backward,
        "__conv2d": ml_ops.conv2d,
        "__conv2d_backward_input": ml_ops.conv2d_backward_input,
        "__conv2d_backward_weights": ml_ops.conv2d_backward_weights,
        "__conv2d_backward_bias": ml_ops.conv2d_backward_bias,
        "__maxpool2d": ml_ops.maxpool2d,
        "__maxpool2d_backward": ml_ops.maxpool2d_backward,
    }


def load_driver(source: str, func_name: str, namespace: dict, label: str):
    """Compile and ``exec`` a generated driver in ``namespace`` and return its
    entry function — the one place generated source becomes code (fresh
    compiles, unpickling and profiling clones of both backends)."""
    try:
        code = compile(source, filename=f"<repro:{label}>", mode="exec")
        exec(code, namespace)
    except SyntaxError as exc:  # pragma: no cover - indicates an emitter bug
        raise CodegenError(f"Generated code for {label} is invalid:\n{source}") from exc
    return namespace[func_name]


class BindingPlan:
    """What binding a call needs of a finished SDFG, derived once.

    Built from the SDFG alone and never written to afterwards, so one plan
    serves concurrent calls of the same compiled program.
    """

    __slots__ = ("name", "slots", "symbols", "shapes", "externals", "array_names",
                 "needed")

    def __init__(self, sdfg: SDFG) -> None:
        self.name = sdfg.name
        #: Names that positional arguments fill, in order.
        self.slots = tuple(sdfg.arg_names)
        needed = set(sdfg.symbols) | sdfg.free_symbols()
        #: Symbols that must have a value once binding is done.
        self.needed = tuple(sorted(needed))
        #: Names a call may bind to an integer.
        self.symbols = frozenset(sdfg.symbols) | needed
        #: Shape inference, container -> (ndim, ((dim_index, symbol), ...)).
        self.shapes: dict[str, tuple] = {}
        #: Caller-provided containers, ``(name, dtype, dims)`` in SDFG order;
        #: a dim is an ``int``, a symbol name or ``(expr, its free symbols)``.
        externals = []
        for name, desc in sdfg.arrays.items():
            if desc.transient:
                continue
            dims = []
            for dim in desc.shape:
                free = dim.free_symbols() if isinstance(dim, Expr) else ()
                if isinstance(dim, Sym):
                    dims.append(dim.name)
                elif free:
                    dims.append((dim, frozenset(free)))
                else:
                    dims.append(int(evaluate(dim)))
            self.shapes[name] = (desc.ndim, tuple(
                (index, dim) for index, dim in enumerate(dims) if isinstance(dim, str)
            ))
            externals.append((name, desc.dtype, tuple(dims)))
        self.externals = tuple(externals)
        self.array_names = tuple(name for name, _, _ in externals)

    def bind(self, args: tuple, kwargs: Mapping[str, object]) -> dict:
        """Container and symbol values of one call, containers first."""
        if len(args) > len(self.slots):
            raise CodegenError(
                f"{self.name} takes {len(self.slots)} arguments, got {len(args)}"
            )
        bound = dict(zip(self.slots, args))
        shapes, symbols = self.shapes, self.symbols
        for name, value in kwargs.items():
            if name in bound:
                raise CodegenError(f"Argument {name!r} passed both positionally and by keyword")
            if name not in shapes and name not in symbols:
                raise CodegenError(
                    f"{self.name} got an unexpected keyword argument {name!r}; it takes "
                    f"arguments {list(self.array_names)} and symbols {sorted(symbols)}"
                )
            bound[name] = value

        # Symbols passed explicitly win over what shapes imply.
        values: dict[str, int] = {}
        for name, value in bound.items():
            if name in symbols:
                number = int(value)
                if number != value:
                    raise CodegenError(f"Symbol {name!r} takes an integer, got {value!r}")
                values[name] = number
        for name, value in bound.items():
            if name not in shapes:
                continue
            ndim, inferred = shapes[name]
            if not isinstance(value, np.ndarray):
                value = bound[name] = np.asarray(value)
            if value.ndim != ndim:
                raise CodegenError(
                    f"Argument {name!r} has {value.ndim} dimensions, expected {ndim}"
                )
            for index, symbol in inferred:
                if symbol not in values:
                    values[symbol] = value.shape[index]

        resolved: dict[str, object] = {}
        for name, dtype, dims in self.externals:
            if name not in bound:
                raise CodegenError(f"Missing argument {name!r} for {self.name}")
            value = bound[name]
            if value.dtype != dtype:
                # A copy: in-place updates by the program stay in it.
                if not np.can_cast(value.dtype, dtype, "same_kind"):
                    raise CodegenError(
                        f"Argument {name!r} has dtype {value.dtype}, which does not "
                        f"convert to {dtype} without loss"
                    )
                value = np.asarray(value, dtype=dtype)
            resolved[name] = value
            # Shape consistency check (where fully concrete).
            expected = []
            for dim in dims:
                if isinstance(dim, tuple):
                    if not dim[1] <= values.keys():
                        break
                    dim = int(evaluate(dim[0], values))
                elif isinstance(dim, str):
                    if dim not in values:
                        break
                    dim = values[dim]
                expected.append(dim)
            else:
                if tuple(expected) != value.shape:
                    raise CodegenError(
                        f"Argument {name!r} has shape {value.shape}, expected {tuple(expected)}"
                    )

        missing = [name for name in self.needed if name not in values]
        if missing:
            raise CodegenError(
                f"Could not determine values for symbols {missing}; pass them as keyword arguments"
            )
        resolved.update(values)
        return resolved


#: Plans of the SDFGs a compiled object owns, built on the first bind.  Only
#: those are kept: any other SDFG may still change, and gets a fresh plan.
_PLANS: "weakref.WeakKeyDictionary[SDFG, Optional[BindingPlan]]" = weakref.WeakKeyDictionary()


def keep_binding_plan(sdfg: SDFG) -> None:
    """Declare ``sdfg`` finished: a compiled object owns it from here on."""
    _PLANS.setdefault(sdfg, None)


def binding_plan(sdfg: SDFG) -> BindingPlan:
    """The kept plan of a compiled object's SDFG, else a fresh one."""
    try:
        plan = _PLANS[sdfg]
    except KeyError:
        return BindingPlan(sdfg)
    if plan is None:
        plan = _PLANS[sdfg] = BindingPlan(sdfg)
    return plan


def bind_arguments(sdfg: SDFG, args: tuple, kwargs: Mapping[str, object]) -> dict:
    """Bind call arguments to SDFG containers and symbols.

    Positional arguments follow ``sdfg.arg_names``; keyword arguments may name
    any argument container or symbol.  Symbols that are not passed explicitly
    are inferred by matching symbolic array shapes against the actual arguments
    (the same convenience the DaCe frontend provides).
    """
    return binding_plan(sdfg).bind(args, kwargs)
