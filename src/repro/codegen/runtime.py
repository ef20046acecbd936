"""Runtime support for generated code: argument binding and the namespace in
which generated functions execute."""

from __future__ import annotations

from typing import Mapping

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


def bind_arguments(sdfg: SDFG, args: tuple, kwargs: Mapping[str, object]) -> dict:
    """Bind call arguments to SDFG containers and symbols.

    Positional arguments follow ``sdfg.arg_names``; keyword arguments may name
    any container or symbol.  Symbols that are not passed explicitly are
    inferred by matching symbolic array shapes against the actual arguments
    (the same convenience the DaCe frontend provides).
    """
    bindings: dict[str, object] = {}
    if len(args) > len(sdfg.arg_names):
        raise CodegenError(
            f"{sdfg.name} takes {len(sdfg.arg_names)} arguments, got {len(args)}"
        )
    for name, value in zip(sdfg.arg_names, args):
        bindings[name] = value
    for name, value in kwargs.items():
        if name in bindings:
            raise CodegenError(f"Argument {name!r} passed both positionally and by keyword")
        bindings[name] = value

    resolved: dict[str, object] = {}
    symbol_values: dict[str, int] = {}

    # First pass: record explicitly-passed symbols.
    for name, value in bindings.items():
        if name in sdfg.symbols:
            symbol_values[name] = int(value)

    # Second pass: infer symbols from array shapes.
    for name, value in bindings.items():
        if name not in sdfg.arrays:
            continue
        desc = sdfg.arrays[name]
        actual = np.asarray(value)
        if actual.ndim != desc.ndim:
            raise CodegenError(
                f"Argument {name!r} has {actual.ndim} dimensions, expected {desc.ndim}"
            )
        for dim, size in zip(desc.shape, actual.shape):
            if isinstance(dim, Sym) and dim.name not in symbol_values:
                symbol_values[dim.name] = int(size)

    # Third pass: coerce containers.
    for name, desc in sdfg.arrays.items():
        if desc.transient:
            continue
        if name not in bindings:
            raise CodegenError(f"Missing argument {name!r} for {sdfg.name}")
        value = bindings[name]
        if isinstance(value, np.ndarray) and value.dtype == desc.dtype and value.ndim == desc.ndim:
            resolved[name] = value
        else:
            resolved[name] = np.asarray(value, dtype=desc.dtype)
        # Shape consistency check (where fully concrete).
        expected = []
        consistent = True
        for dim in desc.shape:
            if isinstance(dim, Expr):
                if dim.free_symbols() - set(symbol_values):
                    consistent = False
                    break
                expected.append(int(evaluate(dim, symbol_values)))
            else:
                expected.append(int(dim))
        if consistent and tuple(expected) != resolved[name].shape:
            raise CodegenError(
                f"Argument {name!r} has shape {resolved[name].shape}, expected {tuple(expected)}"
            )

    # Fourth pass: every needed symbol must now have a value.
    needed = set(sdfg.symbols)
    for desc in sdfg.arrays.values():
        needed |= desc.free_symbols()
    needed |= sdfg.free_symbols()
    iterators = {loop.itervar for loop in sdfg.all_loops()}
    needed -= iterators
    needed -= set(sdfg.arrays)
    missing = sorted(needed - set(symbol_values))
    if missing:
        raise CodegenError(
            f"Could not determine values for symbols {missing}; pass them as keyword arguments"
        )
    for name, value in symbol_values.items():
        resolved[name] = int(value)
    return resolved
