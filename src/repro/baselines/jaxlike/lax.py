"""``lax``-style structured primitives: scan, cond, dynamic slicing.

These reproduce the constructs the paper's JAX ports need for loop-heavy
kernels (Section V-A2): ``scan`` for sequential loops,
``dynamic_slice``/``dynamic_update_slice`` for non-static indexing (with the
index clamping JAX performs as a bounds check), and ``cond`` for branching.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.baselines.jaxlike.engine import DeviceArray, _value_of, asarray, make_result


def _clamp_starts(starts: Sequence[int], shape: tuple, sizes: Sequence[int]) -> list[int]:
    """JAX clamps out-of-range start indices instead of raising (bounds check)."""
    clamped = []
    for start, dim, size in zip(starts, shape, sizes):
        start = int(_value_of(start))
        clamped.append(max(0, min(start, dim - size)))
    return clamped


def dynamic_slice(operand, start_indices: Sequence[int], slice_sizes: Sequence[int]) -> DeviceArray:
    """Extract a fixed-size slice at a (possibly runtime) offset."""
    operand = asarray(operand)
    starts = _clamp_starts(start_indices, operand.shape, slice_sizes)
    index = tuple(slice(s, s + size) for s, size in zip(starts, slice_sizes))
    value = np.array(operand.value[index], copy=True)

    def vjp(gradient):
        out = np.zeros_like(operand.value, dtype=np.float64)
        out[index] = np.asarray(gradient)
        return out

    return make_result(value, [operand], [vjp])


def dynamic_update_slice(operand, update, start_indices: Sequence[int]) -> DeviceArray:
    """Return a copy of ``operand`` with ``update`` written at the offset."""
    operand = asarray(operand)
    update_value = _value_of(update)
    starts = _clamp_starts(start_indices, operand.shape, update_value.shape)
    index = tuple(slice(s, s + size) for s, size in zip(starts, update_value.shape))
    new_value = np.array(operand.value, copy=True)  # full copy per update
    new_value[index] = update_value

    def vjp_operand(gradient):
        grad_operand = np.array(gradient, copy=True)
        grad_operand[index] = 0.0
        return grad_operand

    def vjp_update(gradient):
        return np.array(np.asarray(gradient)[index], copy=True)

    return make_result(new_value,
                       [operand, update if isinstance(update, DeviceArray) else None],
                       [vjp_operand, vjp_update])


def cond(predicate, true_fn: Callable, false_fn: Callable, *operands):
    """Branch on a runtime predicate (both branches are traceable)."""
    if bool(_value_of(predicate)):
        return true_fn(*operands)
    return false_fn(*operands)


def scan(body_fn: Callable, init_carry, xs=None, length: int | None = None):
    """Functional sequential loop.

    ``body_fn(carry, x) -> (new_carry, y)``; returns ``(final_carry, stacked_ys)``.
    The carry is rebuilt every iteration (functional semantics), which is the
    behaviour whose per-iteration cost the paper analyses for JAX.
    """
    if xs is None:
        if length is None:
            raise ValueError("scan requires xs or length")
        iterable = range(int(length))
    else:
        iterable = [xs[i] for i in range(len(_value_of(xs)))]

    carry = init_carry
    outputs = []
    for x in iterable:
        carry, y = body_fn(carry, x)
        if y is not None:
            outputs.append(y)
    if not outputs:
        return carry, None
    stacked = np.stack([_value_of(y) for y in outputs])
    return carry, DeviceArray(stacked)
