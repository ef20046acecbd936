"""Loop taxonomy for automatic differentiation (paper Fig. 5).

Loops are classified into:

* ``AFFINE`` - affine bounds and stride in loop-invariant parameters and outer
  iterators: fully supported, reversed compactly.
* ``NON_AFFINE_SUPPORTED`` - non-affine (but loop-invariant) bounds or strides:
  supported, the bound/stride values are reused in the backward loop.
* ``UNSUPPORTED`` - anything with an unstructured iteration space.  The
  frontend already rejects ``while``/``break``/``continue``; this class exists
  for loops whose headers depend on data modified in the body, which cannot be
  reversed compactly.

The classification is informational for AFFINE / NON_AFFINE_SUPPORTED and a
hard error for UNSUPPORTED when a backward pass is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.ir import LoopRegion, SDFG
from repro.symbolic.affine import is_affine_in


class LoopClass(Enum):
    AFFINE = "affine"
    NON_AFFINE_SUPPORTED = "non-affine (supported)"
    UNSUPPORTED = "unsupported"


@dataclass
class LoopClassification:
    loop: LoopRegion
    loop_class: LoopClass
    reason: str


def classify_loop(sdfg: SDFG, loop: LoopRegion, outer_iterators: tuple[str, ...] = ()) -> LoopClassification:
    """Classify a single loop region."""
    header_symbols = (
        loop.start.free_symbols() | loop.stop.free_symbols() | loop.step.free_symbols()
    )
    written = set(loop.body.written_data())
    if header_symbols & written:
        return LoopClassification(
            loop,
            LoopClass.UNSUPPORTED,
            "loop bounds depend on data modified in the loop body "
            "(unstructured iteration space)",
        )
    invariants = set(sdfg.symbols) | set(outer_iterators)
    affine_vars = [s for s in header_symbols if s in invariants]
    bounds_affine = (
        is_affine_in(loop.start, affine_vars)
        and is_affine_in(loop.stop, affine_vars)
        and is_affine_in(loop.step, affine_vars)
    )
    if bounds_affine and not (header_symbols - invariants):
        return LoopClassification(loop, LoopClass.AFFINE, "affine bounds and stride")
    return LoopClassification(
        loop,
        LoopClass.NON_AFFINE_SUPPORTED,
        "loop-invariant but non-affine bounds/stride; values reused in the backward loop",
    )


def classify_program_loops(sdfg: SDFG) -> list[LoopClassification]:
    """Classify every loop in the SDFG (outer iterators count as invariants
    for inner loops, matching the paper's definition)."""
    return [
        classify_loop(sdfg, element, tuple(
            outer.itervar for outer in path if isinstance(outer, LoopRegion)
        ))
        for element, _, _, path in sdfg.root.walk()
        if isinstance(element, LoopRegion)
    ]
