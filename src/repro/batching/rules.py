"""Per-kind batching rules for :class:`~repro.ir.nodes.LibraryCall` nodes.

A batching rule rewrites one library node in place after its batched operand
containers have been rank-extended by a leading batch dimension ``B``:
typically it prepends a full ``0:B`` range to the memlets of batched
operands and adjusts kind-specific attributes (a reduction axis shifts by
one, a transpose becomes an explicit axes permutation, ...).

Rules are looked up in :data:`BATCHING_RULES`, the table at the end of
this module keyed by library-node kind; kinds without an entry raise
:class:`~repro.util.errors.UnsupportedFeatureError` with a message naming
the kind, so unsupported programs fail loudly at transform time instead of
producing wrong batched results.  A new rule is a function taking a
:class:`LibraryBatchContext` plus its row in the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.nodes import LibraryCall
from repro.ir.subsets import Range
from repro.symbolic import Const, Sym
from repro.util.errors import UnsupportedFeatureError


@dataclass
class LibraryBatchContext:
    """Everything one batching rule needs about the node being rewritten."""

    node: LibraryCall
    batched: set
    old_shapes: dict
    batch_size: Sym

    # -- memlet helpers ---------------------------------------------------
    def is_batched(self, data: str) -> bool:
        return data in self.batched

    def _leading_range(self) -> Range:
        return Range(Const(0), self.batch_size, Const(1))

    def extend_input(self, conn: str) -> bool:
        """Prepend ``0:B`` to the input memlet on ``conn`` if its container
        is batched; returns whether it was."""
        memlet = self.node.inputs[conn]
        if memlet.data not in self.batched:
            return False
        if memlet.subset is not None:
            self.node.inputs[conn] = memlet.with_leading(
                self._leading_range(), full_shape=self.old_shapes[memlet.data]
            )
        return True  # a None subset already means "the whole (batched) container"

    def extend_output(self) -> bool:
        memlet = self.node.output
        if memlet.data not in self.batched:
            return False
        if memlet.subset is not None:
            self.node.output = memlet.with_leading(
                self._leading_range(), full_shape=self.old_shapes[memlet.data]
            )
        return True

    def extend_all(self) -> None:
        """Rank-extend every batched memlet of the node (inputs and output)."""
        for conn in list(self.node.inputs):
            self.extend_input(conn)
        self.extend_output()

    def input_rank(self, conn: str) -> int:
        """Pre-extension rank of the container behind an input connector."""
        return len(self.old_shapes[self.node.inputs[conn].data])

    def unsupported(self, why: str) -> "UnsupportedFeatureError":
        return UnsupportedFeatureError(
            f"Cannot batch library call {self.node.kind!r} ({self.node.label}): {why}"
        )


def apply_library_rule(node: LibraryCall, batched: set, old_shapes: dict,
                       batch_size: Sym) -> None:
    """Rewrite ``node`` for batched execution, or raise a clear error."""
    rule = BATCHING_RULES.get(node.kind)
    ctx = LibraryBatchContext(node, batched, old_shapes, batch_size)
    if rule is None:
        raise ctx.unsupported(
            "no batching rule is registered for this kind; supported kinds: "
            f"{sorted(BATCHING_RULES)}"
        )
    rule(ctx)


# --------------------------------------------------------------------- rules
def _batch_reduction(ctx: LibraryBatchContext) -> None:
    """Shift the reduction axis past the new leading batch dimension.

    A full reduction (``axis=None``) becomes a reduction over every
    *non-batch* axis (``axis=(1, ..., k)``), so each sample reduces
    independently; an integer axis moves one position right.  An unbatched
    input feeding a batched output needs no attribute change — the
    rank-extended output write broadcasts the per-call scalar across ``B``.
    """
    node = ctx.node
    in_batched = ctx.is_batched(node.inputs["_in"].data)
    if in_batched:
        axis = node.attrs.get("axis")
        in_rank = ctx.input_rank("_in")
        if axis is None:
            if node.attrs.get("keepdims"):
                raise ctx.unsupported("full reduction with keepdims=True")
            node.attrs["axis"] = tuple(range(1, in_rank + 1))
        else:
            node.attrs["axis"] = int(axis) + 1
    ctx.extend_all()


def _batch_matmul(ctx: LibraryBatchContext) -> None:
    """``np.matmul`` broadcasts leading batch dimensions natively, so a
    batched 2-D operand simply becomes a 3-D stack.  A batched 1-D operand
    against a batched partner has no stacked-matmul reading, so it is
    rejected (against an *unbatched* 2-D matrix, ``(B, n) @ (n, p)`` is
    already the per-sample product and needs nothing)."""
    node = ctx.node
    a_batched = ctx.is_batched(node.inputs["_a"].data)
    b_batched = ctx.is_batched(node.inputs["_b"].data)
    if a_batched and b_batched:
        if ctx.input_rank("_a") < 2 or ctx.input_rank("_b") < 2:
            raise ctx.unsupported(
                "both operands batched but one is a vector; np.matmul has no "
                "batched-vector stacking semantics"
            )
    elif b_batched and ctx.input_rank("_b") == 1:
        # A batched right-hand vector becomes a (B, n) matrix, which
        # np.matmul would multiply as a *matrix* (column-wise) instead of
        # per sample — silently wrong, so reject.  (A batched left-hand
        # vector is fine: (B, n) @ (n, p) already is the per-sample
        # product.)
        raise ctx.unsupported(
            "right-hand vector operand is batched; (matrix @ batched vector) "
            "has no per-sample np.matmul form — rewrite as "
            "(batched vector @ matrix.T)"
        )
    if (a_batched and ctx.input_rank("_a") < 2
            and node.attrs.get("transpose_a")):
        raise ctx.unsupported("transposed batched vector operand")
    ctx.extend_all()


def _batch_transpose(ctx: LibraryBatchContext) -> None:
    """A batched 2-D transpose swaps the trailing axes only: record the
    explicit permutation ``(0, 2, 1)`` for the code generator (a bare
    ``np.transpose`` would reverse the batch axis into the data)."""
    if ctx.is_batched(ctx.node.inputs["_in"].data):
        rank = ctx.input_rank("_in")
        if rank != 2:
            raise ctx.unsupported(f"transpose of a {rank}-D batched operand")
        ctx.node.attrs["axes"] = (0, 2, 1)
    ctx.extend_all()


def _batch_elementwise(ctx: LibraryBatchContext) -> None:
    """Element-wise kinds: rank extension is the whole rule.  An unbatched
    source into a batched destination broadcasts across the batch."""
    ctx.extend_all()


def _batch_softmax(ctx: LibraryBatchContext) -> None:
    """Softmax normalises along the *last* axis, which a leading batch
    dimension does not disturb."""
    ctx.extend_all()


#: kind -> rule.  Rules mutate ``ctx.node`` in place or raise.
BATCHING_RULES: dict[str, Callable[[LibraryBatchContext], None]] = {
    "reduce_sum": _batch_reduction,
    "reduce_max": _batch_reduction,
    "reduce_min": _batch_reduction,
    "matmul": _batch_matmul,
    "transpose": _batch_transpose,
    "copy": _batch_elementwise,
    "relu": _batch_elementwise,
    "softmax": _batch_softmax,
}
