"""Dataflow nodes.

The paper's SDFG has access nodes, tasklets, map entry/exit pairs and library
nodes.  This reproduction fuses a map scope and the tasklet inside it into a
single :class:`MapCompute` node (iteration domain + symbolic expression +
memlets); a scalar tasklet is simply a :class:`MapCompute` with an empty
domain.  Library nodes (:class:`LibraryCall`) represent operations expanded to
optimised library calls during code generation (matmul -> BLAS ``np.dot``,
convolutions, pooling, reductions, ...).

Every compute node records exactly which data it reads and writes through
:class:`~repro.ir.memlet.Memlet` objects - this is the property that makes
the CCS extraction and reversal of Section II/III possible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional

from repro.ir.memlet import Memlet
from repro.ir.subsets import Range
from repro.symbolic import Expr

_node_counter = itertools.count()


class Node:
    """Base class of all dataflow nodes; identity-based equality."""

    def __init__(self, label: str = "") -> None:
        self.node_id: int = next(_node_counter)
        self.label = label or f"{type(self).__name__.lower()}_{self.node_id}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class AccessNode(Node):
    """Reference to a data container inside a state (read and/or written)."""

    def __init__(self, data: str) -> None:
        super().__init__(label=data)
        self.data = data


class ComputeNode(Node):
    """Base class for nodes that perform computation.

    Attributes
    ----------
    inputs:
        Mapping from input connector name to the memlet read through it.
    output:
        Memlet written by this node (a single output container; the write may
        be accumulating).
    """

    def __init__(
        self,
        inputs: Mapping[str, Memlet],
        output: Memlet,
        label: str = "",
    ) -> None:
        super().__init__(label=label)
        self.inputs: dict[str, Memlet] = dict(inputs)
        self.output: Memlet = output

    # -- dataflow queries -------------------------------------------------
    def read_data(self) -> set[str]:
        return {memlet.data for memlet in self.inputs.values()}

    def written_data(self) -> str:
        return self.output.data

    def free_symbols(self) -> set[str]:
        symbols: set[str] = set()
        for memlet in self.inputs.values():
            symbols |= memlet.free_symbols()
        symbols |= self.output.free_symbols()
        return symbols


class MapCompute(ComputeNode):
    """A parallel map over an iteration domain applying one symbolic tasklet.

    ``params`` and ``ranges`` define the (possibly empty) parallel iteration
    space, exactly like an SDFG Map.  ``expr`` is the tasklet: a scalar
    symbolic expression over the input connector names, the map parameters
    and the SDFG symbols.  Each evaluation writes one element of the output
    memlet (or accumulates into it when ``output.accumulate`` is set).

    An empty domain (``params == ()``) is a plain scalar tasklet.
    """

    def __init__(
        self,
        params: Iterable[str],
        ranges: Iterable[Range],
        expr: Expr,
        inputs: Mapping[str, Memlet],
        output: Memlet,
        label: str = "",
    ) -> None:
        super().__init__(inputs, output, label=label)
        self.params: tuple[str, ...] = tuple(params)
        self.ranges: tuple[Range, ...] = tuple(ranges)
        if len(self.params) != len(self.ranges):
            raise ValueError("MapCompute needs one range per map parameter")
        self.expr: Expr = expr

    @property
    def is_scalar_tasklet(self) -> bool:
        return len(self.params) == 0

    def free_symbols(self) -> set[str]:
        symbols = super().free_symbols()
        symbols |= self.expr.free_symbols()
        for rng in self.ranges:
            symbols |= rng.free_symbols()
        symbols -= set(self.params)
        symbols -= set(self.inputs)
        return symbols

    def __repr__(self) -> str:
        domain = ", ".join(
            f"{p}=[{r.start!r}:{r.stop!r}:{r.step!r}]" for p, r in zip(self.params, self.ranges)
        )
        return f"MapCompute({self.label!r}, [{domain}] -> {self.output.data})"


#: Library node kinds understood by the code generator and the AD engine.
LIBRARY_KINDS = {
    "matmul",       # C (+)= op(A) @ op(B); attrs: transpose_a, transpose_b
    "reduce_sum",   # out (+)= sum(A) or sum(A, axis=k); attrs: axis, keepdims
    "reduce_max",   # out = max(A[, axis=k]); attrs: axis, keepdims
    "reduce_min",   # out = min(A[, axis=k]); attrs: axis, keepdims
    "transpose",    # out = A.T (2-D)
    "copy",         # out[subset] (+)= A[subset]
    "conv2d",       # out = conv2d(input, weights) + bias; attrs: stride, padding
    "maxpool2d",    # out = maxpool(input); attrs: window
    "relu",         # out = max(input, 0)
    "softmax",      # out = softmax(input, axis=-1)
    "flatten",      # out = reshape(input, (batch, -1))
    "outer",        # out (+)= outer(a, b) for 1-D a, b
    # Backward (adjoint) library nodes emitted by the AD engine:
    "softmax_backward",        # gin (+)= softmax_backward(gout, y)
    "conv2d_backward_input",   # gin (+)= conv2d_backward_input(gout, w, shape)
    "conv2d_backward_weights", # gw (+)= conv2d_backward_weights(gout, x, shape)
    "conv2d_backward_bias",    # gb (+)= conv2d_backward_bias(gout)
    "maxpool2d_backward",      # gin (+)= maxpool2d_backward(gout, x)
}


class LibraryCall(ComputeNode):
    """Specialised node expanded into an optimised library call at codegen.

    ``kind`` selects the operation (see :data:`LIBRARY_KINDS`); ``attrs``
    carries per-kind parameters (transposition flags, reduction axis,
    convolution stride/padding, pooling window, ...).
    """

    def __init__(
        self,
        kind: str,
        inputs: Mapping[str, Memlet],
        output: Memlet,
        attrs: Optional[dict] = None,
        label: str = "",
    ) -> None:
        if kind not in LIBRARY_KINDS:
            raise ValueError(f"Unknown library node kind {kind!r}")
        super().__init__(inputs, output, label=label or kind)
        self.kind = kind
        self.attrs: dict = dict(attrs or {})

    def __repr__(self) -> str:
        return f"LibraryCall({self.kind!r} -> {self.output.data})"
