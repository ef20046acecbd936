"""Per-node reversal rules.

Each forward compute node in the CCS is reversed in isolation (paper Section
II, step 2): maps are differentiated symbolically connector-by-connector,
library nodes get their classical adjoints (matmul, reductions, convolutions,
...).  A rule contributes only to inputs the requested ones reach
(``ActivityAnalysis.carries_gradient``).  All gradient writes accumulate;
full or partial overwrites in the forward pass are followed by gradient
clearing of the overwritten subset (Fig. 4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff.storage import StoragePlanner
from repro.ir import (
    Index,
    LibraryCall,
    MapCompute,
    Memlet,
    Range,
    SDFG,
    State,
    Subset,
)
from repro.ir.nodes import ComputeNode
from repro.symbolic import BinOp, Call, Compare, Const, Expr, IfExp, Sym, diff
from repro.symbolic.simplify import simplify
from repro.util.errors import AutodiffError


class GradientNames:
    """Creates and caches gradient containers (zero-initialised, float)."""

    def __init__(self, sdfg: SDFG) -> None:
        self.sdfg = sdfg
        self.names: dict[str, str] = {}

    def __contains__(self, data: str) -> bool:
        return data in self.names

    def get(self, data: str) -> str:
        if data in self.names:
            return self.names[data]
        desc = self.sdfg.arrays[data]
        dtype = np.float32 if desc.dtype == np.float32 else np.float64
        grad = self.sdfg.add_transient(f"__grad_{data}", desc.shape, dtype, zero_init=True)
        self.names[data] = grad.name
        return grad.name


def _region_params(prefix: str, subset: Optional[Subset], sdfg: SDFG, data: str,
                   counter: list[int]) -> tuple[list[str], list[Range], list]:
    """Map parameters/ranges iterating over a region memlet, plus the
    per-element index template (one entry per container dimension)."""
    counter[0] += 1
    if subset is None:
        subset = Subset.full(sdfg.arrays[data].shape)
    params: list[str] = []
    ranges: list[Range] = []
    element: list = []
    dim_index = 0
    for dim in subset:
        if isinstance(dim, Index):
            element.append(dim)
            continue
        param = f"__{prefix}{counter[0]}_{dim_index}"
        params.append(param)
        ranges.append(Range(Const(0), dim.length_expr(), Const(1)))
        element.append(Index(simplify(dim.start + dim.step * Sym(param))))
        dim_index += 1
    return params, ranges, element


class BackwardRuleEmitter:
    """Emits the backward nodes for one forward node into a target state."""

    def __init__(self, sdfg: SDFG, storage: StoragePlanner, grads: GradientNames) -> None:
        self.sdfg = sdfg
        self.storage = storage
        self.grads = grads
        #: the one predicate deciding which inputs receive a contribution
        self.carries_gradient = storage.activity.carries_gradient
        self._counter = [0]

    # ------------------------------------------------------------------ entry --
    def emit(self, node: ComputeNode, state: State) -> None:
        if isinstance(node, MapCompute):
            self._emit_map(node, state)
        elif isinstance(node, LibraryCall):
            handler = getattr(self, f"_emit_{node.kind}", None)
            if handler is None:
                raise AutodiffError(f"No reversal rule for library node kind {node.kind!r}")
            handler(node, state)
            self._clear_if_overwrite(node, state)
        else:  # pragma: no cover
            raise AutodiffError(f"Cannot reverse node {node!r}")

    # -- common helpers ---------------------------------------------------------
    def _value_memlet(self, node: ComputeNode, connector: str) -> Memlet:
        """Memlet reading the *forward value* of an input connector."""
        original = node.inputs[connector]
        resolution = self.storage.resolve(node, original.data, role="input")
        return self.storage.read_memlet(resolution, original)

    def _output_value_memlet(self, node: ComputeNode) -> Memlet:
        original = node.output
        resolution = self.storage.resolve(node, original.data, role="output")
        return self.storage.read_memlet(resolution, Memlet(original.data, original.subset))

    def _clear_if_overwrite(self, node: ComputeNode, state: State,
                            grad_source: Optional[str] = None) -> None:
        """Zero the gradient of the overwritten output subset (Fig. 4)."""
        if node.output.accumulate:
            return
        out = node.output.data
        grad_out = self.grads.get(out)
        if isinstance(node, MapCompute):
            # The forward map's output subset is a per-element index function of
            # the map parameters; reuse the same domain for the clearing map.
            params, ranges = node.params, node.ranges
            target = node.output.subset
        else:
            params, ranges, element = _region_params("c", node.output.subset, self.sdfg, out,
                                                     self._counter)
            target = Subset(element)
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=Const(0),
                inputs={},
                output=Memlet(grad_out, target),
                label=f"clear_{grad_out}",
            )
        )

    # -- maps ----------------------------------------------------------------------
    def _emit_map(self, node: MapCompute, state: State) -> None:
        out = node.output.data
        grad_out = self.grads.get(out)
        self_reference = out in node.read_data()
        overwrite = not node.output.accumulate

        gout_data = grad_out
        gout_subset = node.output.subset

        # For overwrites that read their own output container, the incoming
        # output gradient must be captured before it is cleared.
        if overwrite and self_reference:
            if node.is_scalar_tasklet:
                save = self.sdfg.add_transient(f"__gsave_{out}", (), self.sdfg.arrays[grad_out].dtype)
                state.add(
                    MapCompute(
                        params=[], ranges=[], expr=Sym("__g"),
                        inputs={"__g": Memlet(grad_out, node.output.subset)},
                        output=Memlet(save.name, Subset(())),
                        label=f"gsave_{out}",
                    )
                )
                gout_data, gout_subset = save.name, Subset(())
            else:
                desc = self.sdfg.arrays[grad_out]
                save = self.sdfg.add_transient(f"__gsave_{out}", desc.shape, desc.dtype)
                state.add(
                    LibraryCall(
                        "copy",
                        inputs={"_in": Memlet(grad_out, None)},
                        output=Memlet(save.name, None),
                        label=f"gsave_{out}",
                    )
                )
                gout_data = save.name
            # Clear before accumulating so the old version's gradient starts at 0.
            self._clear_if_overwrite(node, state)

        for connector in node.inputs:
            data = node.inputs[connector].data
            if not self.carries_gradient(data):
                continue
            derivative = simplify(diff(node.expr, connector))
            if derivative == Const(0):
                continue
            grad_in = self.grads.get(data)
            inputs: dict[str, Memlet] = {}
            for ref in sorted(derivative.free_symbols() & set(node.inputs)):
                inputs[ref] = self._value_memlet(node, ref)
            inputs["__gout"] = Memlet(gout_data, gout_subset)
            state.add(
                MapCompute(
                    params=node.params,
                    ranges=node.ranges,
                    expr=simplify(BinOp("*", derivative, Sym("__gout"))),
                    inputs=inputs,
                    output=Memlet(grad_in, node.inputs[connector].subset, accumulate=True),
                    label=f"bwd_{node.label}_{connector}",
                )
            )

        if overwrite and not self_reference:
            self._clear_if_overwrite(node, state)

    # -- library nodes ---------------------------------------------------------------
    def _grad_memlet(self, memlet: Memlet, accumulate: bool = True) -> Memlet:
        grad = self.grads.get(memlet.data)
        return Memlet(grad, memlet.subset, accumulate=accumulate)

    def _gout_memlet(self, node: ComputeNode) -> Memlet:
        grad = self.grads.get(node.output.data)
        return Memlet(grad, node.output.subset)

    @staticmethod
    def _operand_rank(sdfg: SDFG, memlet: Memlet) -> int:
        if memlet.subset is None:
            return sdfg.arrays[memlet.data].ndim
        return len(memlet.subset.shape_exprs())

    def _emit_matmul(self, node: LibraryCall, state: State) -> None:
        if node.attrs.get("transpose_a") or node.attrs.get("transpose_b"):
            raise AutodiffError("Differentiating pre-transposed matmul nodes is not supported")
        a_memlet, b_memlet = node.inputs["_a"], node.inputs["_b"]
        a_rank = self._operand_rank(self.sdfg, a_memlet)
        b_rank = self._operand_rank(self.sdfg, b_memlet)
        gout = self._gout_memlet(node)
        a_val = self._value_memlet(node, "_a")
        b_val = self._value_memlet(node, "_b")
        a_varied = self.carries_gradient(a_memlet.data)
        b_varied = self.carries_gradient(b_memlet.data)

        if a_rank == b_rank and a_rank in (2, 3):
            # Plain 2-D matmul, or a batched (3-D) stack where *both*
            # operands carry the leading vmap batch dimension: np.matmul
            # broadcasts the batch axis, and the transposed-operand code
            # generation swaps only the trailing matrix axes.
            if a_varied:
                state.add(LibraryCall(
                    "matmul", {"_a": gout, "_b": b_val}, self._grad_memlet(a_memlet),
                    attrs={"transpose_b": True}, label=f"bwd_{node.label}_a"))
            if b_varied:
                state.add(LibraryCall(
                    "matmul", {"_a": a_val, "_b": gout}, self._grad_memlet(b_memlet),
                    attrs={"transpose_a": True}, label=f"bwd_{node.label}_b"))
        elif 3 in (a_rank, b_rank):
            # Batched operand against shared 2-D weights: the weights'
            # gradient needs a cross-batch contraction no library node
            # expresses yet (see docs/batching.md, "Known limitations").
            raise AutodiffError(
                f"Cannot differentiate a batched matmul with operand ranks "
                f"({a_rank}, {b_rank}): the shared operand's gradient sums "
                "over the batch.  Batch both operands (in_axes=0) or keep "
                "the matmul outside the vmapped region."
            )
        elif a_rank == 2 and b_rank == 1:
            if a_varied:
                state.add(LibraryCall(
                    "outer", {"_a": gout, "_b": b_val}, self._grad_memlet(a_memlet),
                    label=f"bwd_{node.label}_a"))
            if b_varied:
                state.add(LibraryCall(
                    "matmul", {"_a": a_val, "_b": gout}, self._grad_memlet(b_memlet),
                    attrs={"transpose_a": True}, label=f"bwd_{node.label}_b"))
        elif a_rank == 1 and b_rank == 2:
            if a_varied:
                state.add(LibraryCall(
                    "matmul", {"_a": b_val, "_b": gout}, self._grad_memlet(a_memlet),
                    label=f"bwd_{node.label}_a"))
            if b_varied:
                state.add(LibraryCall(
                    "outer", {"_a": a_val, "_b": gout}, self._grad_memlet(b_memlet),
                    label=f"bwd_{node.label}_b"))
        elif a_rank == 1 and b_rank == 1:
            # Dot product: gA[k] += gC * B[k], gB[k] += gC * A[k].
            self._emit_scaled_copy(state, node, gout, b_val, a_memlet)
            self._emit_scaled_copy(state, node, gout, a_val, b_memlet)
        else:
            raise AutodiffError(
                f"Unsupported matmul operand ranks ({a_rank}, {b_rank}) in backward pass"
            )

    def _emit_scaled_copy(self, state: State, node: ComputeNode, gout: Memlet,
                          value: Memlet, target: Memlet) -> None:
        """grad_target[sub] += gout_scalar * value[sub] (vector scale)."""
        if not self.carries_gradient(target.data):
            return
        params, ranges, element = _region_params("k", target.subset, self.sdfg, target.data,
                                                 self._counter)
        _, _, value_element = _region_params("v", value.subset, self.sdfg, value.data,
                                             self._counter)
        # Re-use the same parameters for the value operand (same 1-D length).
        value_element = self._reindex(value.subset, value.data, params)
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=BinOp("*", Sym("__gc"), Sym("__v")),
                inputs={
                    "__gc": Memlet(gout.data, gout.subset),
                    "__v": Memlet(value.data, Subset(value_element)),
                },
                output=Memlet(self.grads.get(target.data), Subset(element), accumulate=True),
                label=f"bwd_{node.label}_dot",
            )
        )

    def _reindex(self, subset: Optional[Subset], data: str, params: list[str]) -> list:
        """Per-element index template of a region subset using given params."""
        if subset is None:
            subset = Subset.full(self.sdfg.arrays[data].shape)
        element = []
        position = 0
        for dim in subset:
            if isinstance(dim, Index):
                element.append(dim)
            else:
                element.append(Index(simplify(dim.start + dim.step * Sym(params[position]))))
                position += 1
        return element

    def _emit_outer(self, node: LibraryCall, state: State) -> None:
        a_memlet, b_memlet = node.inputs["_a"], node.inputs["_b"]
        gout = self._gout_memlet(node)
        a_val = self._value_memlet(node, "_a")
        b_val = self._value_memlet(node, "_b")
        if self.carries_gradient(a_memlet.data):
            state.add(LibraryCall(
                "matmul", {"_a": gout, "_b": b_val}, self._grad_memlet(a_memlet),
                label=f"bwd_{node.label}_a"))
        if self.carries_gradient(b_memlet.data):
            state.add(LibraryCall(
                "matmul", {"_a": gout, "_b": a_val}, self._grad_memlet(b_memlet),
                attrs={"transpose_a": True}, label=f"bwd_{node.label}_b"))

    def _reduction_gout_element(self, node: LibraryCall, input_params_element: list) -> Subset:
        """Element subset of the output gradient matching one input element."""
        axis = node.attrs.get("axis")
        keepdims = node.attrs.get("keepdims", False)
        out_subset = node.output.subset
        if axis is None:
            if out_subset is None or len(out_subset) == 0:
                return Subset(())
            return Subset(out_subset.dims)
        # Batched reductions (repro.vmap) carry a tuple of reduced axes.
        axes = set(axis) if isinstance(axis, (tuple, list)) else {axis}
        dims = []
        for position, dim in enumerate(input_params_element):
            if position in axes:
                if keepdims:
                    dims.append(Index(Const(0)))
                continue
            dims.append(dim)
        return Subset(dims)

    def _emit_reduce_sum(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        params, ranges, element = _region_params("r", source.subset, self.sdfg, source.data,
                                                 self._counter)
        gout_element = self._reduction_gout_element(node, element)
        grad_out = self.grads.get(node.output.data)
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=Sym("__gout"),
                inputs={"__gout": Memlet(grad_out, gout_element)},
                output=Memlet(self.grads.get(source.data), Subset(element), accumulate=True),
                label=f"bwd_{node.label}",
            )
        )

    def _emit_reduce_minmax(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        params, ranges, element = _region_params("r", source.subset, self.sdfg, source.data,
                                                 self._counter)
        gout_element = self._reduction_gout_element(node, element)
        grad_out = self.grads.get(node.output.data)
        in_val = self._value_memlet(node, "_in")
        out_val = self._output_value_memlet(node)
        in_element = self._reindex(in_val.subset, in_val.data, params)
        out_element = gout_element if out_val.data == node.output.data else None
        # The stored output value uses the same indexing as the output gradient
        # (possibly offset by a tape pointer dimension).
        if out_element is None or out_val.data != node.output.data:
            if out_val.subset is not None and len(out_val.subset) > len(gout_element):
                # taped value: leading pointer index plus the output element
                out_subset = Subset([out_val.subset.dims[0]] + list(gout_element.dims))
            else:
                out_subset = gout_element
        else:
            out_subset = gout_element
        # Ties: several inputs can attain the extremum (the off-diagonal
        # minimum of a symmetric Gram matrix sits at both (i, j) and (j, i)),
        # and routing the full output gradient to every tied element scales
        # the input gradient by the tie count.  Split it evenly instead — the
        # JAX/autograd convention, and the one the jaxlike oracle implements.
        out_desc = self.sdfg.arrays[node.output.data]
        ties = self.sdfg.add_transient(
            f"__ties_{node.output.data}", out_desc.shape,
            np.float32 if out_desc.dtype == np.float32 else np.float64,
        ).name
        clear_params, clear_ranges, clear_element = _region_params(
            "c", None, self.sdfg, ties, self._counter)
        state.add(
            MapCompute(
                params=clear_params,
                ranges=clear_ranges,
                expr=Const(0),
                inputs={},
                output=Memlet(ties, Subset(clear_element)),
                label=f"clear_{ties}",
            )
        )
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=IfExp(Compare("==", Sym("__val"), Sym("__out")), Const(1), Const(0)),
                inputs={
                    "__val": Memlet(in_val.data, Subset(in_element)),
                    "__out": Memlet(out_val.data, out_subset),
                },
                output=Memlet(ties, gout_element, accumulate=True),
                label=f"ties_{node.label}",
            )
        )
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=IfExp(
                    Compare("==", Sym("__val"), Sym("__out")),
                    BinOp("/", Sym("__gout"), Sym("__ties")),
                    Const(0),
                ),
                inputs={
                    "__val": Memlet(in_val.data, Subset(in_element)),
                    "__out": Memlet(out_val.data, out_subset),
                    "__gout": Memlet(grad_out, gout_element),
                    "__ties": Memlet(ties, gout_element),
                },
                output=Memlet(self.grads.get(source.data), Subset(element), accumulate=True),
                label=f"bwd_{node.label}",
            )
        )

    _emit_reduce_max = _emit_reduce_minmax
    _emit_reduce_min = _emit_reduce_minmax

    def _emit_transpose(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        # An explicit axes permutation (batched transposes, repro.vmap) is
        # its own inverse for the (0, 2, 1) trailing-axes swap; propagate it.
        attrs = {"axes": node.attrs["axes"]} if "axes" in node.attrs else None
        state.add(LibraryCall(
            "transpose", {"_in": self._gout_memlet(node)}, self._grad_memlet(source),
            attrs=attrs, label=f"bwd_{node.label}"))

    def _emit_copy(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        state.add(LibraryCall(
            "copy", {"_in": self._gout_memlet(node)}, self._grad_memlet(source),
            label=f"bwd_{node.label}"))

    def _emit_flatten(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        state.add(LibraryCall(
            "flatten", {"_in": self._gout_memlet(node)}, self._grad_memlet(source),
            label=f"bwd_{node.label}"))

    def _emit_relu(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        params, ranges, element = _region_params("r", source.subset, self.sdfg, source.data,
                                                 self._counter)
        in_val = self._value_memlet(node, "_in")
        in_element = self._reindex(in_val.subset, in_val.data, params)
        out_element = self._reindex(node.output.subset, node.output.data, params)
        grad_out = self.grads.get(node.output.data)
        state.add(
            MapCompute(
                params=params,
                ranges=ranges,
                expr=IfExp(Compare(">", Sym("__val"), Const(0)), Sym("__gout"), Const(0)),
                inputs={
                    "__val": Memlet(in_val.data, Subset(in_element)),
                    "__gout": Memlet(grad_out, Subset(out_element)),
                },
                output=Memlet(self.grads.get(source.data), Subset(element), accumulate=True),
                label=f"bwd_{node.label}",
            )
        )

    def _emit_softmax(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        out_val = self._output_value_memlet(node)
        state.add(LibraryCall(
            "softmax_backward",
            {"_gout": self._gout_memlet(node), "_y": out_val},
            self._grad_memlet(source),
            label=f"bwd_{node.label}"))

    def _emit_conv2d(self, node: LibraryCall, state: State) -> None:
        attrs = {"stride": node.attrs.get("stride", 1), "padding": node.attrs.get("padding", 0)}
        gout = self._gout_memlet(node)
        in_memlet = node.inputs["_in"]
        w_memlet = node.inputs["_w"]
        if self.carries_gradient(in_memlet.data):
            state.add(LibraryCall(
                "conv2d_backward_input",
                {"_gout": gout, "_w": self._value_memlet(node, "_w")},
                self._grad_memlet(in_memlet), attrs=attrs, label=f"bwd_{node.label}_in"))
        if self.carries_gradient(w_memlet.data):
            state.add(LibraryCall(
                "conv2d_backward_weights",
                {"_gout": gout, "_x": self._value_memlet(node, "_in")},
                self._grad_memlet(w_memlet), attrs=attrs, label=f"bwd_{node.label}_w"))
        if "_b" in node.inputs and self.carries_gradient(node.inputs["_b"].data):
            state.add(LibraryCall(
                "conv2d_backward_bias", {"_gout": gout},
                self._grad_memlet(node.inputs["_b"]), label=f"bwd_{node.label}_b"))

    def _emit_maxpool2d(self, node: LibraryCall, state: State) -> None:
        source = node.inputs["_in"]
        if not self.carries_gradient(source.data):
            return
        state.add(LibraryCall(
            "maxpool2d_backward",
            {"_gout": self._gout_memlet(node), "_x": self._value_memlet(node, "_in")},
            self._grad_memlet(source),
            attrs={"window": node.attrs.get("window", 2)},
            label=f"bwd_{node.label}"))
