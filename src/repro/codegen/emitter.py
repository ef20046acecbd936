"""Source emission: SDFG -> Python/NumPy function source."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ir import (
    ConditionalRegion,
    ControlFlowRegion,
    LibraryCall,
    LoopRegion,
    MapCompute,
    Memlet,
    SDFG,
    State,
)
from repro.ir.subsets import Index, Range, Subset
from repro.codegen.subexpr import hoist_common_subexpressions
from repro.codegen.vectorize import try_vectorize_map
from repro.symbolic import Const, Expr, Sym, to_python
from repro.symbolic.simplify import simplify
from repro.util.errors import CodegenError


class SourceEmitter:
    """Emits the Python source of one SDFG."""

    def __init__(self, sdfg: SDFG, func_name: Optional[str] = None,
                 result_names: Optional[list[str]] = None) -> None:
        self.sdfg = sdfg
        self.func_name = func_name or f"__generated_{sdfg.name}"
        self.result_names = list(result_names or [])
        self.lines: list[str] = []
        self.indent = 0

    # -- low-level helpers -----------------------------------------------------
    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def _dtype_src(self, dtype) -> str:
        return f"np.{np.dtype(dtype).name}"

    def _shape_src(self, shape) -> str:
        if len(shape) == 0:
            return "()"
        rendered = [to_python(dim) if isinstance(dim, Expr) else repr(dim) for dim in shape]
        if len(rendered) == 1:
            return f"({rendered[0]},)"
        return f"({', '.join(rendered)})"

    def _index_src(self, subset: Optional[Subset]) -> str:
        """Render a subset as a NumPy index string (no map context)."""
        if subset is None or len(subset) == 0:
            return "..."
        pieces = []
        for dim in subset:
            if isinstance(dim, Index):
                pieces.append(to_python(dim.value))
            else:
                start = to_python(dim.start)
                stop = to_python(dim.stop)
                step = simplify(dim.step)
                if step == Const(1):
                    pieces.append(f"{start}:{stop}")
                else:
                    pieces.append(f"{start}:{stop}:{to_python(step)}")
        return ", ".join(pieces)

    def _memlet_read(self, memlet: Memlet) -> str:
        """Source for reading through a memlet outside a map."""
        desc = self.sdfg.arrays[memlet.data]
        if memlet.subset is None or len(memlet.subset) == 0:
            return memlet.data
        if memlet.subset.is_full(desc.shape):
            return memlet.data
        return f"{memlet.data}[{self._index_src(memlet.subset)}]"

    def _memlet_write_target(self, memlet: Memlet) -> str:
        """Source for writing through a memlet outside a map (always indexed so
        the assignment is in place rather than a rebinding)."""
        index = self._index_src(memlet.subset)
        return f"{memlet.data}[{index}]"

    # -- top level ---------------------------------------------------------------
    def generate(self) -> str:
        params = self._parameter_names()
        self.emit(f"def {self.func_name}({', '.join(params)}):")
        self.indent += 1
        self._emit_allocations()
        if not self.sdfg.root.elements:
            self.emit("pass")
        self._emit_region(self.sdfg.root)
        results = ", ".join(f"{name!r}: {name}" for name in self.result_names)
        self.emit(f"return {{{results}}}")
        self.indent -= 1
        return "\n".join(self.lines) + "\n"

    def _parameter_names(self) -> list[str]:
        params: list[str] = []
        for name in self.sdfg.arg_names:
            if name not in params:
                params.append(name)
        for name, desc in self.sdfg.arrays.items():
            if not desc.transient and name not in params:
                params.append(name)
        for name in self.sdfg.symbols:
            if name not in params:
                params.append(name)
        # Free symbols referenced by shapes/bounds but never registered.
        for name in sorted(self.sdfg.free_symbols()):
            if name not in params:
                params.append(name)
        return params

    def _emit_allocations(self) -> None:
        for name, desc in self.sdfg.arrays.items():
            if not desc.transient:
                continue
            ctor = "np.zeros" if desc.zero_init else "np.empty"
            self.emit(f"{name} = {ctor}({self._shape_src(desc.shape)}, dtype={self._dtype_src(desc.dtype)})")

    # -- control flow ---------------------------------------------------------------
    def _emit_region(self, region: ControlFlowRegion) -> None:
        for element in region.elements:
            if isinstance(element, State):
                self._emit_state(element)
            elif isinstance(element, LoopRegion):
                self._emit_loop(element)
            elif isinstance(element, ConditionalRegion):
                self._emit_conditional(element)
            else:  # pragma: no cover
                raise CodegenError(f"Unknown control flow element {element!r}")

    def _emit_loop(self, loop: LoopRegion) -> None:
        start = to_python(loop.start)
        stop = to_python(loop.stop)
        step = to_python(loop.step)
        if simplify(loop.step) == Const(1):
            self.emit(f"for {loop.itervar} in range({start}, {stop}):")
        else:
            self.emit(f"for {loop.itervar} in range({start}, {stop}, {step}):")
        self.indent += 1
        if not loop.body.elements:
            self.emit("pass")
        self._emit_region(loop.body)
        self.indent -= 1

    def _emit_conditional(self, conditional: ConditionalRegion) -> None:
        for index, (condition, region) in enumerate(conditional.branches):
            if condition is None:
                self.emit("else:")
            else:
                keyword = "if" if index == 0 else "elif"
                self.emit(f"{keyword} {to_python(condition)}:")
            self.indent += 1
            if not region.elements:
                self.emit("pass")
            self._emit_region(region)
            self.indent -= 1

    # -- states -------------------------------------------------------------------
    def _emit_state(self, state: State) -> None:
        if state.is_empty():
            return
        self.emit(f"# state: {state.label}")
        for node in state:
            if isinstance(node, MapCompute):
                self._emit_map(node)
            elif isinstance(node, LibraryCall):
                self._emit_library(node)
            else:  # pragma: no cover
                raise CodegenError(f"Cannot emit node {node!r}")

    # -- maps ------------------------------------------------------------------------
    def _scope_names(self) -> set[str]:
        """Identifiers live in the generated function's scope — containers
        and symbols — which generated temporaries must not shadow."""
        return set(self.sdfg.arrays) | set(self.sdfg.symbols)

    def _emit_map(self, node: MapCompute) -> None:
        vectorized = try_vectorize_map(node, taken=self._scope_names())
        if vectorized is not None:
            for line in vectorized:
                self.emit(line)
            return
        self._emit_map_loops(node)

    def _emit_map_loops(self, node: MapCompute) -> None:
        """Fallback: explicit Python loops over the map domain."""
        for param, rng in zip(node.params, node.ranges):
            start = to_python(rng.start)
            stop = to_python(rng.stop)
            step = simplify(rng.step)
            if step == Const(1):
                self.emit(f"for {param} in range({start}, {stop}):")
            else:
                self.emit(f"for {param} in range({start}, {stop}, {to_python(step)}):")
            self.indent += 1
        rename = {}
        for conn, memlet in node.inputs.items():
            desc = self.sdfg.arrays[memlet.data]
            if memlet.subset is None or len(memlet.subset) == 0:
                rename[conn] = memlet.data if desc.ndim == 0 else f"{memlet.data}[...]"
            else:
                rename[conn] = f"{memlet.data}[{self._index_src(memlet.subset)}]"
        # Share repeated subexpressions via scalar temporaries.  Python's
        # ternary/short-circuit operators are lazy, so only unconditionally
        # evaluated subtrees are hoisted (guarded_lazy=True).
        bindings, residual = hoist_common_subexpressions(
            node.expr, taken=self._scope_names() | set(rename), guarded_lazy=True
        )
        for name, value in bindings:
            self.emit(f"{name} = {to_python(value, rename=rename, vectorized=False)}")
        rhs = to_python(residual, rename=rename, vectorized=False)
        target = f"{node.output.data}[{self._index_src(node.output.subset)}]"
        op = "+=" if node.output.accumulate else "="
        self.emit(f"{target} {op} {rhs}")
        for _ in node.params:
            self.indent -= 1

    # -- library nodes ------------------------------------------------------------------
    def _emit_library(self, node: LibraryCall) -> None:
        kind = node.kind
        handler = getattr(self, f"_emit_lib_{kind}", None)
        if handler is None:
            raise CodegenError(f"No code generation rule for library node kind {kind!r}")
        handler(node)

    def _out_target(self, node: LibraryCall) -> tuple[str, str]:
        op = "+=" if node.output.accumulate else "="
        return self._memlet_write_target(node.output), op

    def _memlet_rank(self, memlet: Memlet) -> int:
        """Rank of the data moved by a memlet (Index dims drop out)."""
        if memlet.subset is None:
            return self.sdfg.arrays[memlet.data].ndim
        return len(memlet.subset.shape_exprs())

    def _transposed(self, source: str, memlet: Memlet) -> str:
        """Transpose the trailing matrix axes of an operand.  Batched (>2-D)
        operands swap only the last two axes, so the leading batch dimension
        introduced by ``repro.vmap`` stays in place."""
        if self._memlet_rank(memlet) > 2:
            return f"np.swapaxes({source}, -2, -1)"
        return f"{source}.T" if "[" not in source else f"({source}).T"

    def _emit_lib_matmul(self, node: LibraryCall) -> None:
        a = self._memlet_read(node.inputs["_a"])
        b = self._memlet_read(node.inputs["_b"])
        if node.attrs.get("transpose_a"):
            a = self._transposed(a, node.inputs["_a"])
        if node.attrs.get("transpose_b"):
            b = self._transposed(b, node.inputs["_b"])
        out_desc = self.sdfg.arrays[node.output.data]
        full = node.output.subset is None or node.output.subset.is_full(out_desc.shape)
        if (not node.output.accumulate) and full and out_desc.ndim >= 1:
            self.emit(f"np.matmul({a}, {b}, out={node.output.data})")
            return
        target, op = self._out_target(node)
        self.emit(f"{target} {op} {a} @ {b}")

    def _emit_lib_outer(self, node: LibraryCall) -> None:
        a = self._memlet_read(node.inputs["_a"])
        b = self._memlet_read(node.inputs["_b"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} np.outer({a}, {b})")

    def _emit_reduction(self, node: LibraryCall, func: str) -> None:
        source = self._memlet_read(node.inputs["_in"])
        axis = node.attrs.get("axis")
        keepdims = node.attrs.get("keepdims", False)
        args = [source]
        if axis is not None:
            args.append(f"axis={axis}")
            if keepdims:
                args.append("keepdims=True")
        target, op = self._out_target(node)
        self.emit(f"{target} {op} {func}({', '.join(args)})")

    def _emit_lib_reduce_sum(self, node: LibraryCall) -> None:
        self._emit_reduction(node, "np.sum")

    def _emit_lib_reduce_max(self, node: LibraryCall) -> None:
        self._emit_reduction(node, "np.max")

    def _emit_lib_reduce_min(self, node: LibraryCall) -> None:
        self._emit_reduction(node, "np.min")

    def _emit_lib_transpose(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        axes = node.attrs.get("axes")
        if axes is not None:
            # Batched transposes permute explicitly (a bare np.transpose
            # would reverse the leading batch axis into the data).
            self.emit(f"{target} {op} np.transpose({source}, {tuple(axes)})")
        else:
            self.emit(f"{target} {op} np.transpose({source})")

    def _emit_lib_copy(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} {source}")

    def _emit_lib_flatten(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} np.reshape({source}, {node.output.data}.shape)")

    def _emit_lib_relu(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} np.maximum({source}, 0)")

    def _emit_lib_softmax(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} __softmax({source})")

    def _emit_lib_conv2d(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        weights = self._memlet_read(node.inputs["_w"])
        bias = self._memlet_read(node.inputs["_b"]) if "_b" in node.inputs else "None"
        target, op = self._out_target(node)
        stride = node.attrs.get("stride", 1)
        padding = node.attrs.get("padding", 0)
        self.emit(f"{target} {op} __conv2d({source}, {weights}, {bias}, {stride}, {padding})")

    def _emit_lib_maxpool2d(self, node: LibraryCall) -> None:
        source = self._memlet_read(node.inputs["_in"])
        target, op = self._out_target(node)
        window = node.attrs.get("window", 2)
        self.emit(f"{target} {op} __maxpool2d({source}, {window})")

    # -- adjoint library nodes (emitted by the AD engine) ---------------------
    def _emit_lib_softmax_backward(self, node: LibraryCall) -> None:
        gout = self._memlet_read(node.inputs["_gout"])
        y = self._memlet_read(node.inputs["_y"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} __softmax_backward({gout}, {y})")

    def _emit_lib_conv2d_backward_input(self, node: LibraryCall) -> None:
        gout = self._memlet_read(node.inputs["_gout"])
        weights = self._memlet_read(node.inputs["_w"])
        target, op = self._out_target(node)
        stride = node.attrs.get("stride", 1)
        padding = node.attrs.get("padding", 0)
        self.emit(
            f"{target} {op} __conv2d_backward_input({gout}, {weights}, "
            f"{node.output.data}.shape, {stride}, {padding})"
        )

    def _emit_lib_conv2d_backward_weights(self, node: LibraryCall) -> None:
        gout = self._memlet_read(node.inputs["_gout"])
        x = self._memlet_read(node.inputs["_x"])
        target, op = self._out_target(node)
        stride = node.attrs.get("stride", 1)
        padding = node.attrs.get("padding", 0)
        self.emit(
            f"{target} {op} __conv2d_backward_weights({gout}, {x}, "
            f"{node.output.data}.shape, {stride}, {padding})"
        )

    def _emit_lib_conv2d_backward_bias(self, node: LibraryCall) -> None:
        gout = self._memlet_read(node.inputs["_gout"])
        target, op = self._out_target(node)
        self.emit(f"{target} {op} __conv2d_backward_bias({gout})")

    def _emit_lib_maxpool2d_backward(self, node: LibraryCall) -> None:
        gout = self._memlet_read(node.inputs["_gout"])
        x = self._memlet_read(node.inputs["_x"])
        target, op = self._out_target(node)
        window = node.attrs.get("window", 2)
        self.emit(f"{target} {op} __maxpool2d_backward({gout}, {x}, {window})")


def generate_source(sdfg: SDFG, func_name: Optional[str] = None,
                    result_names: Optional[list[str]] = None) -> str:
    """Generate Python source for ``sdfg`` returning the named containers."""
    return SourceEmitter(sdfg, func_name, result_names).generate()
