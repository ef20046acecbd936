"""Static FLOP counting.

The count is symbolic (an expression in the SDFG's size symbols) and can be
evaluated for concrete sizes.  It is intentionally a *model*, not a
measurement: the ILP checkpointing strategy uses it to rank recomputation
costs, exactly as the paper computes costs "through static analysis" instead
of profiling (Section VI-C, comparison with Checkmate).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.ir import (
    ConditionalRegion,
    ControlFlowRegion,
    LibraryCall,
    LoopRegion,
    MapCompute,
    SDFG,
    State,
)
from repro.ir.nodes import ComputeNode
from repro.symbolic import BinOp, Call, Compare, Const, Expr, IfExp, Sym, UnOp, evaluate
from repro.symbolic.simplify import simplify


def expr_op_count(expr: Expr) -> int:
    """Number of scalar floating-point operations in one tasklet evaluation.

    This is the per-element FLOP model of the ILP checkpointing formulation;
    the O3 fusion rule reads it to tell a producer that does arithmetic from
    a copy."""
    if isinstance(expr, (Const, Sym)):
        return 0
    if isinstance(expr, UnOp):
        return 1 + expr_op_count(expr.operand)
    if isinstance(expr, BinOp):
        return 1 + expr_op_count(expr.left) + expr_op_count(expr.right)
    if isinstance(expr, Compare):
        return 1 + expr_op_count(expr.left) + expr_op_count(expr.right)
    if isinstance(expr, Call):
        # Transcendental calls are counted as a handful of flops.
        return 4 + sum(expr_op_count(a) for a in expr.args)
    if isinstance(expr, IfExp):
        return (
            1
            + expr_op_count(expr.condition)
            + max(expr_op_count(expr.then), expr_op_count(expr.otherwise))
        )
    return 1


def count_node_flops(sdfg: SDFG, node: ComputeNode) -> Expr:
    """Symbolic FLOP count of one compute node."""
    if isinstance(node, MapCompute):
        per_element = expr_op_count(node.expr) + (1 if node.output.accumulate else 0)
        domain: Expr = Const(1)
        for rng in node.ranges:
            domain = domain * rng.length_expr()
        return simplify(domain * Const(per_element))
    if isinstance(node, LibraryCall):
        return _library_flops(sdfg, node)
    return Const(0)


def _volume(sdfg: SDFG, memlet) -> Expr:
    if memlet.subset is None:
        return sdfg.arrays[memlet.data].symbolic_total_elements()
    return memlet.subset.volume_expr()


def _library_flops(sdfg: SDFG, node: LibraryCall) -> Expr:
    kind = node.kind
    if kind == "matmul":
        a_shape = _operand_shape(sdfg, node.inputs["_a"])
        b_shape = _operand_shape(sdfg, node.inputs["_b"])
        if len(a_shape) == 2 and len(b_shape) == 2:
            return simplify(Const(2) * a_shape[0] * a_shape[1] * b_shape[1])
        if len(a_shape) == 2 and len(b_shape) == 1:
            return simplify(Const(2) * a_shape[0] * a_shape[1])
        if len(a_shape) == 1 and len(b_shape) == 2:
            return simplify(Const(2) * b_shape[0] * b_shape[1])
        return simplify(Const(2) * a_shape[0])
    if kind == "outer":
        a_shape = _operand_shape(sdfg, node.inputs["_a"])
        b_shape = _operand_shape(sdfg, node.inputs["_b"])
        return simplify(a_shape[0] * b_shape[0])
    if kind in ("reduce_sum", "reduce_max", "reduce_min"):
        return simplify(_volume(sdfg, node.inputs["_in"]))
    if kind in ("transpose", "copy", "flatten"):
        return Const(0)
    if kind == "relu":
        return simplify(_volume(sdfg, node.inputs["_in"]))
    if kind in ("softmax", "softmax_backward"):
        return simplify(Const(5) * _volume(sdfg, next(iter(node.inputs.values()))))
    if kind in ("conv2d", "conv2d_backward_input", "conv2d_backward_weights"):
        gout_or_out = node.output
        out_volume = _volume(sdfg, gout_or_out)
        w_memlet = node.inputs.get("_w")
        if w_memlet is not None:
            w_shape = _operand_shape(sdfg, w_memlet)
            kernel = w_shape[0] * w_shape[1] * w_shape[2]
        else:
            kernel = Const(9)
        return simplify(Const(2) * out_volume * kernel)
    if kind == "conv2d_backward_bias":
        return simplify(_volume(sdfg, node.inputs["_gout"]))
    if kind in ("maxpool2d", "maxpool2d_backward"):
        return simplify(_volume(sdfg, next(iter(node.inputs.values()))))
    return Const(0)


def _operand_shape(sdfg: SDFG, memlet) -> tuple:
    if memlet.subset is None:
        return sdfg.arrays[memlet.data].shape_exprs()
    return memlet.subset.shape_exprs()


def count_state_flops(sdfg: SDFG, state: State) -> Expr:
    """Symbolic FLOP count of one state (sum over its compute nodes)."""
    total: Expr = Const(0)
    for node in state:
        total = total + count_node_flops(sdfg, node)
    return simplify(total)


def count_region_flops(sdfg: SDFG, region: ControlFlowRegion) -> Expr:
    """Symbolic FLOP count of a control-flow region: states sum, loops
    multiply by their trip count, conditionals take the most expensive
    branch (conservative upper bound)."""
    total: Expr = Const(0)
    for element in region.elements:
        if isinstance(element, State):
            total = total + count_state_flops(sdfg, element)
        elif isinstance(element, LoopRegion):
            total = total + element.trip_count_expr() * count_region_flops(sdfg, element.body)
        elif isinstance(element, ConditionalRegion):
            # Conservative: the most expensive branch.
            branch_costs = [count_region_flops(sdfg, branch) for _, branch in element.branches]
            worst: Expr = Const(0)
            for cost in branch_costs:
                worst = Call("maximum", (worst, cost))
            total = total + worst
    return simplify(total)


def count_sdfg_flops(sdfg: SDFG, symbol_values: Optional[Mapping[str, int]] = None):
    """Total (symbolic or concrete) FLOP count of an SDFG."""
    total = count_region_flops(sdfg, sdfg.root)
    if symbol_values is None:
        return total
    return float(evaluate(total, dict(symbol_values)))
