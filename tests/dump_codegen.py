"""Dump the generated code of every NPBench kernel, for diffing two checkouts.

A refactor that must not change what is emitted is proven by running this
script from both checkouts and diffing the two output directories::

    (cd $PARENT && PYTHONPATH=src python $CHANGE/tests/dump_codegen.py $OUT/parent)
    PYTHONPATH=src python tests/dump_codegen.py $OUT/change
    diff -r $OUT/parent $OUT/change && echo IDENTICAL

One file per kernel x {O0..O3} x {forward, gradient} x {numpy, cython}
holds the Python driver and, after a ``/* C */`` line, the native source.
The O1 gradients are also dumped under ``RecomputeAll()``, the only rows
that emit recompute chains (bias_act, doitgen, softmax), and under
``ILPCheckpointing``, whose decisions depend on the candidate set.  The
``PROBES`` rows add the gradients (O0..O3) of the small programs below, the
only ones that tape a reduction's output value or snapshot a branch
condition; ``tests/test_autodiff_loops.py`` checks them against finite
differences.  A compile error is written in place of the code, so both
sides must fail alike.

Not collected by pytest (no ``test_`` prefix); it only uses the public
compile API, so it runs unchanged against an older checkout.
"""

import pathlib
import sys

import numpy as np

import repro
from repro.checkpointing import ILPCheckpointing, RecomputeAll
from repro.ir import ConditionalRegion, LibraryCall, MapCompute, Memlet, Range, SDFG, Subset
from repro.npbench import all_kernels
from repro.pipeline import compile_forward, compile_gradient
from repro.symbolic import Const, Sym, parse_expr

LEVELS = ("O0", "O1", "O2", "O3")
BACKENDS = ("numpy", "cython")
#: The smallest round limit every kernel's ILP can meet at preset "S".
ILP_LIMIT_MIB = 0.1

N = repro.symbol("N")


@repro.program
def max_taped_output(A: repro.float64[N, N], x: repro.float64[N], steps: repro.int64):
    """The row maxima are rewritten every iteration, so the backward pass
    reads each iteration's maxima (the reduction's output) off a tape.  The
    columns are scaled by ``x``, which changes, so the argmax moves between
    iterations and reading another iteration's tape entry gives a wrong
    gradient."""
    for t in range(steps):
        m = np.max(A * x, axis=1)
        x[:] = 0.5 * x + m
    return np.sum(x)


@repro.program
def min_taped_output(A: repro.float64[N, N], x: repro.float64[N], steps: repro.int64):
    """``max_taped_output`` with row minima."""
    for t in range(steps):
        m = np.min(A * x, axis=1)
        x[:] = 0.5 * x + m
    return np.sum(x)


def condition_snapshot_sdfg() -> SDFG:
    """``c = x[0] - 0.5; y = sin(x) if c > 0 else cos(x); c = 0.5 - x[0];
    return sum(y) + c``.  The 0-d condition container is overwritten after
    the conditional (with the value that takes the other branch), so the
    backward pass reads the condition from a snapshot.  The frontend writes
    every condition into a fresh transient, so only a hand-built SDFG has
    this shape."""
    sdfg = SDFG("condition_snapshot")
    sdfg.add_symbol("N")
    sdfg.add_array("x", (Sym("N"),), "float64")
    sdfg.add_array("y", (Sym("N"),), "float64", transient=True)
    for name in ("c", "s", "__return"):
        sdfg.add_array(name, (), "float64", transient=True)
    sdfg.arg_names = ["x"]
    sdfg.return_name = "__return"

    def scalar(expr, inputs, output):
        return MapCompute(params=[], ranges=[], expr=parse_expr(expr), inputs=inputs,
                          output=Memlet(output, Subset(())))

    def elementwise(expr):
        return MapCompute(params=["i"], ranges=[Range(Const(0), Sym("N"), Const(1))],
                          expr=parse_expr(expr), inputs={"a": Memlet("x", Subset.point([Sym("i")]))},
                          output=Memlet("y", Subset.point([Sym("i")])))

    x0 = {"a": Memlet("x", Subset.point([0]))}
    sdfg.add_state("set_c").add(scalar("a - 0.5", x0, "c"))
    conditional = ConditionalRegion(label="branch")
    conditional.add_branch(parse_expr("c > 0")).add_state("then").add(elementwise("sin(a)"))
    conditional.add_branch(None).add_state("else").add(elementwise("cos(a)"))
    sdfg.root.add(conditional)
    sdfg.add_state("overwrite_c").add(scalar("0.5 - a", x0, "c"))
    ret = sdfg.add_state("ret")
    ret.add(LibraryCall("reduce_sum", inputs={"_in": Memlet("y", None)},
                        output=Memlet("s", Subset(())), attrs={"axis": None}))
    ret.add(scalar("a + b", {"a": Memlet("s", Subset(())), "b": Memlet("c", Subset(()))},
                   "__return"))
    return sdfg


#: name -> (program, gradient argument): each dumped as its O0..O3 gradient.
PROBES = {
    "max_taped_output": (max_taped_output, "x"),
    "min_taped_output": (min_taped_output, "x"),
    "condition_snapshot": (condition_snapshot_sdfg(), "x"),
}


def rows(spec):
    """(label, compile thunk(backend)) for one kernel."""
    program = spec.program_for("S")
    wrt = [spec.wrt]
    for level in LEVELS:
        yield f"{level}.forward", lambda backend, level=level: compile_forward(
            program, optimize=level, backend=backend, cache=False)
        yield f"{level}.gradient", lambda backend, level=level: compile_gradient(
            program, wrt=wrt, optimize=level, backend=backend, cache=False)
    strategies = {
        "recompute_all": RecomputeAll,
        "ilp": lambda: ILPCheckpointing(ILP_LIMIT_MIB, symbol_values=spec.sizes["S"]),
    }
    for name, strategy in strategies.items():
        yield f"O1.gradient.{name}", lambda backend, strategy=strategy: compile_gradient(
            program, wrt=wrt, optimize="O1", backend=backend, checkpointing=strategy(),
            cache=False)


def probe_rows(program, wrt):
    """(label, compile thunk(backend)) for one probe."""
    for level in LEVELS:
        yield f"{level}.gradient", lambda backend, level=level: compile_gradient(
            program, wrt=[wrt], optimize=level, backend=backend, cache=False)


def main(out: pathlib.Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    tables = [(name, rows(spec)) for name, spec in sorted(all_kernels().items())]
    tables += [(name, probe_rows(*probe)) for name, probe in PROBES.items()]
    for name, table in tables:
        for label, build in table:
            for backend in BACKENDS:
                try:
                    compiled = build(backend).compiled
                    text = compiled.source + "\n/* C */\n" + getattr(compiled, "c_source", "")
                except Exception as exc:
                    text = f"error: {type(exc).__name__}: {exc}\n"
                (out / f"{name}.{label}.{backend}.txt").write_text(text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/dump_codegen.py OUTPUT_DIR")
    main(pathlib.Path(sys.argv[1]))
