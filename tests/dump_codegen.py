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
``ILPCheckpointing``, whose decisions depend on the candidate set.  A compile
error is written in place of the code, so both sides must fail alike.

Not collected by pytest (no ``test_`` prefix); it only uses the public
compile API, so it runs unchanged against an older checkout.
"""

import pathlib
import sys

from repro.checkpointing import ILPCheckpointing, RecomputeAll
from repro.npbench import all_kernels
from repro.pipeline import compile_forward, compile_gradient

LEVELS = ("O0", "O1", "O2", "O3")
BACKENDS = ("numpy", "cython")
#: The smallest round limit every kernel's ILP can meet at preset "S".
ILP_LIMIT_MIB = 0.1


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


def main(out: pathlib.Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, spec in sorted(all_kernels().items()):
        for label, build in rows(spec):
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
