"""The AD engine: orchestrates analysis, storage planning and reversal.

``add_backward_pass`` takes a forward SDFG and produces a new SDFG that runs
the (augmented) forward pass followed by the backward pass, writing the
gradient of a scalar output with respect to the requested inputs into
``__grad_<name>`` containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.autodiff.analysis import ActivityAnalysis, compute_activity, default_inputs
from repro.autodiff.reverse import BackwardBuilder
from repro.autodiff.rules import GradientNames
from repro.autodiff.storage import StoragePlanner
from repro.autodiff.taxonomy import LoopClass, classify_program_loops
from repro.ir import MapCompute, Memlet, SDFG, State, Subset
from repro.ir.subsets import Index, Range
from repro.symbolic import Const, Sym
from repro.util.errors import AutodiffError


@dataclass
class BackwardPassResult:
    """Result of :func:`add_backward_pass`.

    Attributes
    ----------
    sdfg:
        The augmented forward+backward SDFG.
    output:
        Name of the dependent (output) container.
    gradient_names:
        Mapping input name -> gradient container name.
    activity:
        The CCS analysis (useful for inspection and tests).
    storage:
        The storage planner: ``required`` lists every forward value a rule
        reads, in program order; ``candidates`` the ones a checkpointing
        strategy decides about (the ILP benchmarks read costs from here);
        ``resolve(owner, data, role, read)`` how the backward pass reads one.
    """

    sdfg: SDFG
    output: str
    gradient_names: dict[str, str]
    activity: ActivityAnalysis
    storage: StoragePlanner
    strategy: object = None


def add_backward_pass(
    sdfg: SDFG,
    output: Optional[str] = None,
    inputs: Optional[Sequence[str]] = None,
    strategy=None,
) -> BackwardPassResult:
    """Augment ``sdfg`` with a reverse-mode backward pass.

    Parameters
    ----------
    sdfg:
        Forward SDFG (left untouched; a deep copy is transformed).
    output:
        Dependent variable; defaults to the program's return container.
    inputs:
        Independent variables; default is every floating-point argument.
    strategy:
        Checkpointing strategy deciding store vs. recompute for forwarded
        values (see :mod:`repro.checkpointing`).  ``None`` stores everything.
    """
    forward = sdfg.copy()
    output = output or getattr(forward, "return_name", None)
    if output is None:
        raise AutodiffError(
            "No output specified and the program has no return value; "
            "pass output=<container name>"
        )
    if output not in forward.arrays:
        raise AutodiffError(f"Unknown output container {output!r}")

    requested_inputs = list(inputs) if inputs is not None else default_inputs(forward)
    for name in requested_inputs:
        if name not in forward.arrays:
            raise AutodiffError(f"Unknown input container {name!r}")
        if not np.issubdtype(forward.arrays[name].dtype, np.floating):
            raise AutodiffError(f"Cannot differentiate with respect to non-float input {name!r}")

    # Reject loops outside the supported class (paper Fig. 5).
    for classification in classify_program_loops(forward):
        if classification.loop_class is LoopClass.UNSUPPORTED:
            raise AutodiffError(
                f"Loop over {classification.loop.itervar!r} cannot be reversed: "
                f"{classification.reason}"
            )

    # 1. Critical computation subgraph between the requested inputs and the
    #    output: the backward pass computes no other gradient.
    activity = compute_activity(forward, output, requested_inputs)

    # 2. Store/recompute planning (inserts forward saves).
    storage = StoragePlanner(forward, activity, strategy)
    storage.plan()

    # 3. Gradient seed: d output / d output = 1.
    grads = GradientNames(forward)
    grad_output = grads.get(output)
    builder = BackwardBuilder(forward, activity, storage, grads)
    backward_elements = builder.reverse_region(forward.root)

    seed_state = State(forward.make_name("grad_seed"))
    out_desc = forward.arrays[output]
    params = [f"__seed{i}" for i in range(out_desc.ndim)]
    ranges = [Range(Const(0), dim, Const(1)) for dim in out_desc.shape_exprs()]
    element = Subset([Index(Sym(p)) for p in params]) if params else Subset(())
    seed_state.add(
        MapCompute(
            params=params, ranges=ranges, expr=Const(1), inputs={},
            output=Memlet(grad_output, element), label="seed",
        )
    )

    # 4. Assemble: forward (augmented) -> seed -> backward.
    forward.root.add(seed_state)
    for element in backward_elements:
        forward.root.add(element)

    gradient_names = {name: grads.get(name) for name in requested_inputs}
    forward.return_name = output  # type: ignore[attr-defined]
    forward.validate()
    return BackwardPassResult(
        sdfg=forward,
        output=output,
        gradient_names=gradient_names,
        activity=activity,
        storage=storage,
        strategy=strategy,
    )
