"""ILP-based automatic checkpointing on the paper's re-materialisation example.

Shows the full Section-IV pipeline: candidate discovery, the static cost model
(sizes, recomputation FLOPs and memory overheads), the memory-measurement
sequence, and the ILP decision under a user memory limit - then verifies that
every strategy produces the same gradients and prints the measured peak of
each strategy's generated driver beside the ILP's modelled peak.

Run with:  python examples/ilp_checkpointing.py
"""

import numpy as np

import repro
from repro.autodiff import add_backward_pass
from repro.checkpointing import (
    ILPCheckpointing,
    RecomputeAll,
    StoreAll,
    compute_candidate_costs,
)
from repro.harness import copy_data, peak_bytes

N = repro.symbol("N")


@repro.program
def listing1(C: repro.float64[N, N], D: repro.float64[N, N]):
    """Listing 1 of the paper (version chain written out explicitly)."""
    A0 = C + D
    sin0 = np.sin(A0)
    D1 = D * 6.0
    A1 = C + D1
    sin1 = np.sin(A1)
    D2 = D1 * 3.0
    A2 = C + D2
    sin2 = np.sin(A2)
    return np.sum(sin0 + sin1 + sin2)


def main() -> None:
    n = 1024                       # each forwarded array is 8 MiB
    memory_limit_mib = 20.0        # fits two of the three forwarded arrays

    # 1. Inspect the candidates and the static cost model.
    result = add_backward_pass(listing1.to_sdfg())
    print("forwarded arrays (re-materialisation candidates):")
    for candidate in result.storage.candidates.values():
        costs = compute_candidate_costs(result.sdfg, candidate, {"N": n})
        print(f"  {candidate.data}: S={costs.store_bytes / 2**20:5.1f} MiB, "
              f"c={costs.recompute_flops / 1e6:6.1f} MFLOP, "
              f"R={costs.recompute_extra_bytes / 2**20:5.1f} MiB, "
              f"recomputable={costs.recompute_eligible}")

    # 2. Let the ILP decide under the memory limit.
    strategy = ILPCheckpointing(memory_limit_mib=memory_limit_mib, symbol_values={"N": n})
    add_backward_pass(listing1.to_sdfg(), strategy=strategy)
    report = strategy.last_report
    print(f"\nILP decision under {memory_limit_mib} MiB "
          f"(solved in {report.solve_time_seconds * 1e3:.1f} ms):")
    for data, decision in sorted(report.decisions_by_data.items()):
        print(f"  {data}: {decision}")
    print(f"modelled peak memory: {report.modeled_peak_bytes / 2**20:.1f} MiB "
          f"(limit {memory_limit_mib} MiB)")

    # 3. Every strategy computes identical gradients - the decision only trades
    #    memory for recomputation time.  The measured peak (tracemalloc, inputs
    #    excluded) of each compiled driver shows the trade; it sits above the
    #    modelled peak, which counts only the forwarded arrays.
    rng = np.random.default_rng(0)
    data = {"C": rng.random((n, n)), "D": rng.random((n, n))}
    reference = None
    print()
    for label, strat in [("store-all", StoreAll()), ("recompute-all", RecomputeAll()),
                         ("ILP", strategy)]:
        gradient = repro.grad(listing1, wrt="C", strategy=strat)
        grads = gradient(**copy_data(data))
        reference = grads if reference is None else reference
        print(f"{label:13s}: measured peak {peak_bytes(gradient, data) / 2**20:6.1f} MiB, "
              f"gradients match store-all: {np.allclose(grads, reference)}")


if __name__ == "__main__":
    main()
