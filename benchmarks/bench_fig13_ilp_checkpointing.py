"""Figure 13 + Section V-D: ILP checkpointing on the re-materialisation example.

All 2^3 store/recompute configurations of the Listing-1 example are compiled
through the pipeline (``compile_gradient`` at the default ``O1`` tier, memory
planning included) and evaluated: for each configuration we report the
measured gradient runtime, the *modelled* peak memory (the quantity the ILP
constrains) and the *measured* peak of the generated driver (``tracemalloc``,
inputs excluded; the model counts only the forwarded arrays, so the measured
peak sits above it), and verify that the ILP-selected configuration is the
fastest one that respects the memory limit - the paper's C-3.
"""

import functools
import itertools

import numpy as np
import pytest

import repro
from repro.checkpointing import ILPCheckpointing, UserSelection
from repro.checkpointing.memseq import peak_memory
from repro.harness import format_table, peak_bytes
from repro.pipeline import compile_gradient

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


def _compile(strategy):
    return compile_gradient(listing1, wrt=["C"], checkpointing=strategy, cache=False).compiled


@functools.lru_cache(maxsize=None)
def _ilp():
    """The ILP's decision report and the gradient it compiled (once)."""
    strategy = ILPCheckpointing(memory_limit_mib=MEMORY_LIMIT_MIB,
                                symbol_values={"N": N_VALUE})
    compiled = _compile(strategy)
    return strategy.last_report, compiled


def _modelled_mib(config: dict[str, str]) -> float:
    """The ILP's memory model evaluated at one store/recompute assignment."""
    report = _ilp()[0]
    decisions = {c.key: int(config[c.data] == "store") for c in report.candidate_costs}
    return peak_memory(report.memory_terms, decisions) / 2**20


_CONFIGS = [dict(zip(("A0", "A1", "A2"), choice))
            for choice in itertools.product(("store", "recompute"), repeat=3)]
_MEASURED: dict[str, dict] = {}


@pytest.mark.parametrize("index", range(len(_CONFIGS)))
def test_fig13_configuration(benchmark, index):
    config = _CONFIGS[index]
    compiled = _compile(UserSelection(recompute=[name for name, decision in config.items()
                                                 if decision == "recompute"]))
    data = _data()
    benchmark.pedantic(lambda: compiled(**data), rounds=3, warmup_rounds=1)
    _MEASURED[f"C-{index}"] = {
        "config": config,
        "runtime": benchmark.stats.stats.median,
        "peak_mib": _modelled_mib(config),
        "measured_mib": peak_bytes(compiled, data) / 2**20,
    }


def test_fig13_ilp_selects_best_feasible():
    report, compiled = _ilp()
    chosen = report.decisions_by_data

    rows = []
    for label, entry in sorted(_MEASURED.items()):
        config = entry["config"]
        feasible = entry["peak_mib"] <= MEMORY_LIMIT_MIB
        rows.append([label,
                     "/".join("S" if config[a] == "store" else "R" for a in ("A0", "A1", "A2")),
                     entry["runtime"] * 1e3, entry["peak_mib"], entry["measured_mib"],
                     "yes" if feasible else "no",
                     "<-- ILP" if config == chosen else ""])
    print()
    print(format_table(
        ["config", "A0/A1/A2", "runtime [ms]", "modelled peak [MiB]", "measured peak [MiB]",
         "feasible", "ILP choice"],
        rows,
        title=f"Figure 13 - store/recompute configurations (limit {MEMORY_LIMIT_MIB} MiB, "
              f"N={N_VALUE})"))
    print(f"ILP solve time: {report.solve_time_seconds * 1e3:.2f} ms "
          f"({report.num_variables} decision variables); ILP-compiled driver: "
          f"modelled {report.modeled_peak_bytes / 2**20:.1f} MiB, measured "
          f"{peak_bytes(compiled, _data()) / 2**20:.1f} MiB")

    # The paper's headline property: the ILP choice stores the two expensive
    # arrays and recomputes the cheapest one (C-3-like), and it is feasible.
    assert chosen == {"A0": "recompute", "A1": "store", "A2": "store"}
    assert _modelled_mib(chosen) <= MEMORY_LIMIT_MIB
