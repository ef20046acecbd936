"""Command-line fuzz campaign driver: ``python -m repro.fuzz``.

Generates ``--programs`` seeded random programs (the hard-shape templates
always run first), differentially checks each one against the jaxlike
oracle, and writes a run report in the benchmark-results envelope.  The
exit status is non-zero iff any check *failed* — recorded
``UnsupportedFeatureError``/``AutodiffError`` skips are expected and
land in the report's ``skip_reasons`` histogram.

By default each program runs under a deterministic 8-configuration sample
of the full ``{O0..O3} x {forward, grad, vmap, vmap_grad} x {numpy,
cython}`` matrix (all four tiers, all four modes and both backends are
exercised across the sample); ``--full-matrix`` runs all 32 configurations
per program instead.  ``--call-boundary`` adds, for every sampled
configuration, one run per input presentation (strided view, Fortran order,
float32, shuffled keywords), each compared with the plain call.
``--wrt-subset`` follows every ``grad`` and ``vmap_grad`` configuration of a
program with two or more array arguments by one that differentiates only a
seeded strict subset of them, so a gradient the backward pass wrongly prunes
(or a cleared accumulator it wrongly skips) diverges from the oracle.

Failures are minimized with the delta-debugging shrinker and — when
``--corpus-dir`` is given — saved as corpus entries, which the regression
suite (``tests/test_fuzz_corpus.py``) replays from then on.

The CI smoke job runs::

    python -m repro.fuzz --programs 200 --seed 20260807 \
        --out benchmarks/results/fuzz_differential.json
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from typing import Optional

from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.generate import ProgramGenerator
from repro.fuzz.grammar import FuzzProgram
from repro.fuzz.harness import (
    BACKENDS,
    MODES,
    PRESENTATIONS,
    TIERS,
    CaseOutcome,
    CaseSpec,
    Config,
    DifferentialRunner,
    FailureSignature,
    SKIP_EXCEPTIONS,
    full_matrix,
)
from repro.fuzz.render import render_repro_source
from repro.fuzz.report import build_report, write_report
from repro.fuzz.shrink import shrink
from repro.obs.clock import monotonic

#: Always-run anchors: cheapest and most aggressive tier, forward and grad.
_ANCHORS = (
    Config("O0", "forward", "numpy"),
    Config("O3", "forward", "numpy"),
    Config("O0", "grad", "numpy"),
    Config("O3", "grad", "numpy"),
)


def sample_configs(rng: random.Random) -> list[Config]:
    """A deterministic 8-config sample: the four numpy anchors, one vmap and
    one vmap∘grad draw, and two native-backend draws."""
    configs = list(_ANCHORS)
    configs.append(Config(rng.choice(TIERS), "vmap", "numpy"))
    configs.append(Config(rng.choice(TIERS), "vmap_grad", "numpy"))
    configs.append(Config(rng.choice(TIERS), "forward", "cython"))
    configs.append(Config(rng.choice(TIERS), rng.choice(MODES), "cython"))
    seen = set()
    unique = []
    for config in configs:
        if config not in seen:
            seen.add(config)
            unique.append(config)
    return unique


def with_call_boundary_dimension(configs: list[Config]) -> list[Config]:
    """Follow every configuration with one copy per input presentation (the
    ``--call-boundary`` differential dimension)."""
    expanded = []
    for config in configs:
        expanded.append(config)
        expanded.extend(dataclasses.replace(config, presentation=presentation)
                        for presentation in PRESENTATIONS)
    return expanded


def with_wrt_subset_dimension(configs: list[Config], program: FuzzProgram,
                              rng: random.Random) -> list[Config]:
    """Follow every gradient configuration with one differentiating a seeded
    strict subset of the array arguments (the ``--wrt-subset`` dimension)."""
    arrays = [arg.name for arg in program.args if arg.is_array]
    if len(arrays) < 2:
        return configs
    expanded = []
    for config in configs:
        expanded.append(config)
        if config.mode in ("grad", "vmap_grad"):
            chosen = set(rng.sample(arrays, rng.randint(1, len(arrays) - 1)))
            expanded.append(dataclasses.replace(
                config, wrt=tuple(name for name in arrays if name in chosen)))
    return expanded


def run_program(program: FuzzProgram, configs: list[Config],
                ) -> list[CaseOutcome]:
    """All outcomes for one program (a build failure fails every config)."""
    spec = CaseSpec.from_program(program)
    try:
        runner = DifferentialRunner(spec)
    except SKIP_EXCEPTIONS as exc:
        return [CaseOutcome(program=program.name, config=config, status="skip",
                            reason=f"{type(exc).__name__}: {exc}",
                            error_type=type(exc).__name__)
                for config in configs]
    except Exception as exc:  # noqa: BLE001 - build crashes are findings
        return [CaseOutcome(program=program.name, config=config, status="fail",
                            reason=f"build-error: {exc}",
                            error_type=type(exc).__name__)
                for config in configs]
    return [runner.run(config) for config in configs]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzz campaign against the jaxlike oracle.",
    )
    parser.add_argument("--programs", type=int, default=200,
                        help="number of programs (templates included)")
    parser.add_argument("--seed", type=int, default=20260807,
                        help="generator seed (fully determines the run)")
    parser.add_argument("--full-matrix", action="store_true",
                        help="run all 32 configurations per program")
    parser.add_argument("--call-boundary", action="store_true",
                        help="re-run every configuration with its inputs "
                             "strided, Fortran-ordered, as float32 and by "
                             "shuffled keywords")
    parser.add_argument("--wrt-subset", action="store_true",
                        help="re-run every gradient configuration "
                             "differentiating a seeded strict subset of the "
                             "array arguments")
    parser.add_argument("--out", default=None,
                        help="write the run report JSON here")
    parser.add_argument("--corpus-dir", default=None,
                        help="save minimized failures as corpus entries here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing failures")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop shrinking/reporting detail after this many")
    args = parser.parse_args(argv)

    generator = ProgramGenerator(args.seed)
    programs = generator.generate(args.programs)
    matrix = list(full_matrix())
    started = monotonic()
    outcomes: list[CaseOutcome] = []
    failures: list[tuple[FuzzProgram, CaseOutcome]] = []

    for index, program in enumerate(programs):
        if args.full_matrix:
            configs = matrix
        else:
            configs = sample_configs(random.Random(args.seed * 7 + index))
        if args.call_boundary:
            configs = with_call_boundary_dimension(configs)
        if args.wrt_subset:
            configs = with_wrt_subset_dimension(
                configs, program, random.Random(args.seed * 11 + index))
        for outcome in run_program(program, configs):
            outcomes.append(outcome)
            if outcome.status == "fail":
                failures.append((program, outcome))
        if (index + 1) % 25 == 0 or index + 1 == len(programs):
            counts = {"ok": 0, "skip": 0, "fail": 0}
            for outcome in outcomes:
                counts[outcome.status] += 1
            print(f"[{index + 1}/{len(programs)}] "
                  f"ok={counts['ok']} skip={counts['skip']} "
                  f"fail={counts['fail']}", flush=True)

    elapsed = monotonic() - started
    shrunk_info = []
    for program, outcome in failures[:args.max_failures]:
        print(f"\nFAIL {program.name} @ {outcome.config.label()}: "
              f"{outcome.reason}")
        minimized = program
        if not args.no_shrink:
            result = shrink(program, FailureSignature.of(outcome))
            minimized = result.program
            print(f"  shrunk {result.original_statements} -> "
                  f"{result.statements} statements "
                  f"({result.candidates_tried} candidates)")
        print(render_repro_source(minimized))
        if args.corpus_dir:
            entry = CorpusEntry.from_program(
                minimized,
                description=f"fuzzer catch: {outcome.reason}",
                origin=(f"python -m repro.fuzz --seed {args.seed} "
                        f"--programs {args.programs}"),
                configs=[outcome.config.label()],
            )
            path = entry.save(args.corpus_dir)
            print(f"  corpus entry written: {path}")
            shrunk_info.append({"program": program.name, "entry": str(path)})

    extra = {}
    if shrunk_info:
        extra["shrunk"] = shrunk_info
    if args.call_boundary:
        extra["call_boundary_dimension"] = True
    if args.wrt_subset:
        extra["wrt_subset_dimension"] = True
    report = build_report(
        seed=args.seed, program_count=len(programs), outcomes=outcomes,
        elapsed_seconds=elapsed, full_matrix=args.full_matrix,
        extra=extra or None,
    )
    if args.out:
        path = write_report(args.out, report)
        print(f"\nreport written: {path}")
    counts = report["counts"]
    print(f"\n{report['program_count']} programs, {report['checks']} checks: "
          f"{counts['ok']} ok, {counts['skip']} skip "
          f"({len(report['skip_reasons'])} distinct reasons), "
          f"{counts['fail']} fail in {elapsed:.1f}s")
    return 1 if counts["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
