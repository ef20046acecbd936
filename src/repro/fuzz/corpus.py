"""The regression corpus: minimized fuzzer catches as JSON files.

Every failure the fuzzer finds (and every hand-seeded known-gap case) is
serialized as one :class:`CorpusEntry` JSON file under
``tests/corpus/fuzz/``; ``tests/test_fuzz_corpus.py`` replays the whole
directory on every test run, so a fuzzer catch becomes a permanent tier-1
regression test the moment its file is committed.

Entries store *rendered sources* (the imperative frontend form and the
functional oracle form), not grammar trees — replay goes through exactly
the same :class:`~repro.fuzz.harness.CaseSpec` path as a fresh fuzz run,
and entries remain valid even if the generator's internals change.

Two expectations are supported:

* ``"agree"`` — compile under the entry's configurations (default: the
  full matrix) and match the oracle; recorded
  ``UnsupportedFeatureError``/``AutodiffError`` skips are allowed, silent
  divergence is not.
* ``"frontend-rejects"`` — the frontend must refuse the program with the
  named error type (e.g. negative-step slices raising
  ``UnsupportedFeatureError``) rather than miscompiling it.

``origin`` records provenance (generator seed and program index, or
"hand-seeded: <reason>"), so any entry can be traced back to the run that
found it — see ``docs/fuzzing.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.fuzz.grammar import ArgSpec, FuzzProgram
from repro.fuzz.harness import (
    CaseOutcome,
    CaseSpec,
    Config,
    PRESENTATIONS,
    full_matrix,
    run_case,
)
from repro.fuzz.render import build_sdfg, render_oracle_source, render_repro_source


def default_corpus_dir() -> Path:
    """``tests/corpus/fuzz`` relative to the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "corpus" / "fuzz"


def parse_config(label: str) -> Config:
    """Inverse of :meth:`Config.label` (``"O3/grad/numpy"``, optionally
    followed by a ``plan-on``/``plan-off`` and a ``call-<presentation>``
    segment)."""
    tier, mode, backend, *extra = label.split("/")
    planning = presentation = None
    call_segments = {f"call-{name}": name for name in PRESENTATIONS}
    for segment in extra:
        if segment in ("plan-on", "plan-off") and planning is None:
            planning = segment == "plan-on"
        elif segment in call_segments and presentation is None:
            presentation = call_segments[segment]
        else:
            raise ValueError(f"Unknown segment {segment!r} in config {label!r}")
    return Config(tier, mode, backend, planning, presentation)


@dataclass
class CorpusEntry:
    """One replayable regression case."""

    name: str
    description: str
    dtype: str
    args: list[ArgSpec]
    symbols: dict[str, int]
    repro_source: str
    oracle_source: str
    data_seed: int = 0
    batch: int = 2
    atol: Optional[float] = None
    #: Config labels to replay; ``None`` means the full matrix.
    configs: Optional[list[str]] = None
    expect: str = "agree"  # "agree" | "frontend-rejects"
    expect_error: str = "UnsupportedFeatureError"
    origin: str = ""
    extra: dict = field(default_factory=dict)

    # ------------------------------------------------------------- building
    @classmethod
    def from_program(cls, program: FuzzProgram, *, description: str,
                     origin: str, configs: Optional[list[str]] = None,
                     batch: int = 2) -> "CorpusEntry":
        return cls(
            name=program.name,
            description=description,
            dtype=program.dtype,
            args=list(program.args),
            symbols=dict(program.symbols),
            repro_source=render_repro_source(program),
            oracle_source=render_oracle_source(program),
            data_seed=program.data_seed,
            batch=batch,
            configs=configs,
            origin=origin,
        )

    def spec(self) -> CaseSpec:
        return CaseSpec(
            name=self.name, dtype=self.dtype, args=list(self.args),
            symbols=dict(self.symbols), repro_source=self.repro_source,
            oracle_source=self.oracle_source, data_seed=self.data_seed,
            batch=self.batch, atol=self.atol,
        )

    def config_list(self) -> list[Config]:
        if self.configs is None:
            return list(full_matrix())
        return [parse_config(label) for label in self.configs]

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "description": self.description,
            "dtype": self.dtype,
            "args": [arg.to_dict() for arg in self.args],
            "symbols": dict(self.symbols),
            "repro_source": self.repro_source,
            "oracle_source": self.oracle_source,
            "data_seed": self.data_seed,
            "batch": self.batch,
            "expect": self.expect,
            "origin": self.origin,
        }
        if self.atol is not None:
            payload["atol"] = self.atol
        if self.configs is not None:
            payload["configs"] = list(self.configs)
        if self.expect == "frontend-rejects":
            payload["expect_error"] = self.expect_error
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusEntry":
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            dtype=payload["dtype"],
            args=[ArgSpec.from_dict(arg) for arg in payload["args"]],
            symbols={k: int(v) for k, v in payload["symbols"].items()},
            repro_source=payload["repro_source"],
            oracle_source=payload["oracle_source"],
            data_seed=int(payload.get("data_seed", 0)),
            batch=int(payload.get("batch", 2)),
            atol=payload.get("atol"),
            configs=payload.get("configs"),
            expect=payload.get("expect", "agree"),
            expect_error=payload.get("expect_error", "UnsupportedFeatureError"),
            origin=payload.get("origin", ""),
            extra=payload.get("extra", {}),
        )

    def save(self, directory: Optional[Path] = None) -> Path:
        directory = Path(directory) if directory else default_corpus_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def load_entry(path: os.PathLike) -> CorpusEntry:
    with open(path) as handle:
        return CorpusEntry.from_dict(json.load(handle))


def load_corpus(directory: Optional[Path] = None) -> list[CorpusEntry]:
    """All corpus entries, sorted by file name for deterministic replay."""
    directory = Path(directory) if directory else default_corpus_dir()
    if not directory.is_dir():
        return []
    return [load_entry(path) for path in sorted(directory.glob("*.json"))]


def verify_entry(entry: CorpusEntry) -> list[CaseOutcome]:
    """Replay one entry; raise ``AssertionError`` if its expectation breaks.

    Returns the per-config outcomes for ``"agree"`` entries (skips carry
    their recorded reasons) and ``[]`` for ``"frontend-rejects"`` entries.
    """
    if entry.expect == "frontend-rejects":
        try:
            build_sdfg(entry.repro_source, entry.args, entry.dtype, entry.name)
        except Exception as exc:  # noqa: BLE001 - type-checked below
            if type(exc).__name__ != entry.expect_error:
                raise AssertionError(
                    f"{entry.name}: expected {entry.expect_error}, got "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            return []
        raise AssertionError(
            f"{entry.name}: frontend accepted a program it must reject "
            f"({entry.expect_error})"
        )
    outcomes = run_case(entry.spec(), entry.config_list())
    failures = [outcome for outcome in outcomes if outcome.status == "fail"]
    if failures:
        details = "; ".join(
            f"{outcome.config.label()}: {outcome.reason}" for outcome in failures
        )
        raise AssertionError(f"{entry.name}: {details}")
    return outcomes


__all__ = [
    "CorpusEntry",
    "default_corpus_dir",
    "load_corpus",
    "load_entry",
    "parse_config",
    "verify_entry",
]
