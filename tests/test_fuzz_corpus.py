"""Replay of the minimized-failure corpus (``tests/corpus/fuzz/``).

Every JSON file in the corpus is a fuzzer catch or a hand-seeded known-gap
case; replaying the directory here makes each one a permanent tier-1
regression test.  See ``docs/fuzzing.md`` for how entries are produced.
"""

import pytest

from repro.fuzz import (
    CorpusEntry,
    build_sdfg,
    default_corpus_dir,
    load_corpus,
    load_entry,
    verify_entry,
)
from repro.pipeline.driver import compile_forward

CORPUS = load_corpus()


def _entry(name):
    return next(e for e in CORPUS if e.name == name)


def test_corpus_is_seeded():
    """The hand-seeded cases from the fuzzer bring-up must be present."""
    names = {entry.name for entry in CORPUS}
    assert {
        "min_matmul_tie_gradient",
        "seed_hdiff_partial_window",
        "negative_step_slice_rejected",
        "seed_branch_between_producer_consumer",
        "seed_partial_overwrite_wrt_subset",
    } <= names


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_entry_replays(entry):
    """Agree-entries match the oracle on their config list (recorded skips
    allowed, divergence not); reject-entries raise the recorded error."""
    outcomes = verify_entry(entry)
    for outcome in outcomes:
        if outcome.status == "skip":
            assert outcome.reason, (
                f"{entry.name} @ {outcome.config.label()}: skip without reason"
            )


def test_entries_round_trip_through_json():
    for entry in CORPUS:
        clone = CorpusEntry.from_dict(entry.to_dict())
        assert clone.to_dict() == entry.to_dict()
        assert [a.to_dict() for a in clone.args] == \
            [a.to_dict() for a in entry.args]


def test_corpus_files_parse_individually():
    for path in sorted(default_corpus_dir().glob("*.json")):
        entry = load_entry(path)
        assert entry.name == path.stem, (
            f"{path.name}: file name must match entry name {entry.name!r}"
        )


def test_hdiff_partial_window_stays_unfused_at_o3():
    """The partial-window Laplacian producer must be *declined* by O3
    stencil fusion (fusing past the shrunken [1:-1, 1:-1] write would read
    uninitialised halo values) — while test_corpus_entry_replays above
    checks the values still agree at O3."""
    entry = _entry("seed_hdiff_partial_window")
    sdfg = build_sdfg(entry.repro_source, entry.args, entry.dtype, entry.name)
    outcome = compile_forward(sdfg, "O3", cache=False)
    info = outcome.report.record_for("map-fusion").info
    assert info["fused_stencil"] == 0


def test_min_matmul_tie_entry_records_its_provenance():
    """The fuzz-surfaced gradient bug keeps its discovery trail: seed,
    command line, and shrinker statistics live in the entry's origin."""
    entry = _entry("min_matmul_tie_gradient")
    assert "--seed 1" in entry.origin
    assert "shrink" in entry.origin
    assert entry.repro_source.count("\n") <= 10  # minimized, not the original
