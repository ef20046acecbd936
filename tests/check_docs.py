"""Documentation link and coverage checker: ``python -m tests.check_docs``.

Verifies, for every Markdown file in ``docs/`` plus ``README.md`` and
``ROADMAP.md``:

* every relative Markdown link ``[text](target)`` resolves to an existing
  file (fragments are stripped; absolute URLs are ignored);
* every backticked code reference that names a file or directory
  (``src/repro/passes/gvn.py``, ``benchmarks/``, ``repro/pipeline/`` —
  package-relative paths are also tried under ``src/``) exists;
* ``path.py::identifier`` test references point at existing files.

Plus two coverage directions (so docs rot in *either* direction fails CI):

* every ``benchmarks/bench_*.py`` script is documented in
  ``docs/benchmarks.md`` (stale/renamed script names there already fail the
  existence check above);
* every public module under ``src/repro/passes/`` and
  ``src/repro/pipeline/`` is mentioned in at least one ``docs/*.md`` file.

Exits non-zero listing every broken reference, so CI fails when docs rot.
Also importable as pytest tests (``test_docs_links_resolve``,
``test_docs_cover_benchmarks_and_modules``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose references are checked.
DOC_FILES = sorted(Path(REPO_ROOT, "docs").glob("*.md")) + [
    REPO_ROOT / "README.md",
    REPO_ROOT / "ROADMAP.md",
]

#: Packages whose public modules must each be documented somewhere in docs/.
DOCUMENTED_PACKAGES = (
    "src/repro/passes",
    "src/repro/pipeline",
    "src/repro/batching",
    "src/repro/codegen",
    "src/repro/codegen/cython_backend",
    "src/repro/fuzz",
    "src/repro/obs",
    "src/repro/serve",
    "src/repro/faults",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_RE = re.compile(r"`([^`\n]+)`")
#: Backticked strings treated as path references.
_PATHLIKE_RE = re.compile(r"^[\w./-]+(\.py|\.md|/)(::[\w:.]+)?$")


def _exists_as_path(ref: str) -> bool:
    ref = ref.split("::")[0]
    candidates = [REPO_ROOT / ref]
    if not ref.startswith(("src/", "docs/", "tests/", "benchmarks/", "examples/")):
        candidates.append(REPO_ROOT / "src" / ref)
    return any(c.exists() for c in candidates)


def check_file(path: Path) -> list[str]:
    """All broken references in one Markdown file (empty = clean)."""
    errors = []
    text = path.read_text(encoding="utf-8")

    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#")[0]
        if not target:
            continue  # same-file anchor
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")

    for match in _CODE_RE.finditer(text):
        ref = match.group(1)
        if not _PATHLIKE_RE.match(ref) or "/" not in ref:
            continue
        if not _exists_as_path(ref):
            errors.append(f"{path.relative_to(REPO_ROOT)}: missing code reference -> {ref}")
    return errors


def check_benchmark_coverage() -> list[str]:
    """Every benchmark script must be documented in docs/benchmarks.md."""
    page = REPO_ROOT / "docs" / "benchmarks.md"
    if not page.exists():
        return ["docs/benchmarks.md is missing (benchmark index page)"]
    text = page.read_text(encoding="utf-8")
    errors = []
    for script in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        if script.name not in text:
            errors.append(
                f"docs/benchmarks.md: benchmarks/{script.name} is not documented"
            )
    return errors


def check_module_coverage() -> list[str]:
    """Every public module of the documented packages must appear in docs/."""
    docs_text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(REPO_ROOT, "docs").glob("*.md"))
    )
    errors = []
    for package in DOCUMENTED_PACKAGES:
        for module in sorted((REPO_ROOT / package).glob("*.py")):
            if module.name.startswith("_"):
                continue  # __init__ and private helpers
            relative = f"{package.removeprefix('src/')}/{module.name}"
            if relative not in docs_text:
                errors.append(
                    f"docs/: public module {package}/{module.name} is mentioned "
                    f"in no docs page (expected the string {relative!r})"
                )
    return errors


def run() -> int:
    all_errors = []
    for path in DOC_FILES:
        all_errors.extend(check_file(path))
    all_errors.extend(check_benchmark_coverage())
    all_errors.extend(check_module_coverage())
    if all_errors:
        print(f"check_docs: {len(all_errors)} broken reference(s):", file=sys.stderr)
        for error in all_errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"check_docs: {len(DOC_FILES)} files, all links and code references resolve")
    return 0


def test_docs_links_resolve():
    """Pytest entry point: the docs must contain no broken references."""
    errors = []
    for path in DOC_FILES:
        errors.extend(check_file(path))
    assert not errors, "\n".join(errors)


def test_docs_cover_benchmarks_and_modules():
    """Pytest entry point: every benchmark script and every public
    passes/pipeline module must be documented."""
    errors = check_benchmark_coverage() + check_module_coverage()
    assert not errors, "\n".join(errors)


if __name__ == "__main__":
    sys.exit(run())
