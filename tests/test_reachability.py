"""Every public top-level function and class in ``src/repro`` is reached
from an entry point, not from tests alone.

The census is static: it parses every module and counts a name as
referenced wherever it appears as a ``Name`` or an ``Attribute`` outside its
own definition.  Imports, ``__all__`` entries, comments and docstrings do not
count.  The entry points are the package itself (CLI, experiments, every
library caller), ``benchmarks/``, ``perfbench/`` and ``examples/``.  A name
that only ``tests/`` reference is code that no run executes: delete it with
its tests, or, when tests use it as a reference oracle, list it in
:data:`TEST_ORACLES` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ENTRY_DIRS = (ROOT / "src", ROOT / "benchmarks", ROOT / "perfbench", ROOT / "examples")

#: Public names kept although no entry point calls them, each with its reason.
TEST_ORACLES = {
    "load_run": "the only reader of the checksummed run file `classify --save-run` writes",
    "cosine_similarity": "the pairwise reference `pairwise_cosine` is checked against",
    "shared_prefix_tokens": "two-prompt reference for the prefix planner's token counts",
    "budget_for_tau": "inverse of `tau_for_budget`; the budget properties check one by the other",
    "reconcile_with_ledger": "checks trace attribution against a run's live BudgetLedger",
    "reconcile_with_book": "checks trace attribution against a serve run's live LedgerBook",
    "FeatureSurrogate": "adapts a bare classifier so ladder tests can stand in for the scorer",
    "SQLiteCacheStore": "persistent CacheStore documented in docs/cluster.md for library use",
}


def _public_definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Top-level public defs: name -> [(module, first line, last line)]."""
    found: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    span = (path, node.lineno, node.end_lineno)
                    found.setdefault(node.name, []).append(span)
    return found


def _referenced(directories, definitions) -> set[str]:
    """Names used in ``directories``, not counting uses inside their own def."""
    own: dict[Path, list[tuple[str, int, int]]] = {}
    for name, spans in definitions.items():
        for path, first, last in spans:
            own.setdefault(path, []).append((name, first, last))
    names: set[str] = set()
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            inside = own.get(path, [])
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if any(n == name and a <= node.lineno <= b for n, a, b in inside):
                    continue
                names.add(name)
    return names


def _unreached() -> set[str]:
    definitions = _public_definitions()
    return set(definitions) - _referenced(ENTRY_DIRS, definitions)


def test_no_public_name_is_reached_from_tests_alone():
    unreached = _unreached() - set(TEST_ORACLES)
    assert not unreached, (
        f"no entry point references {sorted(unreached)}: delete them with their "
        "tests, or list a reference oracle in TEST_ORACLES with its reason"
    )


def test_every_listed_oracle_is_still_unreached_and_tested():
    unreached = _unreached()
    stale = sorted(set(TEST_ORACLES) - unreached)
    assert not stale, f"entry points reach (or no longer define) {stale}; unlist them"
    untested = sorted(set(TEST_ORACLES) - _referenced([ROOT / "tests"], _public_definitions()))
    assert not untested, f"no test uses the oracles {untested}; delete them"
