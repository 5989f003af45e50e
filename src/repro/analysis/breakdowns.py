"""Per-group breakdowns of a run's records.

These slice a :class:`~repro.runtime.results.RunResult` the way the paper's
analysis sections do: by neighbor-label availability (the Fig. 3 grouping).
"""

from __future__ import annotations

from collections import defaultdict

from repro.runtime.results import QueryRecord, RunResult


def _grouped(records: list[QueryRecord], key) -> dict:
    groups: dict = defaultdict(list)
    for record in records:
        groups[key(record)].append(record)
    return groups


def _accuracy(records: list[QueryRecord]) -> float:
    return sum(r.correct for r in records) / len(records)


def accuracy_by_neighbor_count(result: RunResult) -> dict[int, tuple[float, int]]:
    """Accuracy grouped by how many neighbor labels the prompt carried."""
    if not result.records:
        raise ValueError("empty run")
    return {
        count: (_accuracy(records), len(records))
        for count, records in sorted(_grouped(result.records, lambda r: r.num_neighbor_labels).items())
    }
