"""Tests for the analysis package (breakdowns, comparisons, costs)."""

from __future__ import annotations

import pytest

from repro.analysis.breakdowns import accuracy_by_neighbor_count
from repro.analysis.comparison import compare_runs, mcnemar_counts
from repro.analysis.costs import cost_summary, extrapolate_cost
from repro.runtime.results import QueryRecord, RunResult


def record(node, true=0, pred=0, pt=100, ct=5, labels=0, rnd=None):
    return QueryRecord(
        node=node,
        true_label=true,
        predicted_label=pred,
        prompt_tokens=pt,
        completion_tokens=ct,
        num_neighbors=labels,
        num_neighbor_labels=labels,
        num_pseudo_labels=0,
        round_index=rnd,
    )


@pytest.fixture()
def run() -> RunResult:
    return RunResult(
        [
            record(0, true=0, pred=0, labels=0, rnd=0),
            record(1, true=0, pred=1, labels=1, rnd=0),
            record(2, true=1, pred=1, labels=1, rnd=1),
            record(3, true=1, pred=1, labels=2, rnd=1),
        ]
    )


class TestBreakdowns:
    def test_accuracy_by_neighbor_count(self, run):
        by_count = accuracy_by_neighbor_count(run)
        assert by_count[0] == (1.0, 1)
        assert by_count[1] == (0.5, 2)
        assert by_count[2] == (1.0, 1)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            accuracy_by_neighbor_count(RunResult())


class TestComparison:
    def test_mcnemar_counts(self, run):
        candidate = RunResult(
            [
                record(0, true=0, pred=1),  # broken
                record(1, true=0, pred=0),  # fixed
                record(2, true=1, pred=1),  # both correct
                record(3, true=1, pred=0),  # broken
            ]
        )
        fixed, broken, both_correct, both_wrong = mcnemar_counts(run, candidate)
        assert (fixed, broken, both_correct, both_wrong) == (1, 2, 1, 0)

    def test_compare_runs(self, run):
        candidate = RunResult(
            [record(i, true=r.true_label, pred=r.true_label, pt=50) for i, r in enumerate(run.records)]
        )
        comparison = compare_runs(run, candidate)
        assert comparison.candidate_accuracy == 1.0
        assert comparison.fixed == 1 and comparison.broken == 0
        assert comparison.net_fixed == 1
        assert comparison.token_delta < 0
        assert comparison.accuracy_delta == pytest.approx(0.25)

    def test_mismatched_query_sets_rejected(self, run):
        other = RunResult([record(99)])
        with pytest.raises(ValueError, match="different query sets"):
            mcnemar_counts(run, other)


class TestCosts:
    def test_cost_summary(self, run):
        summary = cost_summary(run, "gpt-3.5")
        assert summary.num_queries == 4
        assert summary.prompt_tokens == 400
        assert summary.total_usd == pytest.approx(
            400 / 1000 * 0.0005 + 20 / 1000 * 0.0015
        )
        assert summary.tokens_per_query == pytest.approx(105.0)

    def test_extrapolation_matches_paper_magnitudes(self):
        """1,200-token queries at GPT-3.5 pricing -> $6,000 for 10M queries."""
        run = RunResult([record(0, pt=1200, ct=0)])
        summary = cost_summary(run, "gpt-3.5")
        assert extrapolate_cost(summary, 10_000_000) == pytest.approx(6000.0)

    def test_extrapolation_rejects_negative(self, run):
        with pytest.raises(ValueError):
            extrapolate_cost(cost_summary(run, "gpt-3.5"), -1)

    def test_empty_run(self):
        with pytest.raises(ValueError):
            cost_summary(RunResult(), "gpt-3.5")
