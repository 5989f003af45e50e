"""Tests for budget-enforcing execution (the hard constraint of Eq. 2)."""

from __future__ import annotations

import pytest

from repro.core.budget import BudgetLedger
from repro.io.runs import RunCheckpointer
from repro.runtime.scheduler import QueryScheduler


def guarded_engine(make_tiny_engine, budget: float):
    return make_tiny_engine(ledger=BudgetLedger(budget=budget))


class TestBudgetGuard:
    def test_requires_budgeted_ledger(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine()  # no ledger
        with pytest.raises(ValueError, match="ledger"):
            engine.run_with_budget_guard(tiny_split.queries[:2])

    def test_generous_budget_behaves_like_run(self, make_tiny_engine, tiny_split):
        free = make_tiny_engine().run(tiny_split.queries[:15])
        guarded = guarded_engine(make_tiny_engine, budget=10**9).run_with_budget_guard(
            tiny_split.queries[:15]
        )
        assert [r.predicted_label for r in guarded.records] == [
            r.predicted_label for r in free.records
        ]

    @staticmethod
    def _midpoint_budget(make_tiny_engine, queries) -> int:
        """A budget between the all-zero-shot floor and the full cost."""
        full = make_tiny_engine().run(queries).total_tokens
        floor = make_tiny_engine().run(queries, pruned=set(int(v) for v in queries)).total_tokens
        assert floor < full
        return (floor + full) // 2

    def test_budget_never_exceeded(self, make_tiny_engine, tiny_split):
        queries = tiny_split.queries[:30]
        budget = self._midpoint_budget(make_tiny_engine, queries)
        engine = guarded_engine(make_tiny_engine, budget=budget)
        result = engine.run_with_budget_guard(queries)
        assert engine.ledger.spent <= budget
        assert result.num_queries == 30

    def test_downgrades_to_zero_shot_under_pressure(self, make_tiny_engine, tiny_split):
        queries = tiny_split.queries[:30]
        budget = self._midpoint_budget(make_tiny_engine, queries)
        engine = guarded_engine(make_tiny_engine, budget=budget)
        result = engine.run_with_budget_guard(queries)
        downgraded = sum(r.pruned for r in result.records)
        assert downgraded > 0

    def test_raises_when_floor_does_not_fit(self, make_tiny_engine, tiny_split):
        engine = guarded_engine(make_tiny_engine, budget=600)  # ~1-2 queries worth
        with pytest.raises(RuntimeError, match="zero-shot floor"):
            engine.run_with_budget_guard(tiny_split.queries[:30])
        # Guard refuses before spending a single token.
        assert engine.ledger.spent == 0

    def test_negative_reserve_rejected(self, make_tiny_engine, tiny_split):
        engine = guarded_engine(make_tiny_engine, budget=10**6)
        with pytest.raises(ValueError):
            engine.run_with_budget_guard(tiny_split.queries[:2], completion_reserve=-1)

    @pytest.mark.parametrize("scheduler", [None, "simulated", "threads"])
    def test_empty_query_list_completes(self, make_tiny_engine, tmp_path, scheduler):
        engine = make_tiny_engine(
            ledger=BudgetLedger(budget=10**6),
            scheduler=QueryScheduler(mode=scheduler) if scheduler else None,
        )
        path = tmp_path / "guard.json"
        result = engine.run_with_budget_guard([], checkpointer=RunCheckpointer(path))
        assert result.num_queries == 0
        assert engine.ledger.spent == 0
        # Sealed exactly as ``engine.run([])`` seals it.
        assert RunCheckpointer(path).state.completed is True
