"""Tests for the degradation ladder and failure-aware boosting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.boosting import QueryBoostingStrategy
from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.reliability import FlakyLLM, RetryingLLM, TransientLLMError
from repro.llm.simulated import SimulatedLLM
from repro.ml.mlp import MLPClassifier
from repro.mqo.compression import PromptCompressor
from repro.runtime.fallback import DegradationLadder, FeatureSurrogate
from repro.runtime.results import OUTCOME_TIERS


class AlwaysDownLLM(LLMClient):
    """Every call raises; the ladder is the only way to answer."""

    def __init__(self, inner: LLMClient):
        super().__init__(name="down", tokenizer=inner.tokenizer)
        self.inner = inner
        self.calls = 0

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        self.calls += 1
        raise TransientLLMError("backend down")


class FailFirstCallsLLM(LLMClient):
    """Fails the first ``n`` calls outright, then recovers."""

    def __init__(self, inner: LLMClient, n: int):
        super().__init__(name=f"fail-first-{n}", tokenizer=inner.tokenizer)
        self.inner = inner
        self.n = n
        self.calls = 0

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        self.calls += 1
        if self.calls <= self.n:
            raise TransientLLMError(f"down for call {self.calls}")
        response = self.inner.complete(prompt)
        self.usage.record(response)
        return response


@pytest.fixture()
def tiny_surrogate(tiny_graph, tiny_split):
    clf = MLPClassifier(seed=0, epochs=40)
    labeled = tiny_split.labeled
    clf.fit(
        tiny_graph.features[labeled].astype(np.float64),
        tiny_graph.labels[labeled],
        num_classes=tiny_graph.num_classes,
    )
    return FeatureSurrogate(clf, tiny_graph)


class TestDegradationLadder:
    def test_surrogate_prediction_requires_surrogate(self):
        with pytest.raises(ValueError, match="no surrogate"):
            DegradationLadder(surrogate=None).surrogate_prediction(0)

    def test_degrades_to_pruned_prompt(self, make_tiny_engine, tiny_llm, tiny_split):
        # First call (with neighbors) fails; the zero-shot fallback succeeds.
        llm = FailFirstCallsLLM(tiny_llm, n=1)
        engine = make_tiny_engine(llm=llm, ladder=DegradationLadder())
        record = engine.execute_query(int(tiny_split.queries[0]))
        assert record.outcome == "degraded_pruned"
        assert record.pruned and record.num_neighbors == 0
        assert record.predicted_label is not None
        assert record.total_tokens > 0

    @pytest.mark.parametrize("compress", [False, True])
    def test_failure_walk_skips_compressed_rung(
        self, make_tiny_engine, tiny_llm, tiny_split, compress
    ):
        # A failed call is a provider fault, not a price: even with a
        # compressor at hand the walk goes straight to the pruned prompt.
        llm = FailFirstCallsLLM(tiny_llm, n=1)
        engine = make_tiny_engine(
            llm=llm, ladder=DegradationLadder(), compressor=PromptCompressor(target_ratio=0.5)
        )
        record = engine.execute_query(int(tiny_split.queries[0]), compress=compress)
        assert record.outcome == "degraded_pruned"
        assert record.pruned and not record.compressed
        assert llm.calls == 2

    def test_degrades_to_surrogate(self, make_tiny_engine, tiny_llm, tiny_surrogate, tiny_split):
        engine = make_tiny_engine(
            llm=AlwaysDownLLM(tiny_llm), ladder=DegradationLadder(surrogate=tiny_surrogate)
        )
        record = engine.execute_query(int(tiny_split.queries[0]))
        assert record.outcome == "degraded_surrogate"
        assert record.predicted_label is not None
        assert record.total_tokens == 0  # the surrogate costs no tokens
        assert 0.0 < record.confidence <= 1.0

    def test_degrades_to_abstain(self, make_tiny_engine, tiny_llm, tiny_split):
        engine = make_tiny_engine(
            llm=AlwaysDownLLM(tiny_llm), ladder=DegradationLadder()
        )
        record = engine.execute_query(int(tiny_split.queries[0]))
        assert record.outcome == "abstained"
        assert record.predicted_label is None
        assert not record.correct

    def test_no_ladder_raises(self, make_tiny_engine, tiny_llm, tiny_split):
        engine = make_tiny_engine(llm=AlwaysDownLLM(tiny_llm))
        with pytest.raises(TransientLLMError):
            engine.execute_query(int(tiny_split.queries[0]))
        with pytest.raises(ValueError, match="requires an engine degradation ladder"):
            engine.execute_query(int(tiny_split.queries[0]), on_failure="degrade")

    def test_invalid_on_failure(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine()
        with pytest.raises(ValueError, match="on_failure"):
            engine.execute_query(int(tiny_split.queries[0]), on_failure="explode")

    def test_on_failure_raise_overrides_ladder(self, make_tiny_engine, tiny_llm, tiny_split):
        engine = make_tiny_engine(llm=AlwaysDownLLM(tiny_llm), ladder=DegradationLadder())
        with pytest.raises(TransientLLMError):
            engine.execute_query(int(tiny_split.queries[0]), on_failure="raise")


class TestOutcomeAccounting:
    def test_retried_outcome_tagged(self, make_tiny_engine, tiny_llm, tiny_split):
        flaky = FlakyLLM(tiny_llm, failure_rate=0.5, seed=2)
        engine = make_tiny_engine(llm=RetryingLLM(flaky, max_attempts=8))
        result = engine.run(tiny_split.queries[:20])
        counts = result.outcome_counts
        assert set(counts) == set(OUTCOME_TIERS)
        assert counts["retried"] > 0 and counts["ok"] > 0
        assert sum(counts.values()) == 20
        assert result.num_degraded == 0
        assert result.availability == 1.0

    def test_degraded_run_accounting(self, make_tiny_engine, tiny_llm, tiny_surrogate, tiny_split):
        engine = make_tiny_engine(
            llm=AlwaysDownLLM(tiny_llm), ladder=DegradationLadder(surrogate=tiny_surrogate)
        )
        result = engine.run(tiny_split.queries[:10])
        assert result.outcome_counts["degraded_surrogate"] == 10
        assert result.num_degraded == 10
        assert result.availability == 0.0


class TestBoostingUnderFailures:
    def test_failed_candidates_deferred_to_later_rounds(
        self, make_tiny_engine, tiny_llm, tiny_split
    ):
        llm = FailFirstCallsLLM(tiny_llm, n=3)
        engine = make_tiny_engine(llm=llm)
        queries = tiny_split.queries[:30]
        result = QueryBoostingStrategy(max_deferrals=5).execute(engine, queries)
        # Every query eventually executes, despite the early failures.
        assert result.run.num_queries == len(queries)
        assert {r.node for r in result.run.records} == {int(v) for v in queries}
        assert all(r.outcome == "ok" for r in result.run.records)

    def test_exhausted_deferrals_fall_to_ladder(
        self, make_tiny_engine, tiny_llm, tiny_surrogate, tiny_split
    ):
        engine = make_tiny_engine(
            llm=AlwaysDownLLM(tiny_llm),
            ladder=DegradationLadder(surrogate=tiny_surrogate),
        )
        queries = tiny_split.queries[:15]
        result = QueryBoostingStrategy(max_deferrals=1).execute(engine, queries)
        assert result.run.num_queries == len(queries)
        assert result.run.outcome_counts["degraded_surrogate"] == len(queries)
        # Surrogate answers must never enter the pseudo-label map.
        assert engine.pseudo_labeled == frozenset()

    def test_exhausted_deferrals_without_ladder_propagate(
        self, make_tiny_engine, tiny_llm, tiny_split
    ):
        engine = make_tiny_engine(llm=AlwaysDownLLM(tiny_llm))
        with pytest.raises(TransientLLMError):
            QueryBoostingStrategy(max_deferrals=1).execute(engine, tiny_split.queries[:5])

    def test_invalid_max_deferrals(self):
        with pytest.raises(ValueError):
            QueryBoostingStrategy(max_deferrals=-1)
