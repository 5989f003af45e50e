"""Multi-model cascade router: policy, aggregation, engine integration."""

from __future__ import annotations

import math

import pytest

from repro.core.boosting import QueryBoostingStrategy
from repro.core.budget import BudgetLedger
from repro.io.runs import RunCheckpointer
from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.pricing import cost_usd
from repro.llm.profiles import make_model
from repro.runtime.router import (
    CascadeRouter,
    EscalationPolicy,
    RoutedResponse,
    RouterTier,
    TierAttempt,
)


class ScriptedLLM(LLMClient):
    """Returns a fixed (text, confidence) regardless of prompt."""

    def __init__(self, name: str, text: str, confidence: float | None = None):
        super().__init__(name)
        self.text = text
        self.confidence = confidence

    def _complete(self, prompt: str) -> str:
        return self.text

    def _complete_with_confidence(self, prompt: str):
        return self.text, self.confidence


def two_tiers(
    cheap_text="Category: Alpha",
    cheap_conf=0.9,
    strong_text="Category: Beta",
    strong_conf=0.95,
):
    return [
        RouterTier("cheap-sim", ScriptedLLM("cheap-sim", cheap_text, cheap_conf)),
        RouterTier("strong-sim", ScriptedLLM("strong-sim", strong_text, strong_conf)),
    ]


CLASSES = ["Alpha", "Beta", "Gamma", "Delta"]


class TestEscalationPolicy:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="escalate_on"):
            EscalationPolicy(escalate_on="sometimes")

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(ValueError, match="confidence_threshold"):
            EscalationPolicy(confidence_threshold=1.5)

    def test_entry_tier_jumps_on_high_inadequacy(self):
        policy = EscalationPolicy(inadequacy_threshold=0.5)
        assert policy.entry_tier(0.2, num_tiers=3) == 0
        assert policy.entry_tier(0.5, num_tiers=3) == 2
        assert policy.entry_tier(None, num_tiers=3) == 0

    def test_entry_rule_disabled_under_confidence_only(self):
        policy = EscalationPolicy(escalate_on="confidence")
        assert policy.entry_tier(0.99, num_tiers=2) == 0

    def test_escalation_reasons(self):
        policy = EscalationPolicy(confidence_threshold=0.6)
        low = LLMResponse("Category: Alpha", 10, 3, confidence=0.3)
        high = LLMResponse("Category: Alpha", 10, 3, confidence=0.9)
        assert policy.escalation_reason(low, predicted=0, parse_checked=True) == "low_confidence"
        assert policy.escalation_reason(high, predicted=0, parse_checked=True) is None
        assert policy.escalation_reason(high, predicted=None, parse_checked=True) == "abstain"
        # No class names -> abstention rule off; confidence still applies.
        assert policy.escalation_reason(high, predicted=None, parse_checked=False) is None
        assert policy.escalation_reason(low, predicted=None, parse_checked=False) == "low_confidence"

    def test_never_mode_pins_cheap_tier(self):
        policy = EscalationPolicy(escalate_on="never")
        assert policy.entry_tier(0.99, num_tiers=2) == 0
        bad = LLMResponse("nonsense", 10, 3, confidence=0.0)
        assert policy.escalation_reason(bad, predicted=None, parse_checked=True) is None

    def test_confidence_none_never_escalates(self):
        policy = EscalationPolicy(confidence_threshold=0.99)
        blind = LLMResponse("Category: Alpha", 10, 3, confidence=None)
        assert policy.escalation_reason(blind, predicted=0, parse_checked=True) is None


class TestCascadeRouter:
    def test_requires_tiers_and_unique_names(self):
        with pytest.raises(ValueError, match="at least one tier"):
            CascadeRouter([])
        tier = RouterTier("dup", ScriptedLLM("dup", "x"))
        with pytest.raises(ValueError, match="unique"):
            CascadeRouter([tier, tier])

    def test_confident_cheap_answer_stops_at_entry_tier(self):
        router = CascadeRouter(two_tiers(), class_names=CLASSES)
        routed = router.complete(0, "classify this")
        assert routed.tier == "cheap-sim"
        assert routed.escalations == 0
        assert routed.text == "Category: Alpha"
        assert len(routed.attempts) == 1

    def test_low_confidence_escalates_and_aggregates_tokens(self):
        router = CascadeRouter(two_tiers(cheap_conf=0.2), class_names=CLASSES)
        routed = router.complete(0, "classify this")
        assert routed.tier == "strong-sim"
        assert routed.escalations == 1
        assert routed.attempts[0].reason == "low_confidence"
        # Both tier attempts are paid for.
        expected = sum(a.prompt_tokens + a.completion_tokens for a in routed.attempts)
        assert routed.total_tokens == expected
        assert len(routed.attempts) == 2

    def test_abstention_escalates(self):
        router = CascadeRouter(
            two_tiers(cheap_text="no category here", cheap_conf=0.99),
            class_names=CLASSES,
        )
        routed = router.complete(0, "classify this")
        assert routed.tier == "strong-sim"
        assert routed.attempts[0].reason == "abstain"

    def test_terminal_tier_never_escalates(self):
        router = CascadeRouter(
            two_tiers(cheap_conf=0.1, strong_text="gibberish", strong_conf=0.1),
            class_names=CLASSES,
        )
        routed = router.complete(0, "classify this")
        assert routed.tier == "strong-sim"
        assert routed.escalations == 1
        assert routed.attempts[-1].reason is None

    def test_high_inadequacy_enters_strong_tier_directly(self):
        router = CascadeRouter(
            two_tiers(),
            policy=EscalationPolicy(inadequacy_threshold=0.5),
            inadequacy={7: 0.9, 8: 0.1},
            class_names=CLASSES,
        )
        hard = router.complete(7, "classify this")
        easy = router.complete(8, "classify this")
        assert hard.entry_tier_index == 1 and hard.escalations == 0
        assert hard.tier == "strong-sim"
        assert len(hard.attempts) == 1  # no wasted cheap call
        assert easy.entry_tier_index == 0 and easy.tier == "cheap-sim"

    def test_priced_tiers_charge_real_dollars(self):
        tiers = [
            RouterTier("gpt-4o-mini", ScriptedLLM("gpt-4o-mini", "Category: Alpha", 0.1)),
            RouterTier("gpt-3.5", ScriptedLLM("gpt-3.5", "Category: Beta", 0.9)),
        ]
        router = CascadeRouter(tiers, class_names=CLASSES)
        routed = router.complete(0, "classify this")
        a0, a1 = routed.attempts
        expected = cost_usd("gpt-4o-mini", a0.prompt_tokens, a0.completion_tokens) + cost_usd(
            "gpt-3.5", a1.prompt_tokens, a1.completion_tokens
        )
        assert math.isclose(routed.cost_usd, expected)

    def test_unpriced_tiers_cost_zero(self):
        router = CascadeRouter(two_tiers(), class_names=CLASSES)
        assert router.complete(0, "classify this").cost_usd == 0.0

    def test_stats_and_replay_accounting(self):
        router = CascadeRouter(two_tiers(cheap_conf=0.2), class_names=CLASSES)
        router.complete(0, "classify this")
        router.note_replayed("cheap-sim")
        router.note_replayed(None)  # pre-router records carry no tier
        stats = router.stats()
        assert stats["resolved_by_tier"] == {"cheap-sim": 0, "strong-sim": 1}
        assert stats["replayed_by_tier"] == {"cheap-sim": 1, "strong-sim": 0}
        assert stats["escalations"] == 1

class TestRoutedEngine:
    def make_router(self, tag, inadequacy=None, confidence_threshold=0.6):
        return CascadeRouter(
            [
                RouterTier("gpt-4o-mini", make_model("gpt-4o-mini", tag.vocabulary, seed=21)),
                RouterTier("gpt-3.5", make_model("gpt-3.5", tag.vocabulary, seed=5)),
            ],
            policy=EscalationPolicy(
                escalate_on="both",
                inadequacy_threshold=0.7,
                confidence_threshold=confidence_threshold,
            ),
            inadequacy=inadequacy,
            class_names=list(tag.graph.class_names),
        )

    def test_records_carry_cascade_provenance(self, make_tiny_engine, tiny_tag, tiny_split):
        router = self.make_router(
            tiny_tag, inadequacy={int(v): (int(v) % 10) / 10 for v in tiny_split.queries}
        )
        engine = make_tiny_engine(router=router)
        result = engine.run(tiny_split.queries[:16])
        assert all(r.tier in ("gpt-4o-mini", "gpt-3.5") for r in result.records)
        assert sum(result.tier_counts.values()) == 16
        assert result.routed_cost_usd is not None and result.routed_cost_usd > 0
        for r in result.records:
            if r.escalations > 0:
                # An escalated record paid at least two prompt passes.
                assert r.tier == "gpt-3.5"

    def test_ledger_charges_tokens_and_dollars_once(
        self, make_tiny_engine, tiny_tag, tiny_split
    ):
        router = self.make_router(tiny_tag)
        engine = make_tiny_engine(router=router)
        engine.ledger = BudgetLedger()
        result = engine.run(tiny_split.queries[:10])
        assert engine.ledger.charges == 10
        assert engine.ledger.spent == result.total_tokens
        assert math.isclose(engine.ledger.spent_usd, result.routed_cost_usd)

    def test_boosting_pseudo_labels_record_producing_tier(
        self, make_tiny_engine, tiny_tag, tiny_split
    ):
        router = self.make_router(tiny_tag)
        engine = make_tiny_engine(router=router)
        boosted = QueryBoostingStrategy().execute(engine, tiny_split.queries[:12])
        assert all(r.tier is not None for r in boosted.run.records)
        # Each published pseudo-label traces back to a record with a tier.
        by_node = {r.node: r for r in boosted.run.records}
        assert engine._pseudo, "boosting published no pseudo-labels"
        for node in engine._pseudo:
            assert by_node[node].tier in ("gpt-4o-mini", "gpt-3.5")

    def test_resume_replays_tier_decisions_without_duplicate_calls(
        self, make_tiny_engine, tiny_tag, tiny_split, tmp_path
    ):
        queries = tiny_split.queries[:12]
        inadequacy = {int(v): (int(v) % 10) / 10 for v in queries}

        # Fresh full run: the reference execution.
        fresh_router = self.make_router(tiny_tag, inadequacy=inadequacy)
        fresh = make_tiny_engine(router=fresh_router).run(queries)

        # Interrupted run: first half persists, then a brand-new stack resumes.
        path = tmp_path / "ckpt.json"
        half_router = self.make_router(tiny_tag, inadequacy=inadequacy)
        make_tiny_engine(router=half_router).run(
            queries[:6], checkpointer=RunCheckpointer(path)
        )

        resumed_router = self.make_router(tiny_tag, inadequacy=inadequacy)
        resumed_engine = make_tiny_engine(router=resumed_router)
        resumed = resumed_engine.run(queries, checkpointer=RunCheckpointer(path))

        assert [
            (r.node, r.predicted_label, r.tier, r.escalations, r.cost_usd)
            for r in resumed.records
        ] == [
            (r.node, r.predicted_label, r.tier, r.escalations, r.cost_usd)
            for r in fresh.records
        ]
        # Replayed records issued zero LLM calls on the resumed stack: the
        # tier clients only ever saw the 6 not-yet-checkpointed queries.
        stats = resumed_router.stats()
        executed = sum(stats["resolved_by_tier"].values())
        assert executed == 6
        assert sum(stats["replayed_by_tier"].values()) == 6
        total_calls = sum(t.llm.usage.num_queries for t in resumed_router.tiers)
        attempts = 6 + stats["escalations"]
        assert total_calls == attempts

    def test_routed_response_duck_types_llm_response(self):
        routed = RoutedResponse(
            text="Category: Alpha",
            prompt_tokens=10,
            completion_tokens=4,
            confidence=0.8,
            tier="strong-sim",
            tier_index=1,
            entry_tier_index=0,
            escalations=1,
            cost_usd=0.0,
            attempts=(
                TierAttempt("cheap-sim", 5, 2, 0.1, 0.0, True, "low_confidence"),
                TierAttempt("strong-sim", 5, 2, 0.8, 0.0, False, None),
            ),
        )
        assert routed.total_tokens == 14
