"""Tests for the multi-tenant serving layer (admission, fairness, budgets)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.budget import BudgetLedger, LedgerBook
from repro.llm.reliability import SimulatedClock
from repro.obs import Instrumentation
from repro.runtime.fallback import DegradationLadder
from repro.runtime.results import OUTCOME_TIERS
from repro.runtime.serve import (
    ADMISSION_DECISIONS,
    SERVE_STATUSES,
    AdmissionPolicy,
    ServeOutcome,
    ServeRequest,
    ServingLayer,
    TenantSpec,
    load_requests,
    save_requests,
    synthetic_stream,
)

REJECT_TIERS = tuple(d for d in ADMISSION_DECISIONS if d.startswith("rejected"))
DEGRADED_TIERS = ("degraded_pruned", "degraded_surrogate", "abstained")


class _StubSurrogate:
    """Always predicts class 0 with full confidence."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes

    def predict_proba(self, nodes):
        probs = np.zeros((len(nodes), self.num_classes))
        probs[:, 0] = 1.0
        return probs


def make_layer(make_tiny_engine, tenants, policy=None, ladder=None, **kwargs):
    engine = make_tiny_engine(clock=SimulatedClock(), ladder=ladder)
    return ServingLayer(engine, tenants, policy=policy, **kwargs)


def full_cost(engine, node: int, reserve: int = 32) -> int:
    prompt, _ = engine.build_prompt(node, include_neighbors=True)
    return engine.llm.tokenizer.count(prompt) + reserve


def pruned_cost(engine, node: int, reserve: int = 32) -> int:
    prompt, _ = engine.build_prompt(node, include_neighbors=False)
    return engine.llm.tokenizer.count(prompt) + reserve


def requests_at_zero(tenants: list[str], per_tenant: int, nodes) -> list[ServeRequest]:
    """``per_tenant`` requests for each tenant, interleaved, all at t=0."""
    nodes = [int(v) for v in nodes]
    out = []
    for i in range(per_tenant):
        for j, tenant in enumerate(tenants):
            out.append(ServeRequest(tenant, nodes[(i * len(tenants) + j) % len(nodes)]))
    return out


class TestValidation:
    def test_request_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            ServeRequest("a", 1, arrival=-1.0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_request_rejects_non_finite_arrival(self, arrival):
        with pytest.raises(ValueError, match="finite"):
            ServeRequest("a", 1, arrival=arrival)

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError, match="name"):
            TenantSpec("")
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("a", weight=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            TenantSpec("a", max_queue_depth=0)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="wave_quota"):
            AdmissionPolicy(wave_quota=0)
        with pytest.raises(ValueError, match="completion_reserve"):
            AdmissionPolicy(completion_reserve=-1)
        with pytest.raises(ValueError, match="degrade_watermark"):
            AdmissionPolicy(degrade_watermark=0)
        with pytest.raises(ValueError, match="shed_watermark"):
            AdmissionPolicy(degrade_watermark=8, shed_watermark=4)

    def test_outcome_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="status"):
            ServeOutcome(
                request=ServeRequest("a", 1),
                status="vanished",
                tier="ok",
                record=None,
                queued_at=None,
                dispatched_at=None,
                completed_at=0.0,
            )

    def test_layer_requires_tenants(self, make_tiny_engine):
        with pytest.raises(ValueError, match="tenant"):
            make_layer(make_tiny_engine, [])

    def test_layer_rejects_duplicate_tenants(self, make_tiny_engine):
        with pytest.raises(ValueError, match="unique"):
            make_layer(make_tiny_engine, [TenantSpec("a"), TenantSpec("a")])

    def test_layer_rejects_engine_with_ledger(self, make_tiny_engine):
        engine = make_tiny_engine(clock=SimulatedClock())
        engine.ledger = BudgetLedger(budget=100)
        with pytest.raises(ValueError, match="ledger"):
            ServingLayer(engine, [TenantSpec("a")])

    def test_admit_unknown_tenant_raises(self, make_tiny_engine):
        layer = make_layer(make_tiny_engine, [TenantSpec("a")])
        with pytest.raises(KeyError, match="ghost"):
            layer.admit(ServeRequest("ghost", 1))


class TestLedgerBook:
    def test_unknown_tenant_raises(self):
        book = LedgerBook({"a": BudgetLedger(budget=10)})
        with pytest.raises(KeyError):
            book.ledger("b")

    def test_tenant_and_global_limits_both_bind(self):
        book = LedgerBook(
            {"a": BudgetLedger(budget=10), "b": BudgetLedger(budget=100)},
            global_ledger=BudgetLedger(budget=15),
        )
        assert book.would_exceed("a", 11)
        assert not book.would_exceed("b", 14)
        assert book.would_exceed("b", 16)  # global ceiling, not b's own
        book.charge("a", 10)
        assert book.exhausted("a")
        assert not book.exhausted("b")
        assert book.would_exceed("b", 6)  # 10 of the global 15 already spent
        book.charge("b", 5)
        assert book.exhausted("b")  # global ledger dry

    def test_usd_exhaustion_counts(self):
        book = LedgerBook({"a": BudgetLedger(cost_budget_usd=0.01)})
        assert book.would_exceed("a", 0, usd=0.02)
        book.charge("a", 5, usd=0.01)
        assert book.exhausted("a")

    def test_snapshot_includes_global(self):
        book = LedgerBook(
            {"a": BudgetLedger(budget=10)}, global_ledger=BudgetLedger(budget=20)
        )
        book.charge("a", 3, usd=0.001)
        snap = book.snapshot()
        assert snap["a"] == (3, 1, 0.001)
        assert snap["__global__"] == (3, 1, 0.001)
        assert "__global__" not in LedgerBook({"a": BudgetLedger()}).snapshot()


class TestAdmission:
    def test_queue_full_rejects(self, make_tiny_engine, tiny_split):
        layer = make_layer(make_tiny_engine, [TenantSpec("a", max_queue_depth=2)])
        nodes = [int(v) for v in tiny_split.queries[:3]]
        assert layer.admit(ServeRequest("a", nodes[0])) is None
        assert layer.admit(ServeRequest("a", nodes[1])) is None
        outcome = layer.admit(ServeRequest("a", nodes[2]))
        assert outcome is not None
        assert outcome.status == "rejected"
        assert outcome.tier == "rejected_queue_full"
        assert outcome.cycle is None and outcome.record is None

    def test_shed_watermark_rejects_globally(self, make_tiny_engine, tiny_split):
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a"), TenantSpec("b")],
            policy=AdmissionPolicy(shed_watermark=2),
        )
        nodes = [int(v) for v in tiny_split.queries[:3]]
        assert layer.admit(ServeRequest("a", nodes[0])) is None
        assert layer.admit(ServeRequest("a", nodes[1])) is None
        outcome = layer.admit(ServeRequest("b", nodes[2]))  # b's queue is empty
        assert outcome is not None and outcome.tier == "rejected_overload"

    def test_degrade_watermark_pins_zero_shot(self, make_tiny_engine, tiny_split):
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a")],
            policy=AdmissionPolicy(degrade_watermark=1, wave_quota=8),
        )
        nodes = [int(v) for v in tiny_split.queries[:4]]
        report = layer.replay([ServeRequest("a", n) for n in nodes])
        assert [o.status for o in report.outcomes] == [
            "served",
            "degraded",
            "degraded",
            "degraded",
        ]
        for outcome in report.outcomes[1:]:
            assert outcome.tier == "degraded_pruned"
            assert outcome.record is not None and outcome.record.pruned
            assert outcome.answered  # degraded is still goodput

    def test_dry_tenant_rejected_at_admission(self, make_tiny_engine):
        layer = make_layer(make_tiny_engine, [TenantSpec("a", token_budget=50)])
        layer.book.charge("a", 50)
        outcome = layer.admit(ServeRequest("a", 1))
        assert outcome is not None and outcome.tier == "rejected_budget"

    def test_admissions_reported_to_observer(self, make_tiny_engine, tiny_split):
        instr = Instrumentation(run_id="serve-test")
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a", max_queue_depth=1)],
            observer=instr,
        )
        nodes = [int(v) for v in tiny_split.queries[:2]]
        layer.admit(ServeRequest("a", nodes[0]))
        layer.admit(ServeRequest("a", nodes[1]))
        families = instr.registry.snapshot()["families"]
        counts = {
            tuple(sorted(entry["labels"].items())): entry["value"]
            for entry in families["repro_serve_admissions_total"]["series"]
        }
        assert counts[(("decision", "admitted"), ("tenant", "a"))] == 1
        assert counts[(("decision", "rejected_queue_full"), ("tenant", "a"))] == 1


class TestFairness:
    def test_weighted_drr_shares(self, make_tiny_engine, tiny_split):
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("alpha", weight=2), TenantSpec("beta", weight=1)],
            policy=AdmissionPolicy(wave_quota=3),
        )
        stream = requests_at_zero(["alpha", "beta"], 12, tiny_split.queries)
        report = layer.replay(stream)
        # While both tenants are backlogged every cycle serves 2 alpha + 1
        # beta — the 2:1 weights, not the 1:1 arrival mix.
        for cycle in range(6):
            tenants = [
                o.request.tenant for o in report.outcomes if o.cycle == cycle
            ]
            assert tenants.count("alpha") == 2
            assert tenants.count("beta") == 1

    def test_no_tenant_starves(self, make_tiny_engine, tiny_split):
        tenants = [
            TenantSpec("alpha", weight=3),
            TenantSpec("beta", weight=1),
            TenantSpec("gamma", weight=1),
        ]
        layer = make_layer(
            make_tiny_engine, tenants, policy=AdmissionPolicy(wave_quota=2)
        )
        report = layer.replay(
            requests_at_zero([t.name for t in tenants], 8, tiny_split.queries)
        )
        assert all(o.cycle is not None for o in report.outcomes)
        # Everyone is backlogged from cycle 0 to their last service; the DRR
        # rotation bounds any wait at len(tenants) cycles.
        for spec in tenants:
            cycles = sorted(
                o.cycle for o in report.outcomes if o.request.tenant == spec.name
            )
            assert cycles[0] < len(tenants)
            assert all(gap <= len(tenants) for gap in np.diff(np.asarray(cycles)))


class TestBudgetGate:
    def test_falls_back_to_pruned_prompt(self, make_tiny_engine, tiny_split):
        probe = make_tiny_engine()
        node = int(tiny_split.queries[0])
        budget = (full_cost(probe, node) + pruned_cost(probe, node)) / 2
        layer = make_layer(make_tiny_engine, [TenantSpec("a", token_budget=budget)])
        report = layer.replay([ServeRequest("a", node)])
        (outcome,) = report.outcomes
        assert outcome.status == "degraded"
        assert outcome.tier == "degraded_pruned"
        assert outcome.record.pruned and outcome.answered

    def test_falls_back_to_surrogate(self, make_tiny_engine, tiny_graph, tiny_split):
        ladder = DegradationLadder(
            surrogate=_StubSurrogate(len(tiny_graph.class_names))
        )
        layer = make_layer(
            make_tiny_engine, [TenantSpec("a", token_budget=1)], ladder=ladder
        )
        report = layer.replay([ServeRequest("a", int(tiny_split.queries[0]))])
        (outcome,) = report.outcomes
        assert outcome.status == "degraded"
        assert outcome.tier == "degraded_surrogate"
        assert outcome.answered and outcome.record.total_tokens == 0
        assert layer.book.ledger("a").spent == 0

    def test_abstains_without_surrogate(self, make_tiny_engine, tiny_split):
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a", token_budget=1)],
            ladder=DegradationLadder(),
        )
        report = layer.replay([ServeRequest("a", int(tiny_split.queries[0]))])
        (outcome,) = report.outcomes
        assert outcome.tier == "abstained" and not outcome.answered
        assert report.goodput == 0

    def test_rejects_when_no_ladder(self, make_tiny_engine, tiny_split):
        layer = make_layer(make_tiny_engine, [TenantSpec("a", token_budget=1)])
        report = layer.replay([ServeRequest("a", int(tiny_split.queries[0]))])
        (outcome,) = report.outcomes
        assert outcome.status == "rejected"
        assert outcome.tier == "rejected_budget"
        assert outcome.cycle is not None  # rejected at dispatch, not admission

    def test_usd_budget_binds(self, make_tiny_engine, tiny_split):
        # A dollar budget priced below one gpt-3.5 call forces the ladder
        # even though the token budget is unlimited.
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a", usd_budget=1e-07)],
            ladder=DegradationLadder(),
            price_model="gpt-3.5",
        )
        report = layer.replay([ServeRequest("a", int(tiny_split.queries[0]))])
        assert report.outcomes[0].tier == "abstained"
        assert layer.book.ledger("a").spent_usd <= 1e-07

    def test_global_ceiling_spans_tenants(self, make_tiny_engine, tiny_split):
        probe = make_tiny_engine()
        nodes = [int(v) for v in tiny_split.queries[:6]]
        per_full = max(full_cost(probe, n) for n in nodes)
        layer = make_layer(
            make_tiny_engine,
            [TenantSpec("a"), TenantSpec("b")],
            ladder=DegradationLadder(),
            global_budget=2.5 * per_full,
        )
        stream = [ServeRequest("a" if i % 2 == 0 else "b", n) for i, n in enumerate(nodes)]
        report = layer.replay(stream)
        assert layer.book.global_ledger.spent <= 2.5 * per_full
        assert any(o.tier in ("abstained", "degraded_pruned") for o in report.outcomes)


class TestOverloadGracefulDegradation:
    """The acceptance sweep, at unit-test scale on the tiny graph."""

    ADMISSIBLE = 12

    def run_at(self, make_tiny_engine, tiny_split, multiplier: float):
        probe = make_tiny_engine()
        sample = [int(v) for v in tiny_split.queries[:16]]
        avg_full = float(np.mean([full_cost(probe, n) for n in sample]))
        # 25% slack over the exact average absorbs per-node cost variance and
        # the weight-proportional randomness of tenant draws at 1x load.
        per_tenant = 1.25 * self.ADMISSIBLE * avg_full / 4.0
        tenants = [
            TenantSpec("alpha", weight=2, token_budget=2 * per_tenant),
            TenantSpec("beta", weight=1, token_budget=per_tenant),
            TenantSpec("gamma", weight=1, token_budget=per_tenant),
        ]
        layer = make_layer(
            make_tiny_engine,
            tenants,
            policy=AdmissionPolicy(wave_quota=4),
            ladder=DegradationLadder(),
        )
        offered = int(multiplier * self.ADMISSIBLE)
        stream = synthetic_stream(tenants, tiny_split.queries, offered, seed=23)
        return layer.replay(stream), layer, tenants

    def test_goodput_survives_2x_overload(self, make_tiny_engine, tiny_split):
        baseline, _, _ = self.run_at(make_tiny_engine, tiny_split, 1.0)
        overloaded, layer, tenants = self.run_at(make_tiny_engine, tiny_split, 2.0)
        # At 1x the budgets absorb everything, mostly at full fidelity.
        assert baseline.goodput == self.ADMISSIBLE
        assert baseline.status_counts["served"] >= self.ADMISSIBLE // 2
        # At 2x goodput holds at or above the admitted capacity: the excess
        # degrades to cheaper rungs instead of collapsing throughput.
        assert overloaded.goodput >= baseline.goodput
        assert overloaded.status_counts["degraded"] > 0
        # No tenant overdraws its ledger.
        for spec in tenants:
            assert layer.book.ledger(spec.name).spent <= spec.token_budget
        # Every degraded/rejected request carries an explicit outcome tier.
        for outcome in overloaded.outcomes:
            assert outcome.status in SERVE_STATUSES
            if outcome.status == "served":
                assert outcome.tier in ("ok", "retried")
            elif outcome.status == "degraded":
                assert outcome.tier in DEGRADED_TIERS
            else:
                assert outcome.tier in REJECT_TIERS
        assert sum(overloaded.tier_counts.values()) == overloaded.num_requests

    def test_report_aggregates_are_consistent(self, make_tiny_engine, tiny_split):
        report, _, _ = self.run_at(make_tiny_engine, tiny_split, 2.0)
        summaries = report.tenant_summaries()
        assert sum(s.submitted for s in summaries.values()) == report.num_requests
        assert sum(s.answered for s in summaries.values()) == report.goodput
        statuses = report.status_counts
        assert sum(statuses.values()) == report.num_requests
        for summary in summaries.values():
            assert summary.served + summary.degraded + summary.rejected == summary.submitted
            assert summary.percentile(99) >= summary.percentile(50) >= 0.0
        assert report.latency_percentile(99) >= report.latency_percentile(50)


class TestStreams:
    def test_save_load_roundtrip(self, tmp_path):
        stream = [
            ServeRequest("a", 3, arrival=0.5),
            ServeRequest("b", 7, include_neighbors=False),
        ]
        path = save_requests(stream, tmp_path / "stream.jsonl")
        assert load_requests(path) == stream

    def test_load_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tenant": "a", "node": 1, "priority": 9}\n')
        with pytest.raises(ValueError, match="priority"):
            load_requests(path)

    def test_synthetic_stream_is_deterministic(self, tiny_split):
        tenants = [TenantSpec("a", weight=2), TenantSpec("b")]
        one = synthetic_stream(tenants, tiny_split.queries, 30, arrival_window=5, seed=4)
        two = synthetic_stream(tenants, tiny_split.queries, 30, arrival_window=5, seed=4)
        assert one == two
        assert one != synthetic_stream(
            tenants, tiny_split.queries, 30, arrival_window=5, seed=5
        )

    def test_synthetic_stream_shape(self, tiny_split):
        tenants = [TenantSpec("a", weight=3), TenantSpec("b", weight=1)]
        stream = synthetic_stream(
            tenants, tiny_split.queries, 200, arrival_window=10, seed=0
        )
        arrivals = [r.arrival for r in stream]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a <= 10 for a in arrivals)
        by_tenant = [r.tenant for r in stream]
        assert by_tenant.count("a") > by_tenant.count("b")  # 3:1 weights
        with pytest.raises(ValueError, match="num_requests"):
            synthetic_stream(tenants, tiny_split.queries, 0)


class TestSurrogateQuery:
    def test_requires_ladder(self, make_tiny_engine):
        engine = make_tiny_engine()
        with pytest.raises(ValueError, match="ladder"):
            engine.surrogate_query(1)

    def test_abstains_without_surrogate(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(ladder=DegradationLadder())
        record = engine.surrogate_query(int(tiny_split.queries[0]))
        assert record.outcome == "abstained"
        assert record.outcome in OUTCOME_TIERS
        assert record.predicted_label is None
        assert record.prompt_tokens == 0 and record.completion_tokens == 0

    def test_surrogate_answers(self, make_tiny_engine, tiny_graph, tiny_split):
        engine = make_tiny_engine(
            ladder=DegradationLadder(
                surrogate=_StubSurrogate(len(tiny_graph.class_names))
            )
        )
        record = engine.surrogate_query(int(tiny_split.queries[0]))
        assert record.outcome == "degraded_surrogate"
        assert record.predicted_label == 0
        assert record.confidence == 1.0
