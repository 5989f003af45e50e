"""Unit tests for the MQO tier's wiring: pricing discounts, ledger credits,
the shared-first prompt layout, the engine's compressed rung, the
scheduler's prefix-sharing credits, the serve admission ladder, and the
overload frontier's dominance check."""

from __future__ import annotations

import pytest

from repro.core.budget import BudgetLedger, LedgerBook
from repro.llm.pricing import (
    PRICES_PER_1K_TOKENS,
    UnknownModelError,
    cache_discount_usd,
    cost_usd,
    cost_usd_with_cache,
)
from repro.llm.reliability import SimulatedClock
from repro.llm.simulated import SimulatedLLM, parse_prompt
from repro.mqo.compression import PromptCompressor
from repro.mqo.prefix_sharing import shared_prefix_tokens
from repro.prompts.builder import PromptBuilder
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import (
    ADMISSION_DECISIONS,
    AdmissionPolicy,
    ServeRequest,
    ServingLayer,
    TenantSpec,
    synthetic_stream,
)


# ------------------------------------------------------------------ pricing


class TestCachePricing:
    def test_cached_rate_defaults_to_half_input(self):
        from repro.llm.pricing import ModelPrice

        assert ModelPrice(0.4, 0.8).cached_rate == pytest.approx(0.2)
        assert ModelPrice(0.4, 0.8, cached_input_per_1k=0.1).cached_rate == 0.1

    def test_discount_is_rate_difference(self):
        price = PRICES_PER_1K_TOKENS["gpt-3.5"]
        expected = 1000 / 1000.0 * (price.input_per_1k - price.cached_rate)
        assert cache_discount_usd("gpt-3.5", 1000) == pytest.approx(expected)

    def test_cost_with_cache_equals_gross_minus_discount(self):
        gross = cost_usd("gpt-4", 2000, 100)
        discount = cache_discount_usd("gpt-4", 500)
        assert cost_usd_with_cache("gpt-4", 2000, 100, cached_prompt_tokens=500) == (
            pytest.approx(gross - discount)
        )

    def test_zero_cached_tokens_changes_nothing(self):
        assert cost_usd_with_cache("gpt-3.5", 1234, 56) == cost_usd("gpt-3.5", 1234, 56)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            cache_discount_usd("gpt-3.5", -1)
        with pytest.raises(ValueError, match="exceeds"):
            cost_usd_with_cache("gpt-3.5", 100, cached_prompt_tokens=101)
        with pytest.raises(UnknownModelError):
            cache_discount_usd("nonesuch", 10)


# ------------------------------------------------------------------ ledgers


class TestSharedCredits:
    def test_credit_keeps_gross_spend_and_nets_enforcement(self):
        ledger = BudgetLedger(budget=1000)
        ledger.charge(900)
        assert ledger.would_exceed(200)
        ledger.credit_shared(300, usd=0.01)
        # Gross stays put; the paid net is what enforcement sees.
        assert ledger.spent == 900
        assert ledger.shared_tokens == 300
        assert ledger.paid_tokens == 600
        assert not ledger.would_exceed(200)
        assert ledger.remaining == pytest.approx(400)
        assert ledger.paid_usd == pytest.approx(-0.01)

    def test_credit_validation(self):
        ledger = BudgetLedger()
        with pytest.raises(ValueError):
            ledger.credit_shared(-1)
        with pytest.raises(ValueError):
            ledger.credit_shared(1, usd=-0.5)

    def test_book_credits_tenant_and_global(self):
        book = LedgerBook(
            {"a": BudgetLedger(), "b": BudgetLedger()},
            global_ledger=BudgetLedger(),
        )
        book.charge("a", 500)
        book.credit_shared("a", 120, usd=0.002)
        assert book.ledger("a").shared_tokens == 120
        assert book.ledger("b").shared_tokens == 0
        assert book.global_ledger.shared_tokens == 120
        # The book-level total sums tenants (the global ledger mirrors it).
        assert book.shared_tokens == 120

    def test_snapshot_still_reports_gross(self):
        book = LedgerBook({"a": BudgetLedger()})
        book.charge("a", 100, usd=0.5)
        before = book.snapshot()
        book.credit_shared("a", 40, usd=0.1)
        assert book.snapshot() == before, "credits must not disturb gross state"


# --------------------------------------------------------- shared-first layout


class TestSharedFirstLayout:
    @pytest.fixture()
    def engines(self, tiny_graph, tiny_split, tiny_tag, make_tiny_engine):
        from repro.runtime.engine import MultiQueryEngine
        from repro.selection.registry import make_selector

        def build(shared_first: bool) -> "MultiQueryEngine":
            return MultiQueryEngine(
                graph=tiny_graph,
                llm=SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
                selector=make_selector("1-hop"),
                builder=PromptBuilder(
                    tiny_graph.class_names,
                    "paper",
                    "citation",
                    "Abstract",
                    shared_first=shared_first,
                ),
                labeled=tiny_split.labeled,
                max_neighbors=4,
                seed=9,
            )

        return build(False), build(True)

    def test_layouts_parse_identically(self, engines, tiny_split):
        default, shared = engines
        for node in (int(v) for v in tiny_split.queries[:6]):
            a = parse_prompt(default.build_prompt(node, include_neighbors=True)[0])
            b = parse_prompt(shared.build_prompt(node, include_neighbors=True)[0])
            assert a == b, f"layouts parse differently for node {node}"

    def test_layouts_predict_identically(self, engines, tiny_split):
        default, shared = engines
        queries = tiny_split.queries[:8]
        a = default.run(queries)
        b = shared.run(queries)
        assert [r.predicted_label for r in a.records] == [
            r.predicted_label for r in b.records
        ]

    def test_shared_first_front_loads_the_common_prefix(self, engines, tiny_split):
        default, shared = engines
        nodes = [int(v) for v in tiny_split.queries[:2]]
        d = [default.build_prompt(n, include_neighbors=True)[0] for n in nodes]
        s = [shared.build_prompt(n, include_neighbors=True)[0] for n in nodes]
        assert shared_prefix_tokens(s[0], s[1]) > shared_prefix_tokens(d[0], d[1])


# -------------------------------------------------------- engine compressed rung


class TestEngineCompressedRung:
    def test_compressed_run_shrinks_tokens_and_stamps_records(
        self, make_tiny_engine, tiny_split
    ):
        queries = tiny_split.queries[:10]
        nodes = frozenset(int(v) for v in queries)
        base = make_tiny_engine().run(queries)
        engine = make_tiny_engine(compressor=PromptCompressor(target_ratio=0.5, seed=3))
        result = engine.run(queries, compressed=nodes)
        assert result.num_compressed > 0
        assert result.prompt_tokens < base.prompt_tokens
        for record in result.records:
            if record.compressed:
                assert record.outcome == "degraded_compressed"

    def test_preview_matches_execution_without_side_effects(
        self, make_tiny_engine, tiny_split
    ):
        engine = make_tiny_engine(compressor=PromptCompressor(target_ratio=0.5, seed=3))
        node = int(tiny_split.queries[0])
        before = engine.llm.usage.num_queries
        preview = engine.preview_prompt(node, include_neighbors=True, compress=True)
        assert engine.llm.usage.num_queries == before, "preview must not call the LLM"
        record = engine.execute_query(node, include_neighbors=True, compress=True)
        assert record.prompt_tokens == engine.llm.tokenizer.count(preview)

    def test_pruned_wins_over_compressed(self, make_tiny_engine, tiny_split):
        queries = tiny_split.queries[:6]
        nodes = frozenset(int(v) for v in queries)
        engine = make_tiny_engine(compressor=PromptCompressor(target_ratio=0.5))
        result = engine.run(queries, pruned=nodes, compressed=nodes)
        assert result.num_compressed == 0
        assert all(not r.compressed for r in result.records)


# ----------------------------------------------------- scheduler prefix credits


class TestSchedulerPrefixCredits:
    def test_plan_credits_engine_ledger_with_gross_unchanged(
        self, tiny_graph, tiny_split, tiny_tag
    ):
        from repro.runtime.engine import MultiQueryEngine
        from repro.selection.registry import make_selector

        def run(prefix_sharing: bool):
            scheduler = QueryScheduler(
                max_batch_size=4, prefix_sharing=prefix_sharing
            )
            engine = MultiQueryEngine(
                graph=tiny_graph,
                llm=SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
                selector=make_selector("1-hop"),
                builder=PromptBuilder(
                    tiny_graph.class_names,
                    "paper",
                    "citation",
                    "Abstract",
                    shared_first=True,
                ),
                labeled=tiny_split.labeled,
                max_neighbors=4,
                seed=9,
                scheduler=scheduler,
            )
            engine.ledger = BudgetLedger()
            engine.run(tiny_split.queries[:12])
            return engine, scheduler

        plain_engine, _ = run(prefix_sharing=False)
        shared_engine, scheduler = run(prefix_sharing=True)
        assert scheduler.last_plan is not None
        report = scheduler.report
        assert report.shared_prompt_tokens > 0
        assert shared_engine.ledger.shared_tokens == report.shared_prompt_tokens
        # Gross accounting is untouched by planning.
        assert shared_engine.ledger.spent == plain_engine.ledger.spent
        assert shared_engine.ledger.charges == plain_engine.ledger.charges
        assert plain_engine.ledger.shared_tokens == 0

    def test_guard_waves_skip_planning(self, tiny_graph, tiny_split, tiny_tag):
        from repro.runtime.engine import MultiQueryEngine
        from repro.selection.registry import make_selector

        scheduler = QueryScheduler(max_batch_size=4, prefix_sharing=True)
        engine = MultiQueryEngine(
            graph=tiny_graph,
            llm=SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
            selector=make_selector("1-hop"),
            builder=PromptBuilder(tiny_graph.class_names, "paper", "citation", "Abstract"),
            labeled=tiny_split.labeled,
            max_neighbors=4,
            seed=9,
            scheduler=scheduler,
        )
        engine.ledger = BudgetLedger(budget=1e9)
        engine.run_with_budget_guard(tiny_split.queries[:8])
        assert scheduler.last_plan is None
        assert scheduler.report.shared_prompt_tokens == 0


# ------------------------------------------------------------- serve admission


class TestServeCompressionRung:
    TENANTS = [TenantSpec("solo", max_queue_depth=64)]

    def test_admitted_compress_is_a_known_decision(self):
        assert "admitted_compress" in ADMISSION_DECISIONS

    def test_policy_orders_watermarks(self):
        with pytest.raises(ValueError, match="compress_watermark"):
            AdmissionPolicy(compress_watermark=8, degrade_watermark=4)
        with pytest.raises(ValueError, match="compress_watermark"):
            AdmissionPolicy(compress_watermark=9, shed_watermark=6)
        AdmissionPolicy(compress_watermark=2, degrade_watermark=4, shed_watermark=6)
        AdmissionPolicy(compress_watermark=3)

    def test_admission_pins_climb_the_ladder(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(clock=SimulatedClock())
        layer = ServingLayer(
            engine,
            self.TENANTS,
            policy=AdmissionPolicy(compress_watermark=1, degrade_watermark=3),
        )
        node = int(tiny_split.queries[0])
        for _ in range(4):
            assert layer.admit(ServeRequest("solo", node)) is None
        pins = [pin.name for _, _, pin in layer._tenants["solo"].queue]
        assert pins == ["full", "compressed", "compressed", "pruned"]

    def _replay(self, make_tiny_engine, tiny_split, compressor):
        engine = make_tiny_engine(
            clock=SimulatedClock(), compressor=compressor
        )
        layer = ServingLayer(
            engine,
            [TenantSpec("solo", max_queue_depth=64)],
            policy=AdmissionPolicy(compress_watermark=1, wave_quota=2),
        )
        stream = synthetic_stream(self.TENANTS, tiny_split.queries, 12, seed=1)
        return layer.replay(stream)

    def test_compress_pin_without_compressor_falls_back_to_full(
        self, make_tiny_engine, tiny_split
    ):
        report = self._replay(make_tiny_engine, tiny_split, compressor=None)
        tiers = report.tier_counts
        assert "degraded_compressed" not in tiers
        assert tiers.get("ok", 0) == report.num_requests

    def test_compress_pin_with_compressor_serves_compressed(
        self, make_tiny_engine, tiny_split
    ):
        report = self._replay(
            make_tiny_engine, tiny_split, compressor=PromptCompressor(target_ratio=0.5)
        )
        assert report.tier_counts.get("degraded_compressed", 0) > 0


# ------------------------------------------------------------ overload frontier


class TestFrontierDominance:
    @staticmethod
    def _cell(multiplier, goodput, p99, shared=0):
        from repro.experiments.overload import OverloadCell

        return OverloadCell(
            multiplier=multiplier,
            offered=100,
            goodput=goodput,
            served_full=goodput,
            degraded=0,
            rejected=0,
            tier_counts={},
            p50_seconds=p99 / 2,
            p99_seconds=p99,
            total_tokens=1000,
            budget_utilization=0.5,
            shared_tokens=shared,
        )

    def _frontier(self, classic_cells, mqo_cells):
        from repro.experiments.overload import FrontierResult, OverloadResult

        return FrontierResult(
            classic=OverloadResult("cora", 48, classic_cells),
            mqo=OverloadResult("cora", 48, mqo_cells),
        )

    def test_dominates_requires_no_worse_everywhere_and_better_somewhere(self):
        classic = [self._cell(1.0, 50, 10.0), self._cell(2.0, 60, 20.0)]
        better = [self._cell(1.0, 50, 10.0), self._cell(2.0, 70, 18.0, shared=40)]
        assert self._frontier(classic, better).dominates()

    def test_equal_frontier_does_not_dominate(self):
        classic = [self._cell(1.0, 50, 10.0)]
        assert not self._frontier(classic, list(classic)).dominates()

    def test_any_regression_fails_dominance(self):
        classic = [self._cell(1.0, 50, 10.0), self._cell(2.0, 60, 20.0)]
        worse_goodput = [self._cell(1.0, 49, 9.0), self._cell(2.0, 70, 18.0)]
        worse_p99 = [self._cell(1.0, 55, 10.0), self._cell(2.0, 70, 21.0)]
        assert not self._frontier(classic, worse_goodput).dominates()
        assert not self._frontier(classic, worse_p99).dominates()

    def test_format_frontier_renders_verdict(self):
        from repro.experiments.overload import format_frontier

        classic = [self._cell(1.0, 50, 10.0)]
        mqo = [self._cell(1.0, 60, 9.0, shared=25)]
        text = format_frontier(self._frontier(classic, mqo))
        assert "dominates" in text
        assert "25" in text
