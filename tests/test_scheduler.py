"""Unit tests for the batched query scheduler (waves, overlap, modes)."""

from __future__ import annotations

import pytest

from repro.llm.reliability import FlakyLLM, LatencyLLM, SimulatedClock
from repro.llm.simulated import SimulatedLLM
from repro.runtime.scheduler import (
    DISPATCH_MODES,
    QueryScheduler,
    SchedulerReport,
    WaveStats,
    WorkItem,
    _chunks,
    run_items,
)

from tests.equivalence import Scenario, assert_equivalent, run_scenario


class TestConstruction:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            QueryScheduler(max_batch_size=0)

    def test_rejects_bad_concurrency(self):
        with pytest.raises(ValueError, match="max_concurrency"):
            QueryScheduler(max_concurrency=0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            QueryScheduler(mode="celery")

    def test_modes_registry(self):
        assert DISPATCH_MODES == ("simulated", "threads")


class TestChunks:
    def test_none_means_one_batch(self):
        assert _chunks([1, 2, 3], None) == [[1, 2, 3]]

    def test_splits_evenly_and_remainder(self):
        assert _chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_empty(self):
        assert _chunks([], 3) == []


class TestOverlapAccounting:
    def test_single_worker_is_serial(self):
        scheduler = QueryScheduler(max_concurrency=1)
        serial, overlapped = scheduler._overlap([1.0, 2.0, 3.0])
        assert serial == overlapped == 6.0

    def test_perfect_overlap(self):
        scheduler = QueryScheduler(max_concurrency=3)
        serial, overlapped = scheduler._overlap([2.0, 2.0, 2.0])
        assert serial == 6.0
        assert overlapped == 2.0

    def test_greedy_next_free_worker(self):
        # Canonical-order assignment: [3, 1, 1, 1] on 2 workers gives
        # worker A = 3, worker B = 1+1+1 = 3.
        scheduler = QueryScheduler(max_concurrency=2)
        serial, overlapped = scheduler._overlap([3.0, 1.0, 1.0, 1.0])
        assert serial == 6.0
        assert overlapped == 3.0

    def test_batch_barrier_limits_overlap(self):
        # Batches of 2 on 2 workers: each batch's makespan is its max.
        scheduler = QueryScheduler(max_batch_size=2, max_concurrency=2)
        serial, overlapped = scheduler._overlap([2.0, 1.0, 2.0, 1.0])
        assert serial == 6.0
        assert overlapped == 4.0

    def test_zero_latency_speedup_is_one(self):
        stats = WaveStats(0, 4, 0, 0, 1, 0.0, 0.0)
        assert stats.speedup == 1.0

    def test_report_aggregates(self):
        report = SchedulerReport(
            waves=[
                WaveStats(0, 4, 0, 0, 2, 8.0, 4.0),
                WaveStats(1, 2, 1, 0, 1, 4.0, 2.0),
            ]
        )
        assert report.num_waves == 2
        assert report.num_batches == 3
        assert report.num_queries == 6
        assert report.serial_seconds == 12.0
        assert report.overlapped_seconds == 6.0
        assert report.speedup == 2.0


class TestWaveDispatch:
    def test_rejects_bad_on_failure(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(scheduler=QueryScheduler())
        items = [WorkItem(node=int(tiny_split.queries[0]), on_failure="explode")]
        with pytest.raises(ValueError, match="on_failure"):
            engine.scheduler.run_wave(engine, items)

    @pytest.mark.parametrize(
        "dispatch",
        [None, ("simulated", "wave"), ("threads", "wave"), ("threads", "dag")],
        ids=["serial", "simulated", "threads", "threads-dag"],
    )
    def test_degrade_without_ladder_rejected_before_any_call(
        self, make_tiny_engine, tiny_split, dispatch
    ):
        scheduler = None
        if dispatch is not None:
            mode, plan = dispatch
            scheduler = QueryScheduler(max_concurrency=2, mode=mode, dispatch=plan)
        engine = make_tiny_engine(scheduler=scheduler)
        items = [WorkItem(node=int(n), on_failure="degrade") for n in tiny_split.queries[:4]]
        with pytest.raises(ValueError, match="requires an engine degradation ladder"):
            run_items(engine, items)
        assert engine.llm.usage.num_queries == 0

    def test_records_in_canonical_order(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(scheduler=QueryScheduler(max_batch_size=3, max_concurrency=2))
        nodes = [int(v) for v in tiny_split.queries[:10]]
        outcome = engine.scheduler.run_wave(engine, [WorkItem(node=n) for n in nodes])
        assert [r.node for r in outcome.records] == nodes
        assert outcome.deferred == []
        assert outcome.stats.num_queries == 10
        assert outcome.stats.num_batches == 4

    def test_replays_skip_execution(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(scheduler=QueryScheduler())
        nodes = [int(v) for v in tiny_split.queries[:4]]
        first = engine.scheduler.run_wave(engine, [WorkItem(node=n) for n in nodes])
        calls_before = engine.llm.usage.num_queries
        replay_engine = make_tiny_engine(scheduler=QueryScheduler())
        outcome = replay_engine.scheduler.run_wave(
            replay_engine,
            [WorkItem(node=n, cached=r) for n, r in zip(nodes, first.records)],
        )
        assert [r.node for r in outcome.records] == nodes
        assert outcome.stats.num_replayed == 4
        assert replay_engine.llm.usage.num_queries == 0
        assert engine.llm.usage.num_queries == calls_before

    def test_deferral_on_transient_failure(self, make_tiny_engine, tiny_split, tiny_tag):
        flaky = FlakyLLM(
            SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
            failure_rate=0.999,
            seed=13,
        )
        engine = make_tiny_engine(llm=flaky, scheduler=QueryScheduler())
        nodes = [int(v) for v in tiny_split.queries[:3]]
        deferred_calls = []
        outcome = engine.scheduler.run_wave(
            engine,
            [
                WorkItem(node=n, on_failure="raise", on_defer=lambda n=n: deferred_calls.append(n))
                for n in nodes
            ],
        )
        assert outcome.records == []
        assert outcome.deferred == nodes
        assert deferred_calls == nodes
        assert outcome.stats.num_deferred == 3

    def test_wave_index_advances(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(scheduler=QueryScheduler())
        nodes = [int(v) for v in tiny_split.queries[:2]]
        first = engine.scheduler.run_wave(engine, [WorkItem(node=nodes[0])])
        second = engine.scheduler.run_wave(engine, [WorkItem(node=nodes[1])])
        assert (first.stats.wave_index, second.stats.wave_index) == (0, 1)
        assert engine.scheduler.report.num_waves == 2

    def test_after_execute_fires_per_fresh_record(self, make_tiny_engine, tiny_split):
        engine = make_tiny_engine(scheduler=QueryScheduler())
        nodes = [int(v) for v in tiny_split.queries[:5]]
        seen = []
        engine.scheduler.run_wave(
            engine, [WorkItem(node=n, after_execute=lambda r: seen.append(r.node)) for n in nodes]
        )
        assert seen == nodes

    def test_decide_include_forces_ordered_dispatch_in_threads_mode(
        self, make_tiny_engine, tiny_split
    ):
        # A decide_include callable reads mutable mid-wave state, so even the
        # thread dispatcher must fall back to canonical in-order execution.
        engine = make_tiny_engine(
            scheduler=QueryScheduler(max_concurrency=4, mode="threads")
        )
        nodes = [int(v) for v in tiny_split.queries[:6]]
        order = []

        def decide(node):
            order.append(node)
            return True

        outcome = engine.scheduler.run_wave(
            engine, [WorkItem(node=n, decide_include=lambda n=n: decide(n)) for n in nodes]
        )
        assert order == nodes
        assert [r.node for r in outcome.records] == nodes


class TestVirtualOverlapWithLatency:
    def test_simulated_latency_overlaps_without_extra_calls(
        self, make_tiny_engine, tiny_split, tiny_tag
    ):
        clock = SimulatedClock()
        inner = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        llm = LatencyLLM(inner, clock=clock, seconds_per_call=1.0)
        scheduler = QueryScheduler(max_batch_size=8, max_concurrency=4)
        engine = make_tiny_engine(llm=llm, clock=clock, scheduler=scheduler)
        nodes = [int(v) for v in tiny_split.queries[:16]]
        outcome = engine.scheduler.run_wave(engine, [WorkItem(node=n) for n in nodes])
        assert len(outcome.records) == 16
        assert inner.usage.num_queries == 16  # zero extra calls
        assert outcome.stats.serial_seconds == pytest.approx(16.0)
        assert outcome.stats.overlapped_seconds == pytest.approx(4.0)
        assert outcome.stats.speedup == pytest.approx(4.0)


class TestEngineIntegration:
    def test_plain_run_matches_serial(self, tiny_tag, tiny_split, tiny_builder):
        scenario = Scenario(strategy="none", num_queries=14)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        batched = run_scenario(
            scenario,
            tiny_tag,
            tiny_split,
            tiny_builder,
            scheduler=QueryScheduler(max_batch_size=4, max_concurrency=3),
        )
        assert_equivalent(serial, batched)
        assert batched.scheduler_report.num_waves == 1
        assert batched.scheduler_report.num_batches == 4

    def test_boosted_run_matches_serial(self, tiny_tag, tiny_split, tiny_builder):
        scenario = Scenario(strategy="boost", num_queries=16)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        batched = run_scenario(
            scenario,
            tiny_tag,
            tiny_split,
            tiny_builder,
            scheduler=QueryScheduler(max_batch_size=4, max_concurrency=2),
        )
        assert_equivalent(serial, batched)
        # One wave per boosting round.
        assert batched.scheduler_report.num_waves == len(batched.rounds)

    def test_guarded_run_matches_serial(self, tiny_tag, tiny_split, tiny_builder):
        scenario = Scenario(strategy="guard", num_queries=12, budget_slack=0.4)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        batched = run_scenario(
            scenario,
            tiny_tag,
            tiny_split,
            tiny_builder,
            scheduler=QueryScheduler(max_batch_size=5, max_concurrency=4),
        )
        assert_equivalent(serial, batched)
        # The guard must actually have rationed something for this to bite.
        assert any(r["pruned"] for r in serial.records)
        assert any(not r["pruned"] for r in serial.records)

    def test_threads_mode_matches_serial_records(self, tiny_tag, tiny_split, tiny_builder):
        scenario = Scenario(strategy="none", num_queries=12)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        threaded = run_scenario(
            scenario,
            tiny_tag,
            tiny_split,
            tiny_builder,
            scheduler=QueryScheduler(max_batch_size=6, max_concurrency=4, mode="threads"),
        )
        assert_equivalent(serial, threaded, compare_traces=False)
