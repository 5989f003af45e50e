"""Tests for critical-path analysis (repro.obs.insight.critical_path)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.insight import RunBundle, analyze_bench, analyze_trace, pack_wave
from repro.obs.insight import critical_path as cp
from repro.obs.insight.critical_path import WaveQuery
from repro.obs.insight.report import render_json, render_sections
from repro.runtime.scheduler import QueryScheduler

from tests.equivalence import Scenario, run_scenario

#: Same fully-loaded boosted configuration as the golden trace: uneven round
#: sizes at concurrency 4 leave workers parked at wave barriers, which is
#: exactly the signal the analyzer must quantify.
SCENARIO = Scenario(
    strategy="boost",
    num_queries=12,
    failure_rate=0.15,
    max_attempts=3,
    use_ladder=True,
    use_cache=True,
    observe=True,
)


def _trace(tiny_tag, tiny_split, tiny_builder, run_id: str) -> RunBundle:
    capture = run_scenario(
        SCENARIO,
        tiny_tag,
        tiny_split,
        tiny_builder,
        scheduler=QueryScheduler(max_batch_size=4, max_concurrency=3),
        run_id=run_id,
    )
    return RunBundle.from_lines(capture.trace_raw)


@pytest.fixture(scope="module")
def traced_replays(tiny_tag, tiny_split, tiny_builder):
    """Two replays of the same seeded run — only the run id differs."""
    return (
        _trace(tiny_tag, tiny_split, tiny_builder, "replay-a"),
        _trace(tiny_tag, tiny_split, tiny_builder, "replay-b"),
    )


class TestPackWave:
    def test_uneven_latencies_stall_and_blocker(self):
        wave = pack_wave(
            0, "w", [WaveQuery("q0", 5.0)] + [WaveQuery(f"q{i}", 1.0) for i in (1, 2, 3)],
            concurrency=2, batch_size=None,
        )
        # Greedy packing: worker 0 takes q0 (5s); worker 1 takes q1..q3 (3s).
        assert wave.makespan_seconds == 5.0
        assert wave.serial_seconds == 8.0
        assert wave.stall_seconds == pytest.approx(2.0)  # 2*5 - 8
        assert wave.blocking_query == "q0"
        assert wave.worker_busy == (5.0, 3.0)
        assert wave.utilization == pytest.approx(0.8)

    def test_balanced_wave_has_zero_stall(self):
        wave = pack_wave(
            0, "w", [WaveQuery(f"q{i}", 1.0) for i in range(4)],
            concurrency=2, batch_size=None,
        )
        assert wave.makespan_seconds == 2.0
        assert wave.stall_seconds == 0.0
        assert wave.utilization == 1.0

    def test_batch_barriers_add_up(self):
        # batch_size=2 splits 4 equal queries into two barriers of 1s each.
        wave = pack_wave(
            0, "w", [WaveQuery(f"q{i}", 1.0) for i in range(4)],
            concurrency=2, batch_size=2,
        )
        assert wave.num_batches == 2
        assert wave.makespan_seconds == 2.0

    def test_blocker_is_query_setting_dominant_batch_makespan(self):
        # Second batch's straggler dominates the first batch's makespan.
        wave = pack_wave(
            0, "w",
            [WaveQuery("a", 1.0), WaveQuery("b", 1.0),
             WaveQuery("c", 4.0), WaveQuery("d", 1.0)],
            concurrency=2, batch_size=2,
        )
        assert wave.blocking_query == "c"

    @settings(max_examples=60, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False), max_size=24
        ),
        concurrency=st.integers(min_value=1, max_value=6),
        batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    )
    def test_mirrors_scheduler_overlap_packing(self, latencies, concurrency, batch_size):
        # The analyzer's virtual packing must agree bit for bit with the
        # scheduler's own accounting on arbitrary latency profiles.
        wave = pack_wave(
            0, "w", [WaveQuery(f"q{i}", v) for i, v in enumerate(latencies)],
            concurrency=concurrency, batch_size=batch_size,
        )
        scheduler = QueryScheduler(max_batch_size=batch_size, max_concurrency=concurrency)
        assert wave.makespan_seconds == scheduler._overlap(latencies)[1]

    def test_rejects_nonpositive_concurrency(self):
        with pytest.raises(ValueError):
            pack_wave(0, "w", [], concurrency=0, batch_size=None)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_nonpositive_batch_size(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            pack_wave(0, "w", [WaveQuery("a", 1.0)], concurrency=2, batch_size=batch_size)


class TestTraceAnalysis:
    def test_quantifies_barrier_stall_at_concurrency_4(self, traced_replays):
        report = analyze_trace(traced_replays[0], concurrency=4)
        assert report.source == "trace"
        assert report.stall_seconds > 0.0
        assert report.serial_seconds > report.makespan_seconds
        # The bound can never be beaten by the barriered schedule.
        assert report.what_if_no_barrier_seconds <= report.makespan_seconds + 1e-9
        assert report.what_if_speedup >= report.speedup - 1e-9

    def test_names_blocking_query_per_wave(self, traced_replays):
        report = analyze_trace(traced_replays[0], concurrency=4)
        assert report.waves
        for wave in report.waves:
            assert wave.blocking_query is not None
            assert wave.blocking_query.startswith("node ")

    def test_waves_follow_boosting_rounds(self, traced_replays):
        report = analyze_trace(traced_replays[0], concurrency=4)
        assert [w.label for w in report.waves] == [
            f"round {i}" for i in range(len(report.waves))
        ]

    @pytest.mark.parametrize("fmt", ["text", "md"])
    def test_reports_byte_identical_across_replays(self, traced_replays, fmt):
        rendered = [
            render_sections(
                "Critical path", cp.sections(analyze_trace(b, concurrency=4)), fmt
            )
            for b in traced_replays
        ]
        assert rendered[0] == rendered[1]
        assert rendered[0]  # non-empty

    def test_json_payload_byte_identical_across_replays(self, traced_replays):
        payloads = [
            render_json(analyze_trace(b, concurrency=4).to_dict())
            for b in traced_replays
        ]
        assert payloads[0] == payloads[1]
        json.loads(payloads[0])  # well-formed

    def test_replay_spans_cost_zero_latency(self, traced_replays):
        bundle = traced_replays[0]
        waves = cp.waves_from_trace(bundle)
        total = sum(q.latency for _, queries in waves for q in queries)
        report = analyze_trace(bundle, concurrency=4)
        assert report.serial_seconds == pytest.approx(total)


class TestBenchAnalysis:
    PAYLOAD = {
        "num_queries": 48,
        "max_batch_size": 16,
        "max_concurrency": 4,
        "seconds_per_call": 1.0,
        "waves": [
            {
                "wave_index": 0,
                "num_queries": 48,
                "num_batches": 3,
                "serial_seconds": 48.0,
                "overlapped_seconds": 12.0,
            }
        ],
    }

    def test_balanced_bench_artifact_has_zero_stall(self):
        report = analyze_bench(self.PAYLOAD)
        assert report.source == "bench"
        assert report.speedup == pytest.approx(4.0)
        assert report.stall_seconds == 0.0
        assert report.waves[0].blocking_query is None

    def test_unbalanced_bench_wave_shows_stall(self):
        payload = dict(self.PAYLOAD)
        payload["waves"] = [
            {
                "wave_index": 0,
                "num_queries": 5,
                "num_batches": 1,
                "serial_seconds": 5.0,
                "overlapped_seconds": 2.0,
            }
        ]
        report = analyze_bench(payload)
        # 4 workers x 2s makespan - 5s compute = 3 idle worker-seconds.
        assert report.stall_seconds == pytest.approx(3.0)

    def test_renders_aggregate_placeholder(self):
        text = render_sections(
            "Bench", cp.sections(analyze_bench(self.PAYLOAD)), "text"
        )
        assert "n/a (aggregate)" in text
