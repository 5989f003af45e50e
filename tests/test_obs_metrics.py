"""Tests for the metrics registry: instruments, queries, exposition."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    TOKEN_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_is_monotonic(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(4)
        g.inc()
        g.inc(-2)
        assert g.value == 3.0

    def test_histogram_buckets(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            h.observe(value)
        # Per-bucket counts: (≤1, ≤2, ≤4, +Inf); cumulative at exposition.
        assert h.bucket_counts == [2, 0, 1, 1]
        assert h.cumulative() == [(1.0, 2), (2.0, 2), (4.0, 3), (math.inf, 4)]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))

    def test_histogram_rejects_nan(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0,)).observe(float("nan"))

    def test_default_bucket_constants_are_increasing(self):
        for bounds in (TOKEN_BUCKETS, LATENCY_BUCKETS):
            assert list(bounds) == sorted(bounds)


class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", outcome="ok")
        b = reg.counter("requests_total", outcome="ok")
        assert a is b
        a.inc()
        assert reg.value("requests_total", outcome="ok") == 1.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("x_total", a="1", b="2").inc()
        assert reg.value("x_total", b="2", a="1") == 1.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="other buckets"):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_name", **{"bad-label": "x"})

    def test_total_filters_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("queries_total", outcome="ok").inc(3)
        reg.counter("queries_total", outcome="abstained").inc(1)
        assert reg.total("queries_total") == 4.0
        assert reg.total("queries_total", outcome="ok") == 3.0
        assert reg.total("queries_total", outcome="missing") == 0.0

    def test_total_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().total("never_registered") == 0.0

    def test_total_over_histograms_sums_counts(self):
        reg = MetricsRegistry()
        h = reg.histogram("tokens", buckets=(10.0,), outcome="ok")
        h.observe(3)
        h.observe(30)
        assert reg.total("tokens", outcome="ok") == 2.0

    def test_series_lists_every_label_set(self):
        reg = MetricsRegistry()
        reg.counter("q_total", outcome="ok").inc(2)
        reg.counter("q_total", outcome="retried").inc(1)
        series = reg.series("q_total")
        assert series[(("outcome", "ok"),)] == 2.0
        assert series[(("outcome", "retried"),)] == 1.0
        assert reg.series("unknown") == {}

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help text", outcome="ok").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(reg.to_json())
        assert snapshot["families"]["c_total"]["kind"] == "counter"
        assert snapshot["families"]["c_total"]["help"] == "help text"
        (c_series,) = snapshot["families"]["c_total"]["series"]
        assert c_series == {"labels": {"outcome": "ok"}, "value": 2.0}
        (h_series,) = snapshot["families"]["h"]["series"]
        assert h_series["count"] == 1
        assert h_series["buckets"][-1] == {"le": "+Inf", "count": 1}

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_queries_total", "Queries", outcome="ok").inc(3)
        reg.gauge("repro_breaker_state").set(2)
        reg.histogram("repro_query_tokens", buckets=(10.0, 20.0)).observe(15)
        text = reg.to_prometheus()
        assert "# HELP repro_queries_total Queries" in text
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{outcome="ok"} 3' in text
        assert "repro_breaker_state 2" in text
        assert 'repro_query_tokens_bucket{le="10"} 0' in text
        assert 'repro_query_tokens_bucket{le="20"} 1' in text
        assert 'repro_query_tokens_bucket{le="+Inf"} 1' in text
        assert "repro_query_tokens_sum 15" in text
        assert "repro_query_tokens_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c_total", model='a"b\\c\nd').inc()
        line = next(
            x for x in reg.to_prometheus().splitlines() if x.startswith("c_total{")
        )
        assert line == 'c_total{model="a\\"b\\\\c\\nd"} 1'

    def test_prometheus_escapes_help_text(self):
        # Exposition-format 0.0.4: HELP text escapes backslash and line feed
        # only — a raw newline would truncate the comment and leave the rest
        # of the help string as an unparseable sample line.
        reg = MetricsRegistry()
        reg.counter("c_total", "tokens\nper C:\\path request").inc()
        lines = reg.to_prometheus().splitlines()
        help_line = next(x for x in lines if x.startswith("# HELP c_total"))
        assert help_line == "# HELP c_total tokens\\nper C:\\\\path request"
        # Exactly one physical line carries the help text.
        assert sum(1 for x in lines if x.startswith("# HELP")) == 1

    def test_prometheus_help_quotes_stay_literal(self):
        # HELP text is not quoted, so quotes must pass through unescaped
        # (escaping them would render literal backslashes in scrape UIs).
        reg = MetricsRegistry()
        reg.counter("c_total", 'rate of "good" answers').inc()
        text = reg.to_prometheus()
        assert '# HELP c_total rate of "good" answers' in text

    def test_prometheus_output_stays_machine_parseable_with_hostile_labels(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "h", tenant='line1\nline2"x\\y').inc(2)
        for line in reg.to_prometheus().splitlines():
            # No emitted physical line may be a bare continuation fragment:
            # every line is a comment or starts with the metric name.
            assert line.startswith("#") or line.startswith("c_total"), line
