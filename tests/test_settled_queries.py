"""The one settled-query rule (``RunBundle.settled_queries``) and its readers.

Every reader of a run's spend — the ``repro trace`` summary, attribution,
the cross-run diff and the SLO fallback — must agree on which query spans
settled and what they paid.
"""

from __future__ import annotations

import pytest

from repro.obs.insight import RunBundle, attribute, summarize_bundle
from repro.obs.insight.slo import events_from_bundle
from repro.obs.summary import outcome_breakdown, round_breakdown

from tests.test_report_bytes import TRACES, resumed_boost_trace, routed_trace


class TestSettledQueries:
    """The one settled-query rule every reader above goes through."""

    def test_deferred_span_is_not_settled(self):
        bundle = RunBundle.from_lines(resumed_boost_trace())
        settled = bundle.settled_queries()
        assert len(bundle.query_spans()) == 7
        assert [q.node for q in settled] == [11, 12, 13, 14, 15, 16]
        assert [q.round_index for q in settled] == [0, 0, 0, 1, 1, 1]

    def test_replayed_spans_pay_nothing(self):
        settled = RunBundle.from_lines(resumed_boost_trace()).settled_queries()
        replayed = [q for q in settled if q.replayed]
        assert [q.bucket for q in replayed] == ["replayed", "replayed"]
        assert all(
            (q.prompt_tokens, q.completion_tokens, q.cost_usd) == (0, 0, 0.0)
            for q in replayed
        )
        retried = next(q for q in settled if q.node == 13)
        assert (retried.bucket, retried.prompt_tokens, retried.cost_usd) == (
            "retried", 310, 0.000483
        )
        assert retried.duration == retried.end - retried.start == 2.5

    def test_tier_is_carried(self):
        settled = RunBundle.from_lines(routed_trace()).settled_queries()
        assert [q.tier for q in settled] == ["gpt-4o-mini", "gpt-3.5"] * 2

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_readers_agree(self, name):
        bundle = RunBundle.from_lines(TRACES[name]())
        settled = bundle.settled_queries()
        report = attribute(bundle)
        rows = outcome_breakdown(bundle)
        assert [(o, n, p, c) for o, n, p, c, _ in rows] == [
            (k, r.queries, r.prompt_tokens, r.completion_tokens)
            for k, r in sorted(report.by_outcome.items())
        ]
        assert sum(n for _, n, _, _ in round_breakdown(bundle)) == sum(
            q.round_index is not None for q in settled
        )
        summary = summarize_bundle(bundle)
        assert summary["queries"] == report.total.queries == len(settled)
        assert summary["paid_tokens"] == report.total.tokens
        if not bundle.events("serve_complete"):
            assert len(events_from_bundle(bundle)) == sum(not q.replayed for q in settled)
