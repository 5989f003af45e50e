"""Edge cases for trace summaries (repro.obs.summary) and schema v2.

The summary renderer must degrade gracefully on the traces real runs can
legitimately produce: a run that died before any query, a single plain
wave, a fully degraded run that never reached the LLM, and v1 trace files
written before the format bump.
"""

from __future__ import annotations

import copy

import pytest

from repro.llm.reliability import SimulatedClock
from repro.obs.insight import RunBundle
from repro.obs.schema import (
    SUPPORTED_FORMAT_VERSIONS,
    TraceSchemaError,
    validate_trace_lines,
)
from repro.obs.summary import (
    cache_efficiency,
    outcome_breakdown,
    render_trace_summary,
    round_breakdown,
)
from repro.obs.tracing import TRACE_FORMAT_VERSION, SpanTracer


def empty_trace() -> list[dict]:
    return SpanTracer(run_id="empty", clock=SimulatedClock()).to_dicts()


def single_wave_trace() -> list[dict]:
    """One plain (unboosted) wave of three successful queries."""
    clock = SimulatedClock()
    tracer = SpanTracer(run_id="plain", clock=clock, labels={"dataset": "tiny"})
    for node in range(3):
        with tracer.span("query", node=node) as span:
            with tracer.span("llm_call", node=node):
                clock.advance(1.0)
            span.set(outcome="ok", prompt_tokens=50, completion_tokens=2)
    return tracer.to_dicts()


def degraded_only_trace() -> list[dict]:
    """Zero LLM calls: every query lands on the surrogate or abstains."""
    clock = SimulatedClock()
    tracer = SpanTracer(run_id="degraded", clock=clock)
    for node in range(4):
        with tracer.span("query", node=node) as span:
            name = "degrade_surrogate" if node % 2 else "abstain"
            with tracer.span(name, node=node):
                pass
            span.set(
                outcome="degraded_surrogate" if node % 2 else "abstained",
                prompt_tokens=0,
                completion_tokens=0,
            )
    return tracer.to_dicts()


def as_v1(lines: list[dict]) -> list[dict]:
    lines = copy.deepcopy(lines)
    lines[0]["format_version"] = 1
    return lines


class TestSummaryEdges:
    def test_empty_trace_renders(self):
        text = render_trace_summary(empty_trace())
        assert "no query spans in trace" in text
        assert outcome_breakdown(RunBundle.from_lines(empty_trace())) == []
        assert round_breakdown(RunBundle.from_lines(empty_trace())) == []
        assert cache_efficiency(RunBundle.from_lines(empty_trace())) is None

    def test_single_wave_run_has_no_round_table(self):
        lines = single_wave_trace()
        text = render_trace_summary(lines)
        assert "Boosting rounds" not in text
        assert "3 queries" in text
        assert round_breakdown(RunBundle.from_lines(lines)) == []

    def test_zero_llm_call_run_summarizes_degradations(self):
        lines = degraded_only_trace()
        rows = {outcome: n for outcome, n, _, _, _ in outcome_breakdown(RunBundle.from_lines(lines))}
        assert rows == {"degraded_surrogate": 2, "abstained": 2}
        text = render_trace_summary(lines)
        assert "0 paid tokens" in text

    def test_v1_trace_still_summarizes(self):
        text_v1 = render_trace_summary(as_v1(single_wave_trace()))
        text_v2 = render_trace_summary(single_wave_trace())
        assert text_v1 == text_v2  # format version never reaches the report


class TestSchemaVersions:
    def test_current_and_one_back_supported(self):
        assert SUPPORTED_FORMAT_VERSIONS == (2, 3)
        assert TRACE_FORMAT_VERSION == 3

    def test_v2_trace_validates(self):
        validate_trace_lines(single_wave_trace())

    def test_v1_trace_is_rejected(self):
        # v1 is two versions back, outside the compat window.
        with pytest.raises(TraceSchemaError, match="unsupported format_version 1"):
            validate_trace_lines(as_v1(single_wave_trace()))

    def test_v2_enforces_required_attributes(self):
        lines = single_wave_trace()
        for line in lines:
            if line.get("name") == "llm_call":
                line["attributes"].pop("node")
        with pytest.raises(TraceSchemaError, match="llm_call.*node"):
            validate_trace_lines(lines)

    def test_v2_keeps_unknown_span_names_legal(self):
        clock = SimulatedClock()
        tracer = SpanTracer(run_id="open", clock=clock)
        with tracer.span("some_future_event", anything="goes"):
            pass
        validate_trace_lines(tracer.to_dicts())

    def test_unknown_version_rejected(self):
        lines = single_wave_trace()
        lines[0]["format_version"] = 99
        with pytest.raises(TraceSchemaError, match="format_version"):
            validate_trace_lines(lines)
