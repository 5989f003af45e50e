"""Tests for the span tracer and the trace-file schema validator."""

from __future__ import annotations

import pytest

from repro.llm.reliability import SimulatedClock
from repro.obs.schema import (
    TraceSchemaError,
    validate_trace_file,
    validate_trace_lines,
)
from repro.obs.schema import main as schema_main
from repro.obs.tracing import TRACE_FORMAT_VERSION, SpanTracer, read_trace


def make_trace(run_id: str = "t1") -> SpanTracer:
    clock = SimulatedClock()
    tracer = SpanTracer(run_id=run_id, clock=clock, labels={"dataset": "tiny"})
    with tracer.span("query", node=3):
        with tracer.span("llm_call", node=3):
            clock.advance(1.5)
            tracer.event("retry", attempt=0, wait_seconds=1.5)
    return tracer


class TestSpanTracer:
    def test_stack_parentage(self):
        tracer = make_trace()
        query, llm_call, retry = tracer.spans
        assert query.parent_id is None
        assert llm_call.parent_id == query.span_id
        assert retry.parent_id == llm_call.span_id

    def test_sequential_span_ids(self):
        tracer = make_trace()
        assert [s.span_id for s in tracer.spans] == ["s000001", "s000002", "s000003"]

    def test_clock_timestamps_and_durations(self):
        tracer = make_trace()
        query, llm_call, retry = tracer.spans
        assert (query.start, query.end) == (0.0, 1.5)
        assert llm_call.duration == 1.5
        assert retry.duration == 0.0 and retry.start == 1.5

    def test_no_clock_pins_timestamps_to_zero(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        assert tracer.spans[0].start == 0.0 and tracer.spans[0].end == 0.0

    def test_exception_marks_span_error_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("query"):
                raise RuntimeError("boom")
        span = tracer.spans[0]
        assert span.status == "error"
        assert span.attributes["error_type"] == "RuntimeError"
        assert span.end is not None
        assert tracer.current is None  # the stack unwound

    def test_current_tracks_innermost_open_span(self):
        tracer = SpanTracer()
        assert tracer.current is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current is inner

    def test_set_attaches_attributes_after_start(self):
        tracer = SpanTracer()
        with tracer.span("query") as span:
            span.set(outcome="ok", prompt_tokens=12)
        assert tracer.spans[0].attributes == {"outcome": "ok", "prompt_tokens": 12}

    def test_jsonl_round_trip(self, tmp_path):
        tracer = make_trace()
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        lines = read_trace(path)
        assert lines == tracer.to_dicts()
        header = lines[0]
        assert header["kind"] == "run"
        assert header["format_version"] == TRACE_FORMAT_VERSION
        assert header["num_spans"] == 3
        assert header["labels"] == {"dataset": "tiny"}

    def test_same_script_is_byte_identical_modulo_run_id(self, tmp_path):
        a = make_trace("aaa").write_jsonl(tmp_path / "a.jsonl").read_text()
        b = make_trace("bbb").write_jsonl(tmp_path / "b.jsonl").read_text()
        assert a.replace("aaa", "bbb") == b


class TestTraceSchema:
    def test_valid_trace_passes(self, tmp_path):
        path = make_trace().write_jsonl(tmp_path / "trace.jsonl")
        stats = validate_trace_file(path)
        assert stats == {
            "run_id": "t1",
            "num_spans": 3,
            "has_metrics": False,
            "labels": {"dataset": "tiny"},
        }

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceSchemaError, match="empty"):
            validate_trace_lines([])

    def test_header_must_come_first(self):
        lines = make_trace().to_dicts()
        with pytest.raises(TraceSchemaError, match="run header"):
            validate_trace_lines(lines[1:])

    def test_unknown_version_rejected(self):
        lines = make_trace().to_dicts()
        lines[0]["format_version"] = 99
        with pytest.raises(TraceSchemaError, match="format_version"):
            validate_trace_lines(lines)

    def test_mismatched_run_id_rejected(self):
        lines = make_trace().to_dicts()
        lines[2]["run_id"] = "other"
        with pytest.raises(TraceSchemaError, match="run_id"):
            validate_trace_lines(lines)

    def test_parent_must_reference_earlier_span(self):
        lines = make_trace().to_dicts()
        lines[1]["parent_id"] = "s999999"
        with pytest.raises(TraceSchemaError, match="earlier span"):
            validate_trace_lines(lines)

    def test_duplicate_span_id_rejected(self):
        lines = make_trace().to_dicts()
        lines[2]["span_id"] = lines[1]["span_id"]
        lines[2]["parent_id"] = None
        with pytest.raises(TraceSchemaError, match="duplicate span_id"):
            validate_trace_lines(lines)

    def test_duration_must_match_endpoints(self):
        lines = make_trace().to_dicts()
        lines[1]["duration"] = 42.0
        with pytest.raises(TraceSchemaError, match="duration"):
            validate_trace_lines(lines)

    def test_span_count_must_match_header(self):
        lines = make_trace().to_dicts()
        with pytest.raises(TraceSchemaError, match="num_spans"):
            validate_trace_lines(lines[:-1])

    def test_metrics_line_must_be_last(self):
        lines = make_trace().to_dicts()
        metrics = {"kind": "metrics", "run_id": "t1", "families": {}}
        assert validate_trace_lines(lines + [metrics])["has_metrics"] is True
        with pytest.raises(TraceSchemaError, match="last line"):
            validate_trace_lines(lines[:1] + [metrics] + lines[1:])

    def test_metrics_families_are_checked(self):
        lines = make_trace().to_dicts()
        metrics = {
            "kind": "metrics",
            "run_id": "t1",
            "families": {"x": {"kind": "nonsense", "series": []}},
        }
        with pytest.raises(TraceSchemaError, match="unknown kind"):
            validate_trace_lines(lines + [metrics])

    def test_cli_entry_point(self, tmp_path, capsys):
        path = make_trace().write_jsonl(tmp_path / "trace.jsonl")
        assert schema_main([str(path)]) == 0
        assert "OK: run t1" in capsys.readouterr().out

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert schema_main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

        assert schema_main([]) == 2
