"""Trace-format compatibility: v2 and v3 files validate, v1 is rejected.

Schema v3 (this repo's DAG-dispatch release) added only *optional* span
attributes — ``dag_ready``/``dag_dispatched``/``dag_settled``/
``dag_blocked_by`` on batched query spans, ``dag_pipelined`` on wave spans
— so the validator accepts the current version and the one before it
unchanged, and rejects every other version.  The committed
``golden_scheduler_trace_v2.jsonl`` pins the last v2 golden byte-for-byte;
the live v3 golden sits beside it.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.obs.schema import (
    SUPPORTED_FORMAT_VERSIONS,
    TraceSchemaError,
    validate_trace_lines,
)
from repro.obs.tracing import TRACE_FORMAT_VERSION
from repro.runtime.scheduler import QueryScheduler

from tests.equivalence import (
    Scenario,
    readiness_attribute_count,
    run_scenario,
    strip_readiness_attributes,
)

DATA = Path(__file__).parent / "data"


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def make_v1_trace() -> list[dict]:
    """A minimal v1-era trace: envelope only, no attribute catalogue."""
    header = {
        "kind": "run",
        "format_version": 1,
        "run_id": "v1-run",
        "labels": {"dataset": "tiny"},
        "num_spans": 2,
    }
    spans = [
        {
            "kind": "span",
            "run_id": "v1-run",
            "span_id": "s000001",
            "parent_id": None,
            "name": "query",
            "start": 0.0,
            "end": 1.0,
            "duration": 1.0,
            "status": "ok",
            "attributes": {},  # v1 predates required attributes
        },
        {
            "kind": "span",
            "run_id": "v1-run",
            "span_id": "s000002",
            "parent_id": "s000001",
            "name": "llm_call",
            "start": 0.0,
            "end": 0.5,
            "duration": 0.5,
            "status": "ok",
            "attributes": {},
        },
    ]
    return [header, *spans]


class TestVersionMatrix:
    def test_supported_versions_are_current_and_one_back(self):
        assert SUPPORTED_FORMAT_VERSIONS == (2, 3)
        assert TRACE_FORMAT_VERSION == 3

    def test_v1_trace_is_rejected(self):
        with pytest.raises(TraceSchemaError, match="unsupported format_version 1"):
            validate_trace_lines(make_v1_trace())

    def test_v2_catalogue_applies_from_v2_on(self):
        """The same catalogue-violating span is legal in v1, illegal in v2+."""
        for version in (2, 3):
            lines = make_v1_trace()
            lines[0]["format_version"] = version
            with pytest.raises(TraceSchemaError, match="missing required"):
                validate_trace_lines(lines)

    def test_committed_v2_golden_validates(self):
        lines = read_jsonl(DATA / "golden_scheduler_trace_v2.jsonl")
        assert lines[0]["format_version"] == 2
        stats = validate_trace_lines(lines)
        assert stats["num_spans"] == lines[0]["num_spans"]

    def test_committed_v3_golden_validates(self):
        lines = read_jsonl(DATA / "golden_scheduler_trace.jsonl")
        assert lines[0]["format_version"] == 3
        validate_trace_lines(lines)

    def test_v2_and_v3_goldens_differ_only_in_header_version(self):
        v2 = read_jsonl(DATA / "golden_scheduler_trace_v2.jsonl")
        v3 = read_jsonl(DATA / "golden_scheduler_trace.jsonl")
        assert v2[0]["format_version"] == 2 and v3[0]["format_version"] == 3
        v2_header = dict(v2[0], format_version=3)
        assert [v2_header, *v2[1:]] == v3, (
            "v3 regeneration must be additive; the wave-dispatch golden "
            "changes only its header version"
        )

    def test_unknown_future_version_is_rejected(self):
        lines = make_v1_trace()
        lines[0]["format_version"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(TraceSchemaError, match="unsupported format_version"):
            validate_trace_lines(lines)


class TestReadinessAttributesAreAdditive:
    def test_live_dag_threads_trace_validates_with_and_without_dag_attrs(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        capture = run_scenario(
            Scenario(strategy="boost", num_queries=12),
            tiny_tag,
            tiny_split,
            tiny_builder,
            scheduler=QueryScheduler(
                max_batch_size=4, max_concurrency=3, mode="threads", dispatch="dag"
            ),
        )
        lines = capture.trace_raw
        assert lines[0]["format_version"] == 3
        assert readiness_attribute_count(lines) > 0, "pipelined run must annotate spans"
        validate_trace_lines(lines)
        # Strictly additive: the same trace with every dag_* attribute
        # removed is still a valid v3 file — no required attribute moved.
        validate_trace_lines(strip_readiness_attributes(copy.deepcopy(lines)))
