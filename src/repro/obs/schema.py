"""Trace-file schema and validator (stdlib only, CI-runnable).

A trace file is JSONL with three line kinds:

``run`` (exactly one, first line)
    ``format_version`` (int), ``run_id`` (str), ``labels`` (str→str map),
    ``num_spans`` (int, must match the span lines that follow).

``span`` (zero or more, in start order)
    ``run_id`` (matching the header), ``span_id`` (unique, ``s`` + digits),
    ``parent_id`` (null or an *earlier* span's id — parents start before
    children), ``name`` (str), ``start``/``end`` (numbers, ``end >=
    start``), ``duration`` (``end - start``), ``status`` (``ok`` |
    ``error``), ``attributes`` (JSON object).

``metrics`` (zero or one, last line)
    A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` payload under
    ``families``, plus the ``run_id``.

Every known span name must carry the attributes of the per-event
catalogue (:data:`EVENT_REQUIRED_ATTRS`).  The validator accepts the
current format and the one before it (:data:`SUPPORTED_FORMAT_VERSIONS`):
v3 only added the *optional* readiness attributes of DAG dispatch
(``dag_ready`` / ``dag_dispatched`` / ``dag_settled`` / ``dag_blocked_by``
on batched query spans, ``dag_pipelined`` on wave spans), so the one
catalogue validates v2 and v3 alike.  Older traces are rejected.

``python -m repro.obs.schema TRACE.jsonl`` validates a file and exits
non-zero on the first violation — this is what ``make trace-smoke`` runs
in CI after emitting a real instrumented run.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs.tracing import TRACE_FORMAT_VERSION, read_trace

_SPAN_STATUSES = ("ok", "error")
_METRIC_KINDS = ("counter", "gauge", "histogram")

#: Trace format versions this validator accepts: the current one and one back.
SUPPORTED_FORMAT_VERSIONS = (2, TRACE_FORMAT_VERSION)

#: Required attributes per known span/event name — the audit of everything
#: the stack actually emits today (engine lifecycle, boosting, cascade
#: routing, serving, reliability, checkpoints, chaos).  Unknown names stay
#: legal (the schema is open for extension); a *known* name missing a
#: required attribute is a validation error.
EVENT_REQUIRED_ATTRS: dict[str, tuple[str, ...]] = {
    # engine query lifecycle
    "query": ("node",),
    "select_neighbors": ("node",),
    "prompt_build": ("node", "num_neighbors"),
    "llm_call": ("node",),
    "compress": ("node",),
    "parse": ("node",),
    "degrade_compressed": ("node",),
    "degrade_pruned": ("node",),
    "degrade_surrogate": ("node",),
    "abstain": ("node",),
    # boosting
    "round": ("round_index", "candidates"),
    "deferral": ("node", "attempt"),
    "pruning_plan": ("num_pruned", "num_total", "tau"),
    # cascade routing
    "escalation": ("node", "from_tier", "to_tier", "reason"),
    # serving layer
    "admission": ("tenant", "decision", "queue_depth"),
    "serve_cycle": ("cycle", "queue_depth", "dispatched"),
    "serve_complete": ("tenant", "status", "tier", "latency_seconds"),
    # scheduler (threads mode only; simulated dispatch emits no wave spans)
    "wave": ("wave_index", "queries"),
    # reliability
    "retry": ("attempt", "wait_seconds"),
    "deadline_give_up": ("attempts",),
    "breaker_transition": ("old", "new", "at"),
    "breaker_rejection": (),
    # checkpoints
    "checkpoint_loaded": ("num_records", "completed"),
    "checkpoint_recovered": ("num_records", "reason"),
    # chaos
    "chaos_fault": ("fault", "target", "detail"),
}


class TraceSchemaError(ValueError):
    """A trace line violates the schema; the message names line and field."""


def _require(condition: bool, line_no: int, message: str) -> None:
    if not condition:
        raise TraceSchemaError(f"line {line_no}: {message}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace_lines(lines: list[dict]) -> dict:
    """Validate parsed trace lines; returns summary stats on success.

    Raises :class:`TraceSchemaError` naming the first offending line.
    """
    _require(len(lines) >= 1, 1, "trace is empty")
    header = lines[0]
    _require(header.get("kind") == "run", 1, "first line must be the run header")
    version = header.get("format_version")
    _require(
        version in SUPPORTED_FORMAT_VERSIONS,
        1,
        f"unsupported format_version {version!r} "
        f"(supported: {SUPPORTED_FORMAT_VERSIONS})",
    )
    run_id = header.get("run_id")
    _require(isinstance(run_id, str) and bool(run_id), 1, "run_id must be a non-empty string")
    labels = header.get("labels", {})
    _require(isinstance(labels, dict), 1, "labels must be an object")
    _require(
        all(isinstance(k, str) and isinstance(v, str) for k, v in labels.items()),
        1,
        "labels must map strings to strings",
    )

    seen_ids: set[str] = set()
    num_spans = 0
    metrics_seen = False
    for line_no, line in enumerate(lines[1:], start=2):
        kind = line.get("kind")
        if kind == "metrics":
            _require(not metrics_seen, line_no, "duplicate metrics line")
            _require(line_no == len(lines), line_no, "metrics must be the last line")
            _validate_metrics(line, line_no, run_id)
            metrics_seen = True
            continue
        _require(kind == "span", line_no, f"unknown line kind {kind!r}")
        _require(line.get("run_id") == run_id, line_no, "span run_id differs from header")
        span_id = line.get("span_id")
        _require(
            isinstance(span_id, str) and span_id.startswith("s") and span_id[1:].isdigit(),
            line_no,
            f"bad span_id {span_id!r}",
        )
        _require(span_id not in seen_ids, line_no, f"duplicate span_id {span_id!r}")
        parent = line.get("parent_id")
        _require(
            parent is None or parent in seen_ids,
            line_no,
            f"parent_id {parent!r} does not reference an earlier span",
        )
        seen_ids.add(span_id)
        _require(
            isinstance(line.get("name"), str) and bool(line["name"]),
            line_no,
            "span name must be a non-empty string",
        )
        start, end = line.get("start"), line.get("end")
        _require(_is_number(start), line_no, "start must be a number")
        _require(_is_number(end), line_no, "end must be a number (spans are closed)")
        _require(end >= start, line_no, "end must be >= start")
        duration = line.get("duration")
        _require(
            _is_number(duration) and abs(duration - (end - start)) < 1e-9,
            line_no,
            "duration must equal end - start",
        )
        _require(
            line.get("status") in _SPAN_STATUSES,
            line_no,
            f"status must be one of {_SPAN_STATUSES}",
        )
        attributes = line.get("attributes")
        _require(isinstance(attributes, dict), line_no, "attributes must be an object")
        for attr in EVENT_REQUIRED_ATTRS.get(line["name"], ()):
            _require(
                attr in attributes,
                line_no,
                f"{line['name']!r} span is missing required attribute {attr!r}",
            )
        num_spans += 1

    _require(
        header.get("num_spans") == num_spans,
        1,
        f"header num_spans={header.get('num_spans')} but {num_spans} span lines found",
    )
    return {
        "run_id": run_id,
        "num_spans": num_spans,
        "has_metrics": metrics_seen,
        "labels": labels,
    }


def _validate_metrics(line: dict, line_no: int, run_id: object) -> None:
    _require(line.get("run_id") == run_id, line_no, "metrics run_id differs from header")
    families = line.get("families")
    _require(isinstance(families, dict), line_no, "metrics line needs a families object")
    for name, family in families.items():
        _require(isinstance(family, dict), line_no, f"family {name!r} must be an object")
        _require(
            family.get("kind") in _METRIC_KINDS,
            line_no,
            f"family {name!r} has unknown kind {family.get('kind')!r}",
        )
        series = family.get("series")
        _require(isinstance(series, list), line_no, f"family {name!r} needs a series list")
        for entry in series:
            _require(
                isinstance(entry.get("labels"), dict),
                line_no,
                f"series of {name!r} needs a labels object",
            )
            if family["kind"] == "histogram":
                _require(
                    _is_number(entry.get("count")) and _is_number(entry.get("sum")),
                    line_no,
                    f"histogram series of {name!r} needs count and sum",
                )
            else:
                _require(
                    _is_number(entry.get("value")),
                    line_no,
                    f"series of {name!r} needs a numeric value",
                )


def validate_trace_file(path: str | Path) -> dict:
    """Read and validate one trace file; returns the summary stats."""
    return validate_trace_lines(read_trace(path))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: python -m repro.obs.schema TRACE.jsonl", file=sys.stderr)
        return 2
    try:
        stats = validate_trace_file(args[0])
    except (TraceSchemaError, ValueError, OSError) as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: run {stats['run_id']} — {stats['num_spans']} spans, "
        f"metrics={'yes' if stats['has_metrics'] else 'no'}, labels={stats['labels']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
