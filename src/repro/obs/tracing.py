"""Span tracer: replay-exact structured traces of query lifecycles.

A *span* is one timed phase of work (a whole query, its neighbor selection,
its LLM call, one retry wait) with a name, attributes, and a parent — the
usual distributed-tracing shape, minus the distribution.  Execution here is
synchronous and single-threaded, so parentage is a plain stack: whatever
span is innermost when a child starts is its parent.

Determinism contract: span ids are sequential (``s000001``...), and all
timestamps come from the tracer's injected clock — normally the same
:class:`~repro.llm.reliability.SimulatedClock` the retry/breaker stack
advances (duck-typed: anything with a ``.now`` float).  With no clock,
every timestamp is 0.0.  Nothing reads the wall clock, so two runs with
the same seeds emit byte-identical traces (modulo the run id).

Traces serialize as JSONL: one ``run`` header line, then one line per span
in start order.  :mod:`repro.obs.schema` documents and validates the format.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Trace file format version (see repro/obs/schema.py).  Version 2 added
#: the serve lifecycle events (``serve_cycle``, ``serve_complete``) and the
#: cascade attributes (``tier``, ``cost_usd``) on routed query spans.
#: Version 3 adds the *optional* readiness attributes of DAG dispatch —
#: ``dag_ready`` / ``dag_dispatched`` / ``dag_settled`` / ``dag_blocked_by``
#: on batched query spans and ``dag_pipelined`` on wave spans — strictly
#: additively: no required attribute changed, so v2 files still validate.
TRACE_FORMAT_VERSION = 3


@dataclass
class Span:
    """One traced phase of work."""

    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float | None = None
    status: str = "ok"
    attributes: dict[str, object] = field(default_factory=dict)

    def set(self, **attributes: object) -> None:
        """Attach attributes after the span started (outcome, token counts)."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self, run_id: str) -> dict:
        return {
            "kind": "span",
            "run_id": run_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": self.attributes,
        }


class SpanTracer:
    """Collects spans for one run on a deterministic clock.

    Parameters
    ----------
    run_id:
        Identifier stamped on every emitted line.  The *only* part of a
        trace allowed to differ between two same-seed runs.
    clock:
        Anything with a ``.now`` float attribute (a ``SimulatedClock``).
        ``None`` pins every timestamp to 0.0 — structure still traces.
    labels:
        Run-level context (dataset, method, strategy, model) for the header.
    """

    def __init__(
        self,
        run_id: str = "run",
        clock: object | None = None,
        labels: dict[str, str] | None = None,
    ):
        self.run_id = str(run_id)
        self.clock = clock
        self.labels = dict(labels or {})
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def _now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def _new_span(self, name: str, attributes: dict[str, object]) -> Span:
        self._next_id += 1
        span = Span(
            span_id=f"s{self._next_id:06d}",
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=str(name),
            start=self._now(),
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Open a child span for the duration of the ``with`` block.

        An exception escaping the block marks the span ``status="error"``
        (with the exception type attached) and propagates.
        """
        span = self._new_span(name, attributes)
        self._stack.append(span)
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.attributes.setdefault("error_type", type(error).__name__)
            raise
        finally:
            span.end = self._now()
            self._stack.pop()

    def event(self, name: str, **attributes: object) -> Span:
        """Zero-duration span (a point event: a retry, a breaker trip)."""
        span = self._new_span(name, attributes)
        span.end = span.start
        return span

    @property
    def current(self) -> Span | None:
        """Innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------ serialization

    def header(self) -> dict:
        return {
            "kind": "run",
            "format_version": TRACE_FORMAT_VERSION,
            "run_id": self.run_id,
            "labels": self.labels,
            "num_spans": len(self.spans),
        }

    def to_dicts(self) -> list[dict]:
        """Header line plus every span, in start order."""
        return [self.header(), *(s.to_dict(self.run_id) for s in self.spans)]

    def write_jsonl(self, path: str | Path, extra_lines: list[dict] | None = None) -> Path:
        """Write the trace (plus optional trailing lines, e.g. a metrics
        snapshot) as JSONL at ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = self.to_dicts() + list(extra_lines or [])
        path.write_text("\n".join(json.dumps(d, sort_keys=True) for d in lines) + "\n")
        return path


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace file back into its line dicts."""
    out = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{i}: not valid JSON: {error}") from error
    return out
