"""Loading one run's telemetry bundle for offline analysis.

A *bundle* is everything one instrumented run leaves behind in a single
trace file: the ``run`` header, the span lines, and (usually) the trailing
``metrics`` snapshot.  :class:`RunBundle` wraps the parsed lines with the
accessors every reader needs — query spans, settled queries, point events,
metric family totals — so the ``repro trace`` summary and the
critical-path, attribution, SLO and diff analyzers all read the same view
instead of re-walking raw JSONL.

A query *settles* when its ``query`` span carries an ``outcome``: a span
without one is an attempt whose call failed and was deferred to a later
round, where a fresh span settles the node.  A settled span flagged
``replayed`` came back from a checkpoint or journal; it lands in the
``replayed`` bucket and paid nothing in this run.  That rule lives in
:meth:`RunBundle.settled_queries` and nowhere else.

Everything here is pure post-hoc: a bundle is built from a file (or parsed
lines) after the run finished, never from live objects, so analysis can
never perturb an execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracing import read_trace


@dataclass(frozen=True)
class SettledQuery:
    """One settled ``query`` span and what this run paid for it.

    ``bucket`` is ``"replayed"`` for a replayed span and its outcome
    otherwise; tokens and ``cost_usd`` are zero when replayed.
    """

    span_id: str
    node: object
    bucket: str
    replayed: bool
    tier: str | None
    round_index: int | None
    prompt_tokens: int
    completion_tokens: int
    cost_usd: float
    start: float
    end: float
    duration: float


@dataclass
class RunBundle:
    """One run's parsed trace + metrics lines, with analysis accessors."""

    lines: list[dict]
    path: Path | None = None
    _families: dict = field(default_factory=dict, repr=False)

    @classmethod
    def load(cls, path: str | Path) -> "RunBundle":
        """Read a JSONL trace file into a bundle; a trace is always schema-validated."""
        # Imported here: ``repro.obs`` loads this module, and
        # ``python -m repro.obs.schema`` must not find the schema imported.
        from repro.obs.schema import validate_trace_lines

        lines = read_trace(path)
        validate_trace_lines(lines)
        return cls.from_lines(lines, path=Path(path))

    @classmethod
    def from_lines(
        cls, lines: list[dict], path: Path | None = None
    ) -> "RunBundle":
        families: dict = {}
        for line in lines:
            if line.get("kind") == "metrics":
                families = line.get("families", {})
        return cls(lines=list(lines), path=path, _families=families)

    # ---------------------------------------------------------------- header

    @property
    def header(self) -> dict:
        if self.lines and self.lines[0].get("kind") == "run":
            return self.lines[0]
        return {}

    @property
    def run_id(self) -> str:
        return str(self.header.get("run_id", "?"))

    @property
    def labels(self) -> dict[str, str]:
        return dict(self.header.get("labels", {}))

    def title(self, name: str) -> str:
        """``name`` with the run's ``k=v`` labels appended, for report
        headings (the labels never hold the run id, so replays of the same
        run render the same heading)."""
        context = " ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))
        return f"{name} ({context})" if context else name

    # ----------------------------------------------------------------- spans

    @property
    def spans(self) -> list[dict]:
        return [ln for ln in self.lines if ln.get("kind") == "span"]

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s.get("name") == name]

    def query_spans(self) -> list[dict]:
        return self.spans_named("query")

    def settled_queries(self) -> list[SettledQuery]:
        """Every query span that carries an ``outcome``, in trace order."""
        settled = []
        for span in self.query_spans():
            attrs = span.get("attributes", {})
            if "outcome" not in attrs:
                continue  # deferred: a later round's span settles the node
            replayed = bool(attrs.get("replayed"))
            tier, round_index = attrs.get("tier"), attrs.get("round_index")
            settled.append(
                SettledQuery(
                    span_id=span["span_id"],
                    node=attrs.get("node", "?"),
                    bucket="replayed" if replayed else str(attrs["outcome"]),
                    replayed=replayed,
                    tier=None if tier is None else str(tier),
                    round_index=None if round_index is None else int(round_index),
                    prompt_tokens=0 if replayed else int(attrs.get("prompt_tokens", 0)),
                    completion_tokens=(
                        0 if replayed else int(attrs.get("completion_tokens", 0))
                    ),
                    cost_usd=0.0 if replayed else float(attrs.get("cost_usd", 0.0)),
                    start=float(span.get("start", 0.0)),
                    end=float(span.get("end", 0.0)),
                    duration=float(span.get("duration", 0.0)),
                )
            )
        return settled

    def events(self, name: str) -> list[dict]:
        """Point events of ``name`` (zero-duration spans), in emission order."""
        return self.spans_named(name)

    def span_window(self) -> tuple[float, float]:
        """(earliest start, latest end) across all spans; (0, 0) when empty."""
        spans = self.spans
        if not spans:
            return 0.0, 0.0
        starts = [float(s.get("start", 0.0)) for s in spans]
        ends = [float(s.get("end", 0.0)) for s in spans]
        return min(starts), max(ends)

    # --------------------------------------------------------------- metrics

    @property
    def has_metrics(self) -> bool:
        return bool(self._families)

    def _series(self, name: str) -> list[tuple[dict, float]]:
        """(labels, value) per series of one family; histograms give counts."""
        family = self._families.get(name, {})
        key = "count" if family.get("kind") == "histogram" else "value"
        return [
            (entry.get("labels", {}), float(entry.get(key, 0)))
            for entry in family.get("series", [])
        ]

    def metric_total(self, name: str, **label_filter: str) -> float:
        """Sum a family's series matching ``label_filter`` (0.0 if absent).

        Histogram series total their observation *counts*, mirroring
        :meth:`repro.obs.metrics.MetricsRegistry.total`.
        """
        wanted = {(k, str(v)) for k, v in label_filter.items()}
        total = 0.0
        for labels, value in self._series(name):
            if wanted <= set(labels.items()):
                total += value
        return total

    def metric_series(self, name: str, by_label: str) -> dict[str, float]:
        """Per-``by_label`` totals of one family (empty dict if absent)."""
        out: dict[str, float] = {}
        for labels, value in self._series(name):
            key = str(labels.get(by_label, ""))
            out[key] = out.get(key, 0.0) + value
        return out
