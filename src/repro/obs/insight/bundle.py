"""Loading one run's telemetry bundle for offline analysis.

A *bundle* is everything one instrumented run leaves behind in a single
trace file: the ``run`` header, the span lines, and (usually) the trailing
``metrics`` snapshot.  :class:`RunBundle` wraps the parsed lines with the
accessors every analyzer needs — query spans, point events, metric family
totals — so critical-path, attribution, SLO and diff analysis all read the
same validated view instead of re-walking raw JSONL.

Everything here is pure post-hoc: a bundle is built from a file (or parsed
lines) after the run finished, never from live objects, so analysis can
never perturb an execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.schema import validate_trace_lines
from repro.obs.tracing import read_trace


@dataclass
class RunBundle:
    """One run's parsed trace + metrics lines, with analysis accessors."""

    lines: list[dict]
    path: Path | None = None
    _families: dict = field(default_factory=dict, repr=False)

    @classmethod
    def load(cls, path: str | Path) -> "RunBundle":
        """Read a JSONL trace file into a bundle; a trace is always schema-validated."""
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

    def context(self) -> str:
        """``k=v`` label summary for report headings (never the run id —
        reports must stay byte-identical across replays of the same run)."""
        return " ".join(f"{k}={v}" for k, v in sorted(self.labels.items()))

    # ----------------------------------------------------------------- spans

    @property
    def spans(self) -> list[dict]:
        return [ln for ln in self.lines if ln.get("kind") == "span"]

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s.get("name") == name]

    def query_spans(self) -> list[dict]:
        return self.spans_named("query")

    def events(self, name: str) -> list[dict]:
        """Point events of ``name`` (zero-duration spans), in emission order."""
        return self.spans_named(name)

    def children_of(self, span_id: str) -> list[dict]:
        return [s for s in self.spans if s.get("parent_id") == span_id]

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

    def metric_total(self, name: str, **label_filter: str) -> float:
        """Sum a family's series matching ``label_filter`` (0.0 if absent).

        Histogram series total their observation *counts*, mirroring
        :meth:`repro.obs.metrics.MetricsRegistry.total`.
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        wanted = {(k, str(v)) for k, v in label_filter.items()}
        total = 0.0
        for entry in family.get("series", []):
            entry_labels = set(entry.get("labels", {}).items())
            if wanted <= entry_labels:
                if family.get("kind") == "histogram":
                    total += float(entry.get("count", 0))
                else:
                    total += float(entry.get("value", 0.0))
        return total

    def metric_series(self, name: str, by_label: str) -> dict[str, float]:
        """Per-``by_label`` totals of one family (empty dict if absent)."""
        family = self._families.get(name)
        if family is None:
            return {}
        out: dict[str, float] = {}
        for entry in family.get("series", []):
            key = str(entry.get("labels", {}).get(by_label, ""))
            if family.get("kind") == "histogram":
                value = float(entry.get("count", 0))
            else:
                value = float(entry.get("value", 0.0))
            out[key] = out.get(key, 0.0) + value
        return out
