"""Cross-run regression diffing: two telemetry bundles, one verdict.

:func:`summarize_bundle` flattens a run into a stable set of scalar
indicators (latency percentiles, makespan, paid tokens, dollars, retry and
deferral counts, serve goodput/shed ratios, cache hit rate).
:func:`diff_summaries` compares two such summaries **direction-aware**: a
p99 that went up is a regression, a goodput ratio that went up is an
improvement, and a changed query count is neither — it is flagged as a
*shape* change so the reader knows the runs are not like-for-like.

The verdict is the contract the benchmark gate consumes
(``benchmarks/check_regression.py``): ``identical`` (every indicator
bit-equal — what two replays of the same seed must produce), ``ok``
(within tolerance), ``improvement`` (moved the right way beyond
tolerance, nothing moved the wrong way), or ``regression`` (anything
moved the wrong way beyond tolerance — regression always wins on mixed
movement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.insight.bundle import RunBundle
from repro.obs.insight.report import Section

#: How each summary indicator should move.  ``neutral`` indicators never
#: trigger a verdict — they describe run shape, not performance.
DIRECTIONS: dict[str, str] = {
    "queries": "neutral",
    "prompt_tokens": "lower_better",
    "completion_tokens": "lower_better",
    "paid_tokens": "lower_better",
    "cost_usd": "lower_better",
    "retries": "lower_better",
    "deferrals": "neutral",
    "escalations": "lower_better",
    "latency_p50_seconds": "lower_better",
    "latency_p99_seconds": "lower_better",
    "makespan_seconds": "lower_better",
    "goodput_ratio": "higher_better",
    "rejected_ratio": "lower_better",
    "degraded_ratio": "lower_better",
    "cache_hit_rate": "higher_better",
}


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def summarize_bundle(bundle: RunBundle) -> dict[str, float]:
    """Flatten one bundle into the scalar indicators the diff compares.

    Latencies prefer v2 ``serve_complete`` events (request-level) and fall
    back to executed query-span durations.  Token/dollar totals count paid
    work only — replayed spans contribute zero, matching the ledgers.
    """
    summary: dict[str, float] = {}
    completions = bundle.events("serve_complete")
    if completions:
        latencies = [
            float(e.get("attributes", {}).get("latency_seconds", 0.0))
            for e in completions
        ]
        statuses = [
            str(e.get("attributes", {}).get("status", "served")) for e in completions
        ]
        total = len(statuses)
        summary["goodput_ratio"] = statuses.count("served") / total if total else 0.0
        summary["rejected_ratio"] = statuses.count("rejected") / total if total else 0.0
        summary["degraded_ratio"] = statuses.count("degraded") / total if total else 0.0
    else:
        latencies = []

    settled = bundle.settled_queries()
    queries = len(settled)
    prompt_tokens = 0
    completion_tokens = 0
    cost_usd = 0.0
    for query in settled:
        if query.replayed:
            continue
        if not completions:
            latencies.append(query.duration)
        prompt_tokens += query.prompt_tokens
        completion_tokens += query.completion_tokens
        cost_usd += query.cost_usd
    summary["queries"] = float(queries)
    summary["prompt_tokens"] = float(prompt_tokens)
    summary["completion_tokens"] = float(completion_tokens)
    summary["paid_tokens"] = float(prompt_tokens + completion_tokens)
    summary["cost_usd"] = cost_usd

    summary["retries"] = float(len(bundle.events("retry")))
    summary["deferrals"] = float(len(bundle.events("deferral")))
    summary["escalations"] = float(len(bundle.events("escalation")))

    summary["latency_p50_seconds"] = _percentile(latencies, 0.50)
    summary["latency_p99_seconds"] = _percentile(latencies, 0.99)
    start, end = bundle.span_window()
    summary["makespan_seconds"] = end - start

    hits = bundle.metric_total("repro_cache_hits_total")
    misses = bundle.metric_total("repro_cache_misses_total")
    if hits + misses > 0:
        summary["cache_hit_rate"] = hits / (hits + misses)
    return summary


@dataclass(frozen=True)
class Delta:
    """One indicator's movement between baseline and current."""

    name: str
    direction: str
    baseline: float
    current: float

    @property
    def abs_delta(self) -> float:
        return self.current - self.baseline

    @property
    def rel_delta(self) -> float:
        """Relative change; a move away from a zero baseline reads as 100%."""
        if self.baseline != 0.0:
            return (self.current - self.baseline) / abs(self.baseline)
        return 0.0 if self.current == 0.0 else 1.0

    def classify(self, tolerance: float) -> str:
        """'same' | 'ok' | 'improvement' | 'regression' | 'shape'."""
        if self.current == self.baseline:
            return "same"
        if self.direction == "neutral":
            return "shape"
        if abs(self.rel_delta) <= tolerance:
            return "ok"
        worse = self.rel_delta > 0 if self.direction == "lower_better" else self.rel_delta < 0
        return "regression" if worse else "improvement"

    def to_dict(self, tolerance: float) -> dict:
        return {
            "name": self.name,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "abs_delta": self.abs_delta,
            "rel_delta": self.rel_delta,
            "classification": self.classify(tolerance),
        }


@dataclass(frozen=True)
class DiffReport:
    """Direction-aware comparison of two run summaries."""

    deltas: tuple[Delta, ...]
    tolerance: float

    def _classified(self, kind: str) -> list[Delta]:
        return [d for d in self.deltas if d.classify(self.tolerance) == kind]

    @property
    def regressions(self) -> list[Delta]:
        return self._classified("regression")

    @property
    def improvements(self) -> list[Delta]:
        return self._classified("improvement")

    @property
    def shape_changes(self) -> list[Delta]:
        return self._classified("shape")

    @property
    def verdict(self) -> str:
        """'identical' | 'ok' | 'improvement' | 'regression'."""
        if self.regressions:
            return "regression"
        if all(d.classify(self.tolerance) == "same" for d in self.deltas):
            return "identical"
        if self.improvements:
            return "improvement"
        return "ok"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "deltas": [d.to_dict(self.tolerance) for d in self.deltas],
            "regressions": [d.name for d in self.regressions],
            "improvements": [d.name for d in self.improvements],
            "shape_changes": [d.name for d in self.shape_changes],
        }


def diff_summaries(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float = 0.1,
    directions: dict[str, str] | None = None,
) -> DiffReport:
    """Compare two flat summaries; keys in either side are compared.

    ``directions`` overrides/extends :data:`DIRECTIONS` — the serve
    benchmark gate passes its own map for artifact keys.  A key missing
    from both maps defaults to ``neutral``.
    """
    table = dict(DIRECTIONS)
    if directions:
        table.update(directions)
    deltas = tuple(
        Delta(
            name=name,
            direction=table.get(name, "neutral"),
            baseline=float(baseline.get(name, 0.0)),
            current=float(current.get(name, 0.0)),
        )
        for name in sorted(set(baseline) | set(current))
    )
    return DiffReport(deltas=deltas, tolerance=tolerance)


def diff_bundles(
    baseline: RunBundle, current: RunBundle, tolerance: float = 0.1
) -> DiffReport:
    return diff_summaries(
        summarize_bundle(baseline), summarize_bundle(current), tolerance
    )


# ------------------------------------------------------------------ report


_BADGES = {
    "same": "=",
    "ok": "~",
    "improvement": "better",
    "regression": "WORSE",
    "shape": "shape",
}


def sections(report: DiffReport) -> list[Section]:
    rows = []
    for delta in report.deltas:
        kind = delta.classify(report.tolerance)
        rows.append(
            (
                delta.name,
                f"{delta.baseline:g}",
                f"{delta.current:g}",
                f"{delta.rel_delta:+.1%}" if kind != "same" else "-",
                _BADGES[kind],
            )
        )
    notes = [f"verdict: {report.verdict} (tolerance {report.tolerance:.0%})"]
    if report.regressions:
        notes.append(
            "regressed: " + ", ".join(d.name for d in report.regressions)
        )
    if report.improvements:
        notes.append(
            "improved: " + ", ".join(d.name for d in report.improvements)
        )
    if report.shape_changes:
        notes.append(
            "run shape changed (not scored): "
            + ", ".join(d.name for d in report.shape_changes)
        )
    return [
        Section(
            title="Indicator deltas (baseline -> current)",
            headers=["Indicator", "Baseline", "Current", "Delta", "Class"],
            rows=rows,
            notes=notes,
        )
    ]
