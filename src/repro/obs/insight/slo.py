"""Declarative SLOs evaluated over a run's simulated timeline.

An :class:`SLObjective` declares what fraction of requests must be *good*
(``target_ratio``) under one of three goodness predicates:

``latency``
    good ⇔ the request completed within ``threshold_seconds``;
``goodput``
    good ⇔ the request was served at full fidelity (serve ``status ==
    "served"``; classify outcome ``ok``/``retried``);
``error_rate``
    good ⇔ the request was not dropped (serve ``status != "rejected"``;
    classify ``outcome != "abstained"``).

Evaluation consumes the v2 ``serve_complete`` events when present (the
serving layer emits them replay-exact, timestamped on the
:class:`~repro.llm.reliability.SimulatedClock`), falling back to query
spans for classify traces.  Besides the end-of-run attainment, each
objective reports **burn rates**: the run window splits into equal
simulated-time slices and each slice's bad fraction is divided by the
objective's error budget (``1 − target_ratio``) — burn > 1 means that
slice alone was eating budget faster than the SLO allows, the standard
multi-window burn-rate alerting signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.obs.insight.bundle import RunBundle
from repro.obs.insight.report import Section, fmt_ratio

SLO_KINDS = ("latency", "goodput", "error_rate")

#: Sentinel burn rate when the error budget is zero but bad events exist.
INFINITE_BURN = float("inf")


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective: ``target_ratio`` of events must be good."""

    name: str
    kind: str
    target_ratio: float
    threshold_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"kind must be one of {SLO_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be in (0, 1], got {self.target_ratio}")
        if self.kind == "latency" and self.threshold_seconds is None:
            raise ValueError("latency objectives need threshold_seconds")


#: Default serve objectives — deliberately loose enough that a healthy
#: un-overloaded run meets them, tight enough that shedding shows up.
DEFAULT_OBJECTIVES = (
    SLObjective("p95-latency-under-30s", "latency", 0.95, threshold_seconds=30.0),
    SLObjective("goodput-50", "goodput", 0.50),
    SLObjective("shed-under-10pct", "error_rate", 0.90),
)


def load_objectives(path: str | Path) -> tuple[SLObjective, ...]:
    """Parse objectives from a JSON file: a list of SLObjective field dicts."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError("objectives file must hold a JSON list")
    return tuple(
        SLObjective(
            name=str(entry["name"]),
            kind=str(entry["kind"]),
            target_ratio=float(entry["target_ratio"]),
            threshold_seconds=(
                float(entry["threshold_seconds"])
                if entry.get("threshold_seconds") is not None
                else None
            ),
        )
        for entry in payload
    )


@dataclass(frozen=True)
class SLOEvent:
    """One terminal request/query: when it landed and how it went."""

    at: float
    status: str  # served | degraded | rejected
    latency_seconds: float


@dataclass(frozen=True)
class WindowBurn:
    start: float
    end: float
    events: int
    bad: int
    burn_rate: float

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "events": self.events,
            "bad": self.bad,
            "burn_rate": self.burn_rate,
        }


@dataclass(frozen=True)
class ObjectiveResult:
    objective: SLObjective
    events: int
    good: int
    attained_ratio: float
    met: bool
    overall_burn: float
    max_window_burn: float
    windows: tuple[WindowBurn, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "target_ratio": self.objective.target_ratio,
            "threshold_seconds": self.objective.threshold_seconds,
            "events": self.events,
            "good": self.good,
            "attained_ratio": self.attained_ratio,
            "met": self.met,
            "overall_burn": self.overall_burn,
            "max_window_burn": self.max_window_burn,
            "windows": [w.to_dict() for w in self.windows],
        }


@dataclass(frozen=True)
class SLOReport:
    results: tuple[ObjectiveResult, ...]

    @property
    def all_met(self) -> bool:
        return all(r.met for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_met": self.all_met,
            "objectives": [r.to_dict() for r in self.results],
        }


def events_from_bundle(bundle: RunBundle) -> list[SLOEvent]:
    """Terminal events in completion order — serve events when present,
    query spans (outcome-mapped) otherwise."""
    completions = bundle.events("serve_complete")
    if completions:
        return [
            SLOEvent(
                at=float(e.get("start", 0.0)),
                status=str(e.get("attributes", {}).get("status", "served")),
                latency_seconds=float(
                    e.get("attributes", {}).get("latency_seconds", 0.0)
                ),
            )
            for e in completions
        ]
    events = []
    for query in bundle.settled_queries():
        if query.replayed:
            continue
        if query.bucket in ("ok", "retried"):
            status = "served"
        elif query.bucket == "abstained":
            status = "rejected"
        else:
            status = "degraded"
        events.append(
            SLOEvent(at=query.end, status=status, latency_seconds=query.duration)
        )
    return events


def _is_good(objective: SLObjective, event: SLOEvent) -> bool:
    if objective.kind == "latency":
        return event.latency_seconds <= objective.threshold_seconds
    if objective.kind == "goodput":
        return event.status == "served"
    return event.status != "rejected"


def evaluate(
    bundle: RunBundle,
    objectives: tuple[SLObjective, ...] = DEFAULT_OBJECTIVES,
    windows: int = 6,
) -> SLOReport:
    """Evaluate every objective over the bundle's event timeline."""
    if windows < 1:
        raise ValueError("windows must be >= 1")
    events = sorted(events_from_bundle(bundle), key=lambda e: e.at)
    results = []
    for objective in objectives:
        good = sum(1 for e in events if _is_good(objective, e))
        total = len(events)
        ratio = good / total if total else 1.0
        burns = _window_burns(objective, events, windows)
        results.append(
            ObjectiveResult(
                objective=objective,
                events=total,
                good=good,
                attained_ratio=ratio,
                met=ratio >= objective.target_ratio,
                overall_burn=_burn(1.0 - ratio, objective),
                max_window_burn=max((w.burn_rate for w in burns), default=0.0),
                windows=tuple(burns),
            )
        )
    return SLOReport(results=tuple(results))


def _burn(bad_ratio: float, objective: SLObjective) -> float:
    """Bad fraction over the objective's error budget (0 when nothing was bad)."""
    budget = 1.0 - objective.target_ratio
    if bad_ratio == 0.0:
        return 0.0
    return bad_ratio / budget if budget > 0 else INFINITE_BURN


def _window_burns(
    objective: SLObjective, events: list[SLOEvent], windows: int
) -> list[WindowBurn]:
    if not events:
        return []
    t0, t1 = events[0].at, events[-1].at
    span = t1 - t0
    if span <= 0.0:
        windows = 1
    width = span / windows if windows else 0.0
    out = []
    for i in range(windows):
        lo = t0 + i * width
        hi = t1 if i == windows - 1 else t0 + (i + 1) * width
        if i == windows - 1:
            bucket = [e for e in events if lo <= e.at <= hi]
        else:
            bucket = [e for e in events if lo <= e.at < hi]
        bad = sum(1 for e in bucket if not _is_good(objective, e))
        bad_ratio = bad / len(bucket) if bucket else 0.0
        out.append(
            WindowBurn(
                start=lo, end=hi, events=len(bucket), bad=bad,
                burn_rate=_burn(bad_ratio, objective),
            )
        )
    return out


# ------------------------------------------------------------------ report


def sections(report: SLOReport) -> list[Section]:
    rows = []
    for result in report.results:
        objective = result.objective
        target = (
            f"{objective.target_ratio:.0%} <= {objective.threshold_seconds:g}s"
            if objective.kind == "latency"
            else f"{objective.target_ratio:.0%}"
        )
        rows.append(
            (
                objective.name,
                objective.kind,
                target,
                f"{result.good}/{result.events}",
                fmt_ratio(result.attained_ratio),
                "MET" if result.met else "BREACHED",
                _fmt_burn(result.overall_burn),
                _fmt_burn(result.max_window_burn),
            )
        )
    burn_notes = []
    for result in report.results:
        hot = [w for w in result.windows if w.burn_rate > 1.0]
        if hot:
            windows = ", ".join(
                f"[{w.start:.1f}s..{w.end:.1f}s] burn {_fmt_burn(w.burn_rate)}"
                for w in hot
            )
            burn_notes.append(f"{result.objective.name}: {windows}")
    return [
        Section(
            title="Service-level objectives",
            headers=[
                "Objective", "Kind", "Target", "Good", "Attained",
                "Verdict", "Burn", "Max window burn",
            ],
            rows=rows,
            notes=(
                ["windows burning faster than budget (burn > 1):"] + burn_notes
                if burn_notes
                else ["no window burned faster than its error budget"]
            ),
        )
    ]


def _fmt_burn(value: float) -> str:
    return "inf" if value == INFINITE_BURN else f"{value:.2f}x"
