"""Offline performance observatory over ``repro.obs`` telemetry.

Pure post-hoc analysis of the artifacts instrumented runs already emit —
JSONL span traces with trailing metrics snapshots, bench artifacts,
ledgers.  Four analyzers, surfaced as ``repro analyze`` subcommands:

* :mod:`~repro.obs.insight.critical_path` — per-wave makespan
  decomposition (compute vs barrier-stall idle), blocking-query naming,
  and the what-if-barrier-removed speedup bound;
* :mod:`~repro.obs.insight.attribution` — token/dollar rollups by
  outcome, cascade tier, tenant, engine phase and node, reconciled
  exactly against the budget ledgers;
* :mod:`~repro.obs.insight.slo` — declarative latency/goodput/error-rate
  objectives with burn rates over the simulated clock;
* :mod:`~repro.obs.insight.diff` — direction-aware cross-run regression
  diffing with the verdict the benchmark gate consumes.

All four, and the ``repro trace`` summary (:mod:`repro.obs.summary`),
read a trace through :class:`~repro.obs.insight.bundle.RunBundle`; its
:meth:`~repro.obs.insight.bundle.RunBundle.settled_queries` is the one
definition of a settled query and what it paid.

Reports are deterministic: bit-identical runs render byte-identical
reports (no run ids, no wall-clock timestamps, fixed precision).
"""

from repro.obs.insight.attribution import (
    AttributionReport,
    attribute,
    reconcile_with_book,
    reconcile_with_ledger,
    verify,
)
from repro.obs.insight.bundle import RunBundle
from repro.obs.insight.critical_path import (
    CriticalPathReport,
    analyze_bench,
    analyze_trace,
    pack_wave,
    waves_from_trace,
)
from repro.obs.insight.diff import (
    DIRECTIONS,
    Delta,
    DiffReport,
    diff_bundles,
    diff_summaries,
    summarize_bundle,
)
from repro.obs.insight.report import FORMATS, Section, render_json, render_sections
from repro.obs.insight.slo import (
    DEFAULT_OBJECTIVES,
    SLObjective,
    SLOReport,
    evaluate,
    load_objectives,
)

__all__ = [
    "AttributionReport",
    "CriticalPathReport",
    "DEFAULT_OBJECTIVES",
    "DIRECTIONS",
    "Delta",
    "DiffReport",
    "FORMATS",
    "RunBundle",
    "SLObjective",
    "SLOReport",
    "Section",
    "analyze_bench",
    "analyze_trace",
    "attribute",
    "diff_bundles",
    "diff_summaries",
    "evaluate",
    "load_objectives",
    "pack_wave",
    "reconcile_with_book",
    "reconcile_with_ledger",
    "render_json",
    "render_sections",
    "summarize_bundle",
    "verify",
    "waves_from_trace",
]
