"""Cost attribution: where the tokens and dollars actually went.

Rolls one run's spend up along every axis the stack distinguishes —
degradation-ladder **outcome**, cascade **tier**, serving **tenant**,
engine **phase**, and per-**node** top spenders — from the trace's query
spans and the metrics snapshot, and *reconciles* the rollups against the
run's ledgers: attribution that doesn't sum back to the
:class:`~repro.core.budget.BudgetLedger` (token-for-token, cent-for-cent)
is a bug, not a rounding artifact, and is reported as such.

Two reconciliation surfaces:

* :func:`verify` — internal: span-derived totals vs the bundle's own
  metrics counters (catches truncated or hand-edited bundles);
* :func:`reconcile_with_ledger` / :func:`reconcile_with_book` — external:
  attribution totals vs live ledger objects (what the experiment suites
  and tests assert).

Token totals are *paid* tokens: replayed spans contribute zero, matching
what a fresh ledger accumulated.  Per-tenant totals come from the
``repro_serve_tokens_total`` / ``repro_serve_cost_usd_total`` counters the
serving layer's charge hook feeds, which re-accumulate on journal replay
exactly as the :class:`~repro.core.budget.LedgerBook` does — so resumed
runs reconcile too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.obs.insight.bundle import RunBundle
from repro.obs.insight.report import Section, fmt_seconds, fmt_usd

#: Engine child-span names that partition a query's time into phases.
PHASE_NAMES = (
    "select_neighbors",
    "prompt_build",
    "compress",
    "llm_call",
    "parse",
    "degrade_compressed",
    "degrade_pruned",
    "degrade_surrogate",
    "abstain",
)


@dataclass
class Rollup:
    """Accumulated spend under one attribution key."""

    queries: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    usd: float = 0.0

    @property
    def tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "tokens": self.tokens,
            "usd": self.usd,
        }


@dataclass
class AttributionReport:
    """Spend rolled up along every axis, plus grand totals."""

    by_outcome: dict[str, Rollup] = field(default_factory=dict)
    by_tier: dict[str, Rollup] = field(default_factory=dict)
    by_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    by_phase: dict[str, float] = field(default_factory=dict)
    by_node: dict[str, Rollup] = field(default_factory=dict)
    total: Rollup = field(default_factory=Rollup)
    #: Prefix-sharing counters (``repro_prefix_prompt_tokens_total`` /
    #: ``repro_shared_prompt_tokens_total``): prompt tokens the planner
    #: examined and the prompt-cache discount it realized.  Both stay 0 on
    #: runs without prefix sharing; totals above remain *gross*, exactly
    #: what the ledger's ``spent`` records.
    prefix_prompt_tokens: int = 0
    shared_prompt_tokens: int = 0
    #: Shared-LLM-cache counters (``repro_cache_hits_total`` /
    #: ``repro_cache_misses_total`` / ``repro_cache_coalesced_total``):
    #: lookups served from cache, lookups that paid an inner call, and
    #: duplicate calls avoided by single-flight coalescing (cluster runs).
    #: All stay 0 on runs without a caching wrapper.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_coalesced: int = 0

    def to_dict(self) -> dict:
        out = {
            "total": self.total.to_dict(),
            "by_outcome": {k: v.to_dict() for k, v in sorted(self.by_outcome.items())},
            "by_tier": {k: v.to_dict() for k, v in sorted(self.by_tier.items())},
            "by_tenant": {k: dict(v) for k, v in sorted(self.by_tenant.items())},
            "by_phase": dict(sorted(self.by_phase.items())),
            "by_node": {k: v.to_dict() for k, v in sorted(self.by_node.items())},
            "prefix_sharing": {
                "prompt_tokens": self.prefix_prompt_tokens,
                "shared_tokens": self.shared_prompt_tokens,
            },
        }
        # Additive only: runs without shared-cache traffic (every report
        # produced before the cluster tier existed) keep their exact shape,
        # so golden accounting fixtures stay byte-stable.
        if self.cache_hits or self.cache_misses or self.cache_coalesced:
            out["cache"] = {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "coalesced": self.cache_coalesced,
            }
        return out


def _accumulate(rollup: Rollup, prompt: int, completion: int, usd: float) -> None:
    rollup.queries += 1
    rollup.prompt_tokens += prompt
    rollup.completion_tokens += completion
    rollup.usd += usd


def attribute(bundle: RunBundle) -> AttributionReport:
    """Build the full attribution report for one bundle."""
    report = AttributionReport()
    query_ids: dict[str, float] = {}
    for query in bundle.settled_queries():
        spend = (query.prompt_tokens, query.completion_tokens, query.cost_usd)
        _accumulate(report.by_outcome.setdefault(query.bucket, Rollup()), *spend)
        _accumulate(report.total, *spend)
        _accumulate(report.by_node.setdefault(f"node {query.node}", Rollup()), *spend)
        if query.tier is not None:
            _accumulate(report.by_tier.setdefault(query.tier, Rollup()), *spend)
        query_ids[query.span_id] = query.duration

    # Phase attribution: child-span time inside query spans, plus the
    # unattributed remainder ("other": ladder walks, record assembly).
    phase_total = 0.0
    for span in bundle.spans:
        if span.get("name") in PHASE_NAMES and span.get("parent_id") in query_ids:
            duration = float(span.get("duration", 0.0))
            report.by_phase[span["name"]] = (
                report.by_phase.get(span["name"], 0.0) + duration
            )
            phase_total += duration
    query_time = sum(query_ids.values())
    if query_time > phase_total:
        report.by_phase["other"] = query_time - phase_total

    # Tenant attribution: the serve charge counters (ledger mirrors).
    tokens_by_tenant = bundle.metric_series("repro_serve_tokens_total", "tenant")
    usd_by_tenant = bundle.metric_series("repro_serve_cost_usd_total", "tenant")
    for tenant in sorted(set(tokens_by_tenant) | set(usd_by_tenant)):
        if not tenant:
            continue
        report.by_tenant[tenant] = {
            "tokens": tokens_by_tenant.get(tenant, 0.0),
            "usd": usd_by_tenant.get(tenant, 0.0),
        }

    # Prefix-sharing counters (prompt-cache discount; zero without a plan).
    if bundle.has_metrics:
        report.prefix_prompt_tokens = int(
            bundle.metric_total("repro_prefix_prompt_tokens_total")
        )
        report.shared_prompt_tokens = int(
            bundle.metric_total("repro_shared_prompt_tokens_total")
        )
        report.cache_hits = int(bundle.metric_total("repro_cache_hits_total"))
        report.cache_misses = int(bundle.metric_total("repro_cache_misses_total"))
        report.cache_coalesced = int(
            bundle.metric_total("repro_cache_coalesced_total")
        )
    return report


# ----------------------------------------------------------- reconciliation


def verify(bundle: RunBundle, report: AttributionReport) -> list[str]:
    """Internal consistency: span rollups vs the bundle's metrics counters.

    Returns one message per mismatch (empty list = bundle is coherent).
    Runs without a metrics snapshot verify trivially.
    """
    if not bundle.has_metrics:
        return []
    problems = []
    metric_prompt = bundle.metric_total("repro_prompt_tokens_total")
    metric_completion = bundle.metric_total("repro_completion_tokens_total")
    if int(metric_prompt) != report.total.prompt_tokens:
        problems.append(
            f"prompt tokens: spans sum to {report.total.prompt_tokens} but "
            f"repro_prompt_tokens_total says {int(metric_prompt)}"
        )
    if int(metric_completion) != report.total.completion_tokens:
        problems.append(
            f"completion tokens: spans sum to {report.total.completion_tokens} "
            f"but repro_completion_tokens_total says {int(metric_completion)}"
        )
    if report.by_tier:
        metric_usd = bundle.metric_total("repro_router_cost_usd_total")
        span_usd = sum(r.usd for r in report.by_tier.values())
        if not math.isclose(metric_usd, span_usd, rel_tol=0, abs_tol=1e-9):
            problems.append(
                f"cascade dollars: spans sum to {span_usd!r} but "
                f"repro_router_cost_usd_total says {metric_usd!r}"
            )
    return problems


def reconcile_with_ledger(report: AttributionReport, ledger) -> list[str]:
    """Attribution totals vs a live :class:`BudgetLedger` — exact or broken.

    Token comparison is integer-exact; dollar comparison is bit-exact up to
    summation order (1e-9 absolute), because both sides add the identical
    per-record floats.
    """
    problems = []
    if report.total.tokens != ledger.spent:
        problems.append(
            f"tokens: attribution totals {report.total.tokens} but the "
            f"ledger spent {ledger.spent}"
        )
    if not math.isclose(report.total.usd, ledger.spent_usd, rel_tol=0, abs_tol=1e-9):
        problems.append(
            f"dollars: attribution totals {report.total.usd!r} but the "
            f"ledger spent {ledger.spent_usd!r}"
        )
    shared = int(getattr(ledger, "shared_tokens", 0))
    if report.shared_prompt_tokens != shared:
        problems.append(
            f"shared tokens: attribution totals {report.shared_prompt_tokens} "
            f"but the ledger credited {shared}"
        )
    return problems


def reconcile_with_book(report: AttributionReport, book) -> list[str]:
    """Per-tenant attribution vs a live :class:`LedgerBook` — exact or broken."""
    problems = []
    for tenant, ledger in sorted(book.tenants.items()):
        spend = report.by_tenant.get(tenant, {"tokens": 0.0, "usd": 0.0})
        if int(spend["tokens"]) != ledger.spent:
            problems.append(
                f"{tenant}: attribution totals {int(spend['tokens'])} tokens "
                f"but the ledger spent {ledger.spent}"
            )
        if not math.isclose(spend["usd"], ledger.spent_usd, rel_tol=0, abs_tol=1e-9):
            problems.append(
                f"{tenant}: attribution totals {spend['usd']!r} USD but the "
                f"ledger spent {ledger.spent_usd!r}"
            )
    return problems


# ------------------------------------------------------------------ report


def sections(report: AttributionReport, top_nodes: int = 10) -> list[Section]:
    out = [
        Section(
            title="Spend by outcome tier",
            headers=["Outcome", "Queries", "Prompt tok", "Completion tok", "USD"],
            rows=[
                (k, v.queries, f"{v.prompt_tokens:,}", f"{v.completion_tokens:,}",
                 fmt_usd(v.usd))
                for k, v in sorted(report.by_outcome.items())
            ],
            notes=[
                f"total: {report.total.queries} queries, "
                f"{report.total.tokens:,} paid tokens, {fmt_usd(report.total.usd)}"
            ],
        )
    ]
    if report.prefix_prompt_tokens:
        shared = report.shared_prompt_tokens
        examined = report.prefix_prompt_tokens
        out.append(
            Section(
                title="Prefix sharing (prompt-cache discount)",
                headers=["Prompt tok examined", "Shared tok", "Savings"],
                rows=[
                    (
                        f"{examined:,}",
                        f"{shared:,}",
                        f"{shared / examined:.1%}" if examined else "-",
                    )
                ],
                notes=[
                    "gross spend above is unchanged; shared tokens are "
                    "credited against budgets at the cached input rate"
                ],
            )
        )
    if report.cache_hits or report.cache_misses:
        lookups = report.cache_hits + report.cache_misses
        out.append(
            Section(
                title="Shared LLM cache",
                headers=["Lookups", "Hits", "Misses", "Coalesced", "Hit rate"],
                rows=[
                    (
                        f"{lookups:,}",
                        f"{report.cache_hits:,}",
                        f"{report.cache_misses:,}",
                        f"{report.cache_coalesced:,}",
                        f"{report.cache_hits / lookups:.1%}" if lookups else "-",
                    )
                ],
                notes=[
                    "misses are the only lookups that paid an inner call; "
                    "coalesced lookups waited on another worker's in-flight "
                    "miss instead of duplicating it"
                ],
            )
        )
    if report.by_tier:
        out.append(
            Section(
                title="Spend by cascade tier (all tier attempts billed)",
                headers=["Tier", "Queries", "Tokens", "USD"],
                rows=[
                    (k, v.queries, f"{v.tokens:,}", fmt_usd(v.usd))
                    for k, v in sorted(report.by_tier.items())
                ],
            )
        )
    if report.by_tenant:
        out.append(
            Section(
                title="Spend by tenant (ledger mirror)",
                headers=["Tenant", "Tokens", "USD"],
                rows=[
                    (k, f"{int(v['tokens']):,}", fmt_usd(v["usd"]))
                    for k, v in sorted(report.by_tenant.items())
                ],
            )
        )
    if report.by_phase:
        total_time = sum(report.by_phase.values())
        out.append(
            Section(
                title="Time by engine phase",
                headers=["Phase", "Seconds", "Share"],
                rows=[
                    (k, fmt_seconds(v), f"{v / total_time:.1%}" if total_time else "-")
                    for k, v in sorted(
                        report.by_phase.items(), key=lambda kv: (-kv[1], kv[0])
                    )
                ],
            )
        )
    if report.by_node:
        spenders = sorted(
            report.by_node.items(), key=lambda kv: (-kv[1].tokens, kv[0])
        )[:top_nodes]
        out.append(
            Section(
                title=f"Top {len(spenders)} node spenders",
                headers=["Node", "Queries", "Tokens", "USD"],
                rows=[
                    (k, v.queries, f"{v.tokens:,}", fmt_usd(v.usd))
                    for k, v in spenders
                ],
            )
        )
    return out
