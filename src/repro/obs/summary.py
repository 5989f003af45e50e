"""Human-readable per-run summaries rendered from a trace.

One function, one input: :func:`render_trace_summary` takes the parsed
JSONL lines of a trace (header + spans + optional metrics snapshot) and
renders the run as the operator-facing story — where the tokens and money
went by outcome tier and boosting round, what the circuit breaker did and
when, how the response cache performed, and how much of the run was
replayed from a checkpoint.  ``repro trace FILE`` and ``repro classify
--trace`` both end here, so the file on disk and the console agree.

Every figure is read through :class:`~repro.obs.insight.bundle.RunBundle`:
settled queries and their paid tokens come from the same accessor the
``repro analyze`` reports use, so the summary and the analyzers cannot
disagree on what a query paid.  The cost column is the model-priced
``repro_cost_usd_total`` counter, not the span ``cost_usd`` that
attribution sums.
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.obs.insight.attribution import attribute
from repro.obs.insight.bundle import RunBundle


def outcome_breakdown(bundle: RunBundle) -> list[tuple[str, int, int, int, float | None]]:
    """(outcome, queries, prompt_tokens, completion_tokens, cost) rows.

    Token counts are *paid* tokens: replayed spans contribute zero.  Cost
    comes from the metrics snapshot when present (``None`` per row
    otherwise, e.g. for unpriced simulated models).
    """
    cost_by_outcome = bundle.metric_series("repro_cost_usd_total", "outcome")
    return [
        (outcome, r.queries, r.prompt_tokens, r.completion_tokens,
         cost_by_outcome.get(outcome))
        for outcome, r in sorted(attribute(bundle).by_outcome.items())
    ]


def round_breakdown(bundle: RunBundle) -> list[tuple[int, int, int, int]]:
    """(round, queries, paid_tokens, replayed) rows; empty for unboosted runs."""
    rows: dict[int, list[int]] = {}
    for query in bundle.settled_queries():
        if query.round_index is None:
            continue
        row = rows.setdefault(query.round_index, [0, 0, 0])
        row[0] += 1
        row[1] += query.prompt_tokens + query.completion_tokens
        row[2] += int(query.replayed)
    return [(r, n, tokens, replayed) for r, (n, tokens, replayed) in sorted(rows.items())]


def breaker_timeline(bundle: RunBundle) -> list[str]:
    """Chronological ``t=...s old→new`` strings for breaker transitions."""
    out = []
    for event in bundle.events("breaker_transition"):
        attrs = event.get("attributes", {})
        out.append(f"t={float(attrs.get('at', event.get('start', 0.0))):.1f}s "
                   f"{attrs.get('old')}→{attrs.get('new')}")
    return out


def cache_efficiency(bundle: RunBundle) -> dict[str, float] | None:
    """hits/misses/evictions/hit_rate from the metrics snapshot, or None."""
    hits = bundle.metric_total("repro_cache_hits_total")
    misses = bundle.metric_total("repro_cache_misses_total")
    if hits + misses == 0:
        return None
    evictions = bundle.metric_total("repro_cache_evictions_total")
    return {
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "hit_rate": hits / (hits + misses),
    }


def render_trace_summary(lines: list[dict]) -> str:
    """Render the full per-run summary for one parsed trace."""
    bundle = RunBundle.from_lines(lines)
    parts = [bundle.title(f"run {bundle.run_id}")]

    tiers = outcome_breakdown(bundle)
    if tiers:
        total_queries = sum(n for _, n, _, _, _ in tiers)
        total_tokens = sum(p + c for _, _, p, c, _ in tiers)
        rows = [
            (outcome, n, f"{p:,}", f"{c:,}", "-" if cost is None else f"${cost:.4f}")
            for outcome, n, p, c, cost in tiers
        ]
        parts.append(
            render_table(
                ["Outcome", "Queries", "Prompt tok", "Completion tok", "Cost"],
                rows,
                title=f"Token/cost breakdown by outcome tier "
                f"({total_queries} queries, {total_tokens:,} paid tokens)",
            )
        )
    else:
        parts.append("no query spans in trace")

    rounds = round_breakdown(bundle)
    if rounds:
        parts.append(
            render_table(
                ["Round", "Queries", "Paid tokens", "Replayed"],
                [(r, n, f"{tokens:,}", replayed) for r, n, tokens, replayed in rounds],
                title="Boosting rounds",
            )
        )

    timeline = breaker_timeline(bundle)
    if timeline:
        parts.append("breaker timeline : " + "; ".join(timeline))

    retries = bundle.events("retry")
    if retries:
        waited = sum(float(e.get("attributes", {}).get("wait_seconds", 0.0)) for e in retries)
        parts.append(f"retries          : {len(retries)} ({waited:.1f}s simulated backoff)")

    deferrals = len(bundle.events("deferral"))
    if deferrals:
        parts.append(f"deferrals        : {deferrals}")

    cache = cache_efficiency(bundle)
    if cache is not None:
        parts.append(
            f"cache            : {cache['hits']:.0f} hits / {cache['misses']:.0f} misses "
            f"({cache['hit_rate']:.1%} hit rate, {cache['evictions']:.0f} evictions)"
        )

    replays = bundle.events("checkpoint_loaded")
    if replays:
        n = sum(int(e.get("attributes", {}).get("num_records", 0)) for e in replays)
        parts.append(f"checkpoint       : resumed with {n} replayed records")
    return "\n".join(parts)
