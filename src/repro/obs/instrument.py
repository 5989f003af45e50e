"""Standard instrumentation: one observer feeding a registry and a tracer.

:class:`Instrumentation` is the canonical :class:`~repro.obs.hooks.RunObserver`:
every hook updates the shared :class:`~repro.obs.metrics.MetricsRegistry`
under the run's base labels (``dataset``, ``method``, ``strategy``,
``model``), and the interesting ones also land in the
:class:`~repro.obs.tracing.SpanTracer` (retries, breaker transitions and
deferrals as point events; queries as full spans opened by the engine).

The metric catalogue lives here — `docs/observability.md` documents each
name — so every surface (CLI summary, resilience experiment, Prometheus
scrape) reads the same series instead of re-aggregating wrapper counters
by hand.
"""

from __future__ import annotations

from repro.llm.pricing import PRICES_PER_1K_TOKENS, cost_usd
from repro.obs.hooks import RunObserver
from repro.obs.metrics import LATENCY_BUCKETS, TOKEN_BUCKETS, MetricsRegistry
from repro.obs.tracing import SpanTracer

#: Boosting-round-size histogram bounds (queries per round).
ROUND_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class Instrumentation(RunObserver):
    """Registry + tracer bound to one run.

    Parameters
    ----------
    run_id:
        Stamped on the trace; the one thing allowed to vary between
        same-seed runs.
    clock:
        The run's ``SimulatedClock`` (anything with ``.now``); share the
        clock the retry/breaker stack advances so trace timestamps line up
        with breaker timelines.  ``None`` pins timestamps to 0.0.
    labels:
        Base labels merged into every emitted series.
    registry:
        Optional shared registry (e.g. one registry across a sweep's cells,
        disambiguated by labels); defaults to a fresh one.
    """

    def __init__(
        self,
        run_id: str = "run",
        clock: object | None = None,
        labels: dict[str, str] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.labels = {k: str(v) for k, v in (labels or {}).items()}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = SpanTracer(run_id=run_id, clock=clock, labels=self.labels)
        self.clock = clock

    # ------------------------------------------------------------------ spans

    def span(self, name: str, **attributes: object):
        return self.tracer.span(name, **attributes)

    # ---------------------------------------------------------------- queries

    def on_run_start(self, num_queries: int) -> None:
        self.registry.counter(
            "repro_runs_total", "Executions started", **self.labels
        ).inc()
        self.registry.gauge(
            "repro_run_queries", "Query-set size of the latest run", **self.labels
        ).set(num_queries)

    def on_query_end(self, record, replayed: bool = False) -> None:
        outcome = "replayed" if replayed else record.outcome
        labels = {**self.labels, "outcome": outcome}
        self.registry.counter(
            "repro_queries_total", "Queries recorded, by outcome tier", **labels
        ).inc()
        if replayed:
            # A replay pays nothing this run; its tokens were spent pre-crash.
            return
        self.registry.counter(
            "repro_prompt_tokens_total", "Prompt tokens paid", **labels
        ).inc(record.prompt_tokens)
        self.registry.counter(
            "repro_completion_tokens_total", "Completion tokens paid", **labels
        ).inc(record.completion_tokens)
        self.registry.histogram(
            "repro_query_tokens",
            "Total tokens per executed query",
            buckets=TOKEN_BUCKETS,
            **labels,
        ).observe(record.total_tokens)
        model = self.labels.get("model", "").lower()
        if model in PRICES_PER_1K_TOKENS:
            self.registry.counter(
                "repro_cost_usd_total", "Dollar cost under the run's model pricing",
                **labels,
            ).inc(cost_usd(model, record.prompt_tokens, record.completion_tokens))
        if record.latency_seconds is not None:
            self.registry.histogram(
                "repro_query_latency_seconds",
                "Simulated seconds per query (retry waits + think time)",
                buckets=LATENCY_BUCKETS,
                **labels,
            ).observe(record.latency_seconds)

    # --------------------------------------------------------------- boosting

    def on_round_end(self, round_index: int, executed: int, deferred: int) -> None:
        self.registry.counter(
            "repro_boosting_rounds_total", "Boosting rounds executed", **self.labels
        ).inc()
        self.registry.histogram(
            "repro_boosting_round_size",
            "Records produced per boosting round",
            buckets=ROUND_BUCKETS,
            **self.labels,
        ).observe(executed)

    def on_deferral(self, node: int, attempt: int) -> None:
        self.registry.counter(
            "repro_deferrals_total", "Boosting candidates re-enqueued after failure",
            **self.labels,
        ).inc()
        self.tracer.event("deferral", node=node, attempt=attempt)

    def on_pruning_plan(self, num_pruned: int, num_total: int, tau: float) -> None:
        for decision, count in (("true", num_pruned), ("false", num_total - num_pruned)):
            self.registry.counter(
                "repro_pruning_decisions_total",
                "Per-query pruning decisions from the plan",
                **{**self.labels, "pruned": decision},
            ).inc(count)
        self.tracer.event(
            "pruning_plan", num_pruned=num_pruned, num_total=num_total, tau=tau
        )

    # ---------------------------------------------------------------- routing

    def on_router_escalation(
        self, node: int, from_tier: str, to_tier: str, reason: str
    ) -> None:
        self.registry.counter(
            "repro_router_escalations_total",
            "Cascade escalations, by hop and trigger",
            **{**self.labels, "from": from_tier, "to": to_tier, "reason": reason},
        ).inc()
        self.tracer.event(
            "escalation", node=node, from_tier=from_tier, to_tier=to_tier, reason=reason
        )

    def on_router_resolved(self, tier: str, escalations: int, cost_usd: float) -> None:
        labels = {**self.labels, "tier": tier}
        self.registry.counter(
            "repro_router_queries_total", "Routed queries, by answering tier", **labels
        ).inc()
        self.registry.counter(
            "repro_router_cost_usd_total",
            "Cascade dollar spend attributed to the answering tier",
            **labels,
        ).inc(cost_usd)

    # ---------------------------------------------------------------- serving

    def on_serve_admission(self, tenant: str, decision: str, queue_depth: int) -> None:
        self.registry.counter(
            "repro_serve_admissions_total",
            "Serving-layer admission rulings, by tenant and decision",
            **{**self.labels, "tenant": tenant, "decision": decision},
        ).inc()
        self.registry.gauge(
            "repro_serve_queue_depth",
            "Total queued requests across tenants after the latest ruling",
            **self.labels,
        ).set(queue_depth)
        self.tracer.event(
            "admission", tenant=tenant, decision=decision, queue_depth=queue_depth
        )

    def on_serve_cycle(self, cycle_index: int, queue_depth: int, dispatched: int) -> None:
        self.registry.counter(
            "repro_serve_cycles_total", "Serving-layer dispatch cycles", **self.labels
        ).inc()
        self.registry.histogram(
            "repro_serve_cycle_requests",
            "Requests drained per dispatch cycle",
            buckets=ROUND_BUCKETS,
            **self.labels,
        ).observe(dispatched)
        self.registry.gauge(
            "repro_serve_queue_depth",
            "Total queued requests across tenants after the latest ruling",
            **self.labels,
        ).set(queue_depth)
        self.tracer.event(
            "serve_cycle", cycle=cycle_index, queue_depth=queue_depth,
            dispatched=dispatched,
        )

    def on_serve_complete(
        self, tenant: str, status: str, tier: str, latency_seconds: float
    ) -> None:
        self.registry.counter(
            "repro_serve_requests_total",
            "Completed serve requests, by tenant, status and outcome tier",
            **{**self.labels, "tenant": tenant, "status": status, "tier": tier},
        ).inc()
        self.registry.histogram(
            "repro_serve_latency_seconds",
            "Arrival-to-completion simulated seconds per request",
            buckets=LATENCY_BUCKETS,
            **{**self.labels, "tenant": tenant},
        ).observe(latency_seconds)
        # The serving layer fires this hook identically in live and journal-
        # replay cycles (after the cycle's clock advance), so the event is
        # replay-exact and gives SLO analysis a timestamped completion record.
        self.tracer.event(
            "serve_complete", tenant=tenant, status=status, tier=tier,
            latency_seconds=latency_seconds,
        )

    def on_serve_charge(self, tenant: str, tokens: int, usd: float) -> None:
        self.registry.counter(
            "repro_serve_tokens_total",
            "Tokens charged to tenant ledgers by the serving layer",
            **{**self.labels, "tenant": tenant},
        ).inc(tokens)
        self.registry.counter(
            "repro_serve_cost_usd_total",
            "Dollars charged to tenant ledgers by the serving layer",
            **{**self.labels, "tenant": tenant},
        ).inc(usd)

    # ------------------------------------------------------------- scheduling

    def on_wave_start(self, wave_index: int, num_queries: int, num_batches: int) -> None:
        self.registry.counter(
            "repro_scheduler_waves_total", "Scheduler waves dispatched", **self.labels
        ).inc()
        self.registry.counter(
            "repro_scheduler_batches_total", "Scheduler batches dispatched",
            **self.labels,
        ).inc(num_batches)

    def on_wave_end(
        self,
        wave_index: int,
        num_queries: int,
        num_batches: int,
        serial_seconds: float,
        overlapped_seconds: float,
    ) -> None:
        # Metrics only — no tracer event: simulated dispatch promises traces
        # bit-identical to serial runs, and the scheduler strips only the
        # repro_scheduler_* families when comparing metrics snapshots.
        self.registry.histogram(
            "repro_scheduler_wave_queries",
            "Queries per dispatched wave",
            buckets=ROUND_BUCKETS,
            **self.labels,
        ).observe(num_queries)
        self.registry.counter(
            "repro_scheduler_serial_seconds_total",
            "Summed per-query latency across waves",
            **self.labels,
        ).inc(serial_seconds)
        self.registry.counter(
            "repro_scheduler_overlapped_seconds_total",
            "Overlapped (virtual or wall-clock) wave makespan",
            **self.labels,
        ).inc(overlapped_seconds)

    def on_prefix_plan(
        self,
        wave_index: int,
        prompt_tokens: int,
        shared_tokens: int,
        num_batches: int,
    ) -> None:
        # Metrics only, like the other wave hooks: prefix planning promises
        # bit-identical traces, so the plan never emits spans or events.
        self.registry.counter(
            "repro_prefix_prompt_tokens_total",
            "Prompt tokens examined by the prefix-sharing planner",
            **self.labels,
        ).inc(prompt_tokens)
        self.registry.counter(
            "repro_shared_prompt_tokens_total",
            "Prompt tokens served from a batch-mate's shared prefix",
            **self.labels,
        ).inc(shared_tokens)

    # ------------------------------------------------------------- reliability

    def on_retry(self, attempt: int, wait_seconds: float) -> None:
        self.registry.counter(
            "repro_retries_total", "LLM retry attempts", **self.labels
        ).inc()
        self.registry.counter(
            "repro_retry_wait_seconds_total", "Simulated seconds spent in backoff",
            **self.labels,
        ).inc(wait_seconds)
        self.tracer.event("retry", attempt=attempt, wait_seconds=wait_seconds)

    def on_deadline_give_up(self, attempts: int) -> None:
        self.registry.counter(
            "repro_deadline_give_ups_total", "Queries abandoned at the retry deadline",
            **self.labels,
        ).inc()
        self.tracer.event("deadline_give_up", attempts=attempts)

    def on_injected_failure(self, wasted_prompt_tokens: int) -> None:
        self.registry.counter(
            "repro_injected_failures_total", "Transient failures injected by FlakyLLM",
            **self.labels,
        ).inc()
        self.registry.counter(
            "repro_wasted_prompt_tokens_total",
            "Prompt tokens paid on calls that failed server-side",
            **self.labels,
        ).inc(wasted_prompt_tokens)

    def on_breaker_transition(self, old: str, new: str, at: float) -> None:
        self.registry.counter(
            "repro_breaker_transitions_total", "Circuit state transitions",
            **{**self.labels, "from": old, "to": new},
        ).inc()
        self.registry.gauge(
            "repro_breaker_state",
            "Current circuit state (0 closed, 1 half_open, 2 open)",
            **self.labels,
        ).set({"closed": 0, "half_open": 1, "open": 2}[new])
        self.tracer.event("breaker_transition", old=old, new=new, at=at)

    def on_breaker_rejection(self) -> None:
        self.registry.counter(
            "repro_breaker_rejections_total", "Calls rejected by an open circuit",
            **self.labels,
        ).inc()
        self.tracer.event("breaker_rejection")

    # ------------------------------------------------------------------ cache

    def on_cache_hit(self) -> None:
        self.registry.counter(
            "repro_cache_hits_total", "Response-cache hits", **self.labels
        ).inc()

    def on_cache_miss(self) -> None:
        self.registry.counter(
            "repro_cache_misses_total", "Response-cache misses", **self.labels
        ).inc()

    def on_cache_eviction(self) -> None:
        self.registry.counter(
            "repro_cache_evictions_total", "Response-cache LRU evictions", **self.labels
        ).inc()

    def on_cache_coalesced(self) -> None:
        self.registry.counter(
            "repro_cache_coalesced_total",
            "Duplicate inner calls avoided by single-flight coalescing",
            **self.labels,
        ).inc()

    # ------------------------------------------------------------- checkpoints

    def on_checkpoint_loaded(self, num_records: int, completed: bool) -> None:
        self.registry.counter(
            "repro_checkpoint_resumed_records_total",
            "Records loaded from a checkpoint for replay",
            **self.labels,
        ).inc(num_records)
        self.tracer.event(
            "checkpoint_loaded", num_records=num_records, completed=completed
        )

    def on_checkpoint_flush(self, num_records: int) -> None:
        self.registry.counter(
            "repro_checkpoint_flushes_total", "Checkpoint flushes", **self.labels
        ).inc()

    def on_checkpoint_recovered(self, num_records: int, reason: str) -> None:
        self.registry.counter(
            "repro_checkpoint_recoveries_total",
            "Checkpoint loads that dropped a torn tail or fell back to .bak",
            **self.labels,
        ).inc()
        self.tracer.event(
            "checkpoint_recovered", num_records=num_records, reason=reason
        )

    # ------------------------------------------------------------------ chaos

    def on_chaos_fault(self, kind: str, target: str, detail: str) -> None:
        self.registry.counter(
            "repro_chaos_faults_total",
            "Faults injected by the chaos subsystem",
            kind=kind,
            target=target,
            **self.labels,
        ).inc()
        self.tracer.event("chaos_fault", fault=kind, target=target, detail=detail)

    # ------------------------------------------------------------ serialization

    def trace_lines(self) -> list[dict]:
        """Trace lines plus a trailing metrics-snapshot line."""
        return self.tracer.to_dicts() + [self.metrics_line()]

    def metrics_line(self) -> dict:
        return {"kind": "metrics", "run_id": self.tracer.run_id, **self.registry.snapshot()}

    def write_trace(self, path) -> object:
        """Write trace JSONL (spans + metrics snapshot) at ``path``."""
        return self.tracer.write_jsonl(path, extra_lines=[self.metrics_line()])


def instrument_stack(llm, observer: RunObserver) -> None:
    """Attach ``observer`` to every layer of an LLM wrapper chain.

    Walks the ``.inner`` links (cache → breaker → retrier → flaky → model),
    setting ``observer`` on every wrapper that declares the attribute, and
    reaching through a ``CircuitBreakerLLM`` to its breaker state machine.
    Layers without observer support (e.g. the base simulated model) are
    skipped silently.
    """
    current = llm
    while current is not None:
        if hasattr(current, "observer"):
            current.observer = observer
        breaker = getattr(current, "breaker", None)
        if breaker is not None and hasattr(breaker, "observer"):
            breaker.observer = observer
        current = getattr(current, "inner", None)
