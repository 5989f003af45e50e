"""The run-observer protocol: how the execution stack reports what it does.

The engine, strategies, reliability wrappers, cache and checkpointer all
accept an optional ``observer``.  When it is ``None`` (the default) they do
*nothing extra* — not a single added call — which is what makes the
"observability off means byte-identical behaviour" guarantee cheap to keep.
When set, they invoke the hooks below at well-defined lifecycle points.

The protocol is structural: any object with these methods works, and
instrumented components never import this module at runtime (type hints
only), so `repro.obs` stays an optional layer rather than a hard
dependency of the execution stack.  :class:`RunObserver` is the no-op base
to subclass; :class:`repro.obs.instrument.Instrumentation` is the standard
implementation that feeds a metrics registry and a span tracer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.results import QueryRecord


class RunObserver:
    """No-op implementation of every hook; subclass and override freely."""

    # ------------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Timed scope around one phase of work; yields a span or ``None``.

        The base implementation yields ``None`` so callers written against
        an arbitrary observer can still do ``with obs.span(...) as s`` and
        guard ``if s is not None`` before annotating it.
        """
        yield None

    # ---------------------------------------------------------------- queries

    def on_run_start(self, num_queries: int) -> None:
        """A plain / guarded / boosted execution is about to start."""

    def on_query_end(self, record: "QueryRecord", replayed: bool = False) -> None:
        """One query produced its record.

        ``replayed=True`` means the record came from a checkpoint instead of
        a fresh LLM call — zero paid tokens this run.
        """

    # --------------------------------------------------------------- boosting

    def on_round_end(self, round_index: int, executed: int, deferred: int) -> None:
        """A boosting round finished (``executed`` includes replayed records)."""

    def on_deferral(self, node: int, attempt: int) -> None:
        """A failed boosting candidate was re-enqueued into a later round."""

    def on_pruning_plan(self, num_pruned: int, num_total: int, tau: float) -> None:
        """A token-pruning plan was drawn (Algorithm 1 / joint strategy)."""

    # ---------------------------------------------------------------- routing

    def on_router_escalation(
        self, node: int, from_tier: str, to_tier: str, reason: str
    ) -> None:
        """The cascade router moved a query one tier up.

        ``reason`` is the escalation rule that fired (``"abstain"`` or
        ``"low_confidence"``).  Fires once per hop, in execution order.
        """

    def on_router_resolved(self, tier: str, escalations: int, cost_usd: float) -> None:
        """A routed query settled at ``tier`` after ``escalations`` hops.

        ``cost_usd`` is the summed dollar spend across every tier attempt
        (discarded cheap answers included).
        """

    # ---------------------------------------------------------------- serving

    def on_serve_admission(self, tenant: str, decision: str, queue_depth: int) -> None:
        """The serving layer ruled on one arrival.

        ``decision`` is one of :data:`~repro.runtime.serve.ADMISSION_DECISIONS`;
        ``queue_depth`` is the total queued requests across tenants after the
        ruling.  Fires in arrival order, identically with or without a
        batched scheduler, so serve traces stay replay-exact.
        """

    def on_serve_cycle(self, cycle_index: int, queue_depth: int, dispatched: int) -> None:
        """A dispatch cycle drained ``dispatched`` requests from the queues."""

    def on_serve_complete(
        self, tenant: str, status: str, tier: str, latency_seconds: float
    ) -> None:
        """One request reached a terminal :class:`~repro.runtime.serve.ServeOutcome`.

        ``status`` is served/degraded/rejected; ``tier`` the explicit outcome
        rung (a record outcome tier or a ``rejected_*`` decision);
        ``latency_seconds`` the arrival-to-completion simulated time.
        """

    def on_serve_charge(self, tenant: str, tokens: int, usd: float) -> None:
        """One record's spend was charged to ``tenant``'s ledger.

        Fires from :meth:`~repro.runtime.serve.ServingLayer._charge` on both
        live execution and journal replay — the ledgers re-accumulate either
        way, so observer-side per-tenant spend totals reconcile with the
        :class:`~repro.core.budget.LedgerBook` exactly, resumed runs
        included.
        """

    # ------------------------------------------------------------- scheduling

    def on_wave_start(self, wave_index: int, num_queries: int, num_batches: int) -> None:
        """A batched scheduler wave is about to dispatch.

        Wave hooks are **metrics-only** by contract: implementations must not
        emit trace spans or events here, because simulated-mode dispatch
        promises traces bit-identical to serial runs (which see no waves).
        """

    def on_wave_end(
        self,
        wave_index: int,
        num_queries: int,
        num_batches: int,
        serial_seconds: float,
        overlapped_seconds: float,
    ) -> None:
        """A wave finished; latency is reported both summed and overlapped."""

    def on_prefix_plan(
        self,
        wave_index: int,
        prompt_tokens: int,
        shared_tokens: int,
        num_batches: int,
    ) -> None:
        """A wave's prefix-sharing plan was drawn and realized.

        ``prompt_tokens`` is the total prompt tokens the planner examined;
        ``shared_tokens`` how many of them executed queries shared with a
        batch-mate's prefix (the prompt-cache discount credited to the
        ledger).  Metrics-only, like the other wave hooks.
        """

    # ------------------------------------------------------------- reliability

    def on_retry(self, attempt: int, wait_seconds: float) -> None:
        """A retry is about to wait ``wait_seconds`` after failed ``attempt``."""

    def on_deadline_give_up(self, attempts: int) -> None:
        """A per-query retry deadline expired before the attempts ran out."""

    def on_injected_failure(self, wasted_prompt_tokens: int) -> None:
        """A FlakyLLM injected a transient failure (test/experiment stacks)."""

    def on_breaker_transition(self, old: str, new: str, at: float) -> None:
        """The circuit breaker moved between closed/open/half_open states."""

    def on_breaker_rejection(self) -> None:
        """An open circuit rejected a call before it reached the backend."""

    # ------------------------------------------------------------------ cache

    def on_cache_hit(self) -> None: ...

    def on_cache_miss(self) -> None: ...

    def on_cache_eviction(self) -> None: ...

    def on_cache_coalesced(self) -> None:
        """A lookup waited on another caller's in-flight miss and was served
        its result — a duplicate inner call avoided by single-flight (fires
        in addition to :meth:`on_cache_hit` for the same lookup)."""

    # ------------------------------------------------------------- checkpoints

    def on_checkpoint_loaded(self, num_records: int, completed: bool) -> None:
        """An existing checkpoint was loaded for resume."""

    def on_checkpoint_flush(self, num_records: int) -> None:
        """A checkpoint flush persisted ``num_records`` records."""

    def on_checkpoint_recovered(self, num_records: int, reason: str) -> None:
        """A checkpoint load dropped a torn tail or fell back to ``.bak``."""

    # ------------------------------------------------------------------ chaos

    def on_chaos_fault(self, kind: str, target: str, detail: str) -> None:
        """The chaos subsystem injected one fault (``kind``) at ``target``."""
