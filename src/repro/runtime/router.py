"""Confidence-routed multi-model cascade (cost-aware tier escalation).

The paper runs every query against one fixed model, yet its own
text-inadequacy measure ``D(t_i)`` (Sec. V-A) is precisely the signal that
says *which model a query deserves*: a node whose text the surrogate reads
unambiguously will be answered correctly by a cheap model, while an
ambiguous node justifies the strong model's price.  This module turns that
observation into a deterministic routing layer:

* A :class:`CascadeRouter` owns an **ordered tier list** of
  :class:`~repro.llm.interface.LLMClient`\\ s, cheapest first, each priced
  via :mod:`repro.llm.pricing` (unpriced simulated models cost $0).
* Each query **enters** at the cheap tier — unless its precomputed
  ``D(t_i)`` exceeds the policy's inadequacy threshold, in which case it
  routes straight to the strongest tier (paying one strong call instead of
  a wasted cheap call plus a strong call).
* After a tier answers, the **escalation rule** inspects the parsed
  response: an abstention (no recognizable class) or a self-reported
  confidence below the policy threshold escalates the query one tier up;
  otherwise the answer stands.
* Every tier attempt's tokens and dollars are aggregated into one
  :class:`RoutedResponse`, which the engine charges against its unified
  :class:`~repro.core.budget.BudgetLedger` — in tokens *and* dollars —
  exactly once per query, in canonical order.

Routing is a **pure function** of ``(node, prompt)`` given fixed tier
clients and policy: no wall clock, no shared mutable decision state.  That
is what makes cascaded runs bit-identical under the batched scheduler's
simulated dispatch, mergeable under thread dispatch, and exactly replayable
from checkpoints (a resumed run never re-routes a cached query, and fresh
queries route identically because their prompts and responses do).
See ``docs/routing.md`` for the full contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.pricing import PRICES_PER_1K_TOKENS, cost_usd
from repro.llm.responses import parse_category_response

if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

    from repro.obs.hooks import RunObserver

#: What `--escalate-on` accepts: which signals may move a query up a tier.
ESCALATION_MODES = ("inadequacy", "confidence", "both", "never")


@dataclass(frozen=True)
class RouterTier:
    """One rung of the cascade: a model name (pricing key) plus its client."""

    name: str
    llm: LLMClient

    @property
    def price_known(self) -> bool:
        return self.name.lower() in PRICES_PER_1K_TOKENS

    def cost_of(self, response: LLMResponse) -> float:
        """Dollar cost of one completion at this tier ($0 when unpriced)."""
        if not self.price_known:
            return 0.0
        return cost_usd(self.name, response.prompt_tokens, response.completion_tokens)


@dataclass(frozen=True)
class EscalationPolicy:
    """When a query enters above the cheap tier, and when an answer escalates.

    Parameters
    ----------
    escalate_on:
        Which signals drive routing — one of :data:`ESCALATION_MODES`.
        ``"inadequacy"`` uses only the pre-call ``D(t_i)`` entry rule;
        ``"confidence"`` only the post-call response rule; ``"both"``
        (default) combines them; ``"never"`` pins every query to the cheap
        tier (useful as a baseline).
    inadequacy_threshold:
        Queries with ``D(t_i) >=`` this enter at the *strongest* tier
        directly.  Scores are whatever scale the provided measure emits
        (the regression output of ``TextInadequacyScorer`` lives roughly in
        [0, 1]); callers typically set a quantile of the query set's scores.
    confidence_threshold:
        A tier's answer whose self-reported confidence is below this
        escalates one tier up.  Responses without a confidence (backends
        with no logprob access) never trigger this rule.
    escalate_on_abstain:
        Whether an answer that parses to no known class escalates (on by
        default — an abstention is the clearest inadequacy signal of all).
    """

    escalate_on: str = "both"
    inadequacy_threshold: float = 0.5
    confidence_threshold: float = 0.6
    escalate_on_abstain: bool = True

    def __post_init__(self) -> None:
        if self.escalate_on not in ESCALATION_MODES:
            raise ValueError(
                f"escalate_on must be one of {ESCALATION_MODES}, got {self.escalate_on!r}"
            )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")

    def entry_tier(self, score: float | None, num_tiers: int) -> int:
        """Tier index a query starts at, given its ``D(t_i)`` (or ``None``)."""
        if (
            self.escalate_on in ("inadequacy", "both")
            and score is not None
            and score >= self.inadequacy_threshold
        ):
            return num_tiers - 1
        return 0

    def escalation_reason(
        self, response: LLMResponse, predicted: int | None, parse_checked: bool
    ) -> str | None:
        """Why this answer should escalate, or ``None`` to accept it.

        ``parse_checked`` is False when the router has no class names to
        parse against, disabling the abstention rule.
        """
        if self.escalate_on not in ("confidence", "both"):
            return None
        if self.escalate_on_abstain and parse_checked and predicted is None:
            return "abstain"
        if (
            response.confidence is not None
            and response.confidence < self.confidence_threshold
        ):
            return "low_confidence"
        return None


@dataclass(frozen=True)
class TierAttempt:
    """One tier's completion within a cascade, kept for audit/telemetry."""

    tier: str
    prompt_tokens: int
    completion_tokens: int
    confidence: float | None
    cost_usd: float
    escalated: bool
    reason: str | None


@dataclass(frozen=True)
class RoutedResponse:
    """A cascade's final answer with spend aggregated across every attempt.

    Duck-compatible with :class:`~repro.llm.interface.LLMResponse` where the
    engine consumes it (``text``/``prompt_tokens``/``completion_tokens``/
    ``confidence``/``total_tokens``), so routed and unrouted execution share
    one record-building path.  Token counts sum over *all* tier attempts —
    a discarded cheap answer was still paid for.
    """

    text: str
    prompt_tokens: int
    completion_tokens: int
    confidence: float | None
    tier: str
    tier_index: int
    entry_tier_index: int
    escalations: int
    cost_usd: float
    attempts: tuple[TierAttempt, ...]

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class CascadeRouter:
    """Deterministic multi-tier dispatcher for one query workload.

    Parameters
    ----------
    tiers:
        Ordered :class:`RouterTier` list, cheapest first; the last entry is
        the strongest (terminal) tier.  Names must be unique — they key the
        per-record provenance and the telemetry labels.
    policy:
        The :class:`EscalationPolicy` combining ``D(t_i)`` with response
        confidence.
    inadequacy:
        Optional precomputed ``{node: D(t_i)}`` map (e.g. from
        ``TextInadequacyScorer.score`` over the query set).  Nodes absent
        from the map — or a ``None`` map — enter at the cheap tier.
    class_names:
        Class vocabulary for the abstention check; ``None`` disables it.
    observer:
        Optional :class:`~repro.obs.hooks.RunObserver`; escalations emit
        ``on_router_escalation`` and every resolution ``on_router_resolved``.
        Hooks fire in execution order, so simulated-scheduler dispatch emits
        the exact sequence a serial run would.
    """

    def __init__(
        self,
        tiers: "Sequence[RouterTier]",
        policy: EscalationPolicy | None = None,
        inadequacy: "Mapping[int, float] | None" = None,
        class_names: "Sequence[str] | None" = None,
        observer: "RunObserver | None" = None,
    ):
        tiers = list(tiers)
        if not tiers:
            raise ValueError("a cascade needs at least one tier")
        names = [t.name for t in tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"tier names must be unique, got {names}")
        self.tiers = tiers
        self.policy = policy or EscalationPolicy()
        self.inadequacy = dict(inadequacy) if inadequacy is not None else None
        self.class_names = list(class_names) if class_names is not None else None
        self.observer = observer
        self._lock = threading.Lock()
        self._resolved = dict.fromkeys(names, 0)
        self._replayed = dict.fromkeys(names, 0)
        self._escalations = 0
        self._cost_usd = 0.0

    # ---------------------------------------------------------------- routing

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    def score(self, node: int) -> float | None:
        """The node's precomputed ``D(t_i)``, or ``None`` when unknown."""
        if self.inadequacy is None:
            return None
        return self.inadequacy.get(int(node))

    def complete(self, node: int, prompt: str) -> RoutedResponse:
        """Run one query through the cascade and return the aggregate.

        Transient failures (:class:`~repro.llm.reliability.TransientLLMError`)
        from any tier propagate to the engine's existing recovery machinery
        (retry wrappers live *inside* tier clients; deferral and degradation
        live above this call).
        """
        node = int(node)
        entry = self.policy.entry_tier(self.score(node), self.num_tiers)
        attempts: list[TierAttempt] = []
        prompt_tokens = 0
        completion_tokens = 0
        total_cost = 0.0
        index = entry
        while True:
            tier = self.tiers[index]
            response = tier.llm.complete(prompt)
            attempt_cost = tier.cost_of(response)
            prompt_tokens += response.prompt_tokens
            completion_tokens += response.completion_tokens
            total_cost += attempt_cost
            parse_checked = self.class_names is not None
            predicted = (
                parse_category_response(response.text, self.class_names)
                if parse_checked
                else None
            )
            reason = None
            if index < self.num_tiers - 1:
                reason = self.policy.escalation_reason(response, predicted, parse_checked)
            attempts.append(
                TierAttempt(
                    tier=tier.name,
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens,
                    confidence=response.confidence,
                    cost_usd=attempt_cost,
                    escalated=reason is not None,
                    reason=reason,
                )
            )
            if reason is None:
                break
            if self.observer is not None:
                self.observer.on_router_escalation(
                    node, tier.name, self.tiers[index + 1].name, reason
                )
            index += 1
        escalations = index - entry
        with self._lock:
            self._resolved[tier.name] += 1
            self._escalations += escalations
            self._cost_usd += total_cost
        if self.observer is not None:
            self.observer.on_router_resolved(tier.name, escalations, total_cost)
        return RoutedResponse(
            text=response.text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            confidence=response.confidence,
            tier=tier.name,
            tier_index=index,
            entry_tier_index=entry,
            escalations=escalations,
            cost_usd=total_cost,
            attempts=tuple(attempts),
        )

    # ------------------------------------------------------------- accounting

    def note_replayed(self, tier: str | None) -> None:
        """Count a checkpoint-replayed record's tier (zero spend this run)."""
        if tier is None:
            return
        with self._lock:
            if tier in self._replayed:
                self._replayed[tier] += 1

    def stats(self) -> dict:
        """Snapshot of resolution counts, escalations and dollar spend."""
        with self._lock:
            return {
                "resolved_by_tier": dict(self._resolved),
                "replayed_by_tier": dict(self._replayed),
                "escalations": self._escalations,
                "cost_usd": self._cost_usd,
            }
