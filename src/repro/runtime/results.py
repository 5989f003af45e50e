"""Execution records and aggregate results for multi-query runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.pricing import PRICES_PER_1K_TOKENS, cost_usd

#: Execution outcome tiers, best to worst.  ``ok``/``retried`` are full-
#: fidelity LLM answers; the ``degraded_*`` tiers come from the engine's
#: fallback ladder (compressed neighbor text, then the cheaper zero-shot
#: prompt, then the surrogate MLP); an ``abstained`` query produced no
#: prediction at all.
OUTCOME_TIERS = (
    "ok",
    "retried",
    "degraded_compressed",
    "degraded_pruned",
    "degraded_surrogate",
    "abstained",
)


@dataclass(frozen=True)
class QueryRecord:
    """Outcome of one executed node query.

    ``latency_seconds`` is the simulated time the query took end-to-end
    (retry backoff plus inter-query think time on the shared
    ``SimulatedClock``); ``None`` when the engine ran without a clock —
    which is also how records from pre-telemetry runs and checkpoints load.

    ``tier``/``escalations``/``cost_usd`` carry multi-model cascade
    provenance (:mod:`repro.runtime.router`): the model that produced the
    final answer, how many times the query escalated to a stronger tier, and
    the summed dollar cost across every tier attempt (tokens spent at
    discarded cheaper tiers are paid for too).  Single-model runs — and
    records loaded from pre-router checkpoints — leave all three at their
    defaults.

    ``compressed`` marks a query answered from a compressed neighbor prompt
    (:mod:`repro.mqo.compression`): some neighbor blocks were dropped to
    meet a token budget, so the answer sits between full fidelity and the
    pruned zero-shot rung.  Records from pre-compression checkpoints load
    with the ``False`` default.
    """

    node: int
    true_label: int
    predicted_label: int | None
    prompt_tokens: int
    completion_tokens: int
    num_neighbors: int
    num_neighbor_labels: int
    num_pseudo_labels: int
    pruned: bool = False
    round_index: int | None = None
    confidence: float | None = None
    outcome: str = "ok"
    latency_seconds: float | None = None
    tier: str | None = None
    escalations: int = 0
    cost_usd: float | None = None
    compressed: bool = False

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOME_TIERS:
            raise ValueError(f"unknown outcome tier {self.outcome!r}")
        if self.escalations < 0:
            raise ValueError("escalations must be >= 0")

    @property
    def degraded(self) -> bool:
        """Whether the record came from a fallback tier (or abstained)."""
        return self.outcome not in ("ok", "retried")

    @property
    def correct(self) -> bool:
        return self.predicted_label is not None and self.predicted_label == self.true_label

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class RunResult:
    """Aggregate of a multi-query execution."""

    records: list[QueryRecord] = field(default_factory=list)

    def add(self, record: QueryRecord) -> None:
        self.records.append(record)

    def extend(self, records: list[QueryRecord]) -> None:
        self.records.extend(records)

    @property
    def num_queries(self) -> int:
        return len(self.records)

    @property
    def accuracy(self) -> float:
        if not self.records:
            raise ValueError("no records; accuracy is undefined")
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.records)

    @property
    def completion_tokens(self) -> int:
        return sum(r.completion_tokens for r in self.records)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    @property
    def queries_with_neighbors(self) -> int:
        """How many queries carried neighbor text (Table VIII's cost proxy)."""
        return sum(r.num_neighbors > 0 for r in self.records)

    @property
    def pseudo_label_uses(self) -> int:
        """Total pseudo-labels consumed across prompts (Fig. 8's measure)."""
        return sum(r.num_pseudo_labels for r in self.records)

    @property
    def num_rounds(self) -> int:
        rounds = {r.round_index for r in self.records if r.round_index is not None}
        return len(rounds)

    @property
    def outcome_counts(self) -> dict[str, int]:
        """Per-tier record counts (every tier present, zero-filled)."""
        counts = dict.fromkeys(OUTCOME_TIERS, 0)
        for r in self.records:
            counts[r.outcome] += 1
        return counts

    @property
    def num_degraded(self) -> int:
        """Queries answered below full fidelity (fallback tiers + abstains)."""
        return sum(r.degraded for r in self.records)

    @property
    def num_compressed(self) -> int:
        """Queries answered from a compressed neighbor prompt."""
        return sum(r.compressed for r in self.records)

    @property
    def availability(self) -> float:
        """Fraction of queries answered at full LLM fidelity (ok/retried)."""
        if not self.records:
            raise ValueError("no records; availability is undefined")
        return 1.0 - self.num_degraded / len(self.records)

    @property
    def total_latency_seconds(self) -> float | None:
        """Summed simulated latency, or ``None`` when no record carries one."""
        values = [r.latency_seconds for r in self.records if r.latency_seconds is not None]
        return sum(values) if values else None

    @property
    def tier_counts(self) -> dict[str, int]:
        """Records by the cascade tier that answered them (routed runs only)."""
        counts: dict[str, int] = {}
        for r in self.records:
            if r.tier is not None:
                counts[r.tier] = counts.get(r.tier, 0) + 1
        return counts

    @property
    def num_escalated(self) -> int:
        """Queries the cascade escalated past their entry tier at least once."""
        return sum(r.escalations > 0 for r in self.records)

    @property
    def routed_cost_usd(self) -> float | None:
        """Summed per-record cascade dollar cost; ``None`` for unrouted runs.

        Unlike :meth:`cost_usd` this includes the spend of *discarded*
        cheap-tier attempts, priced per tier — the true bill of a cascade.
        """
        values = [r.cost_usd for r in self.records if r.cost_usd is not None]
        return sum(values) if values else None

    def cost_usd(self, model: str) -> float:
        """Dollar cost under ``model`` pricing (models without a price raise)."""
        return cost_usd(model, self.prompt_tokens, self.completion_tokens)

    def cost_usd_or_none(self, model: str) -> float | None:
        """Like :meth:`cost_usd` but ``None`` for unpriced simulated models."""
        if model.lower() not in PRICES_PER_1K_TOKENS:
            return None
        return self.cost_usd(model)
