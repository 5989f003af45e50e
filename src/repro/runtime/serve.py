"""Multi-tenant serving layer: admission control, fair budgets, backpressure.

The paper's whole argument (Sec. V) is doing more classification under a
fixed token budget.  This module lifts that idea from the query dimension to
the *traffic* dimension: many named tenants submit classification requests
concurrently, each under its own token/dollar :class:`~repro.core.budget.
BudgetLedger`, and the serving layer decides — deterministically — who gets
served, at what fidelity, and who waits.

The pipeline per request::

    arrival ──admission──▶ per-tenant FIFO queue ──DRR──▶ wave ──▶ engine
                │                                          │
                ├─ rejected_queue_full / rejected_overload └─ budget gate:
                └─ rejected_budget (tenant already dry)        full prompt
                                                               → compressed prompt
                                                               → pruned prompt
                                                               → surrogate MLP
                                                               → rejected (429)

* **Admission control** (:class:`AdmissionPolicy`): per-tenant bounded
  queues plus three global watermarks — above ``compress_watermark``
  queued requests, new arrivals are admitted *compressed* (the engine's
  deterministic :class:`~repro.mqo.compression.PromptCompressor` shrinks
  their neighbor context before dispatch); above ``degrade_watermark``
  they are admitted *degraded* (pinned to the cheap zero-shot prompt);
  above ``shed_watermark`` they are rejected outright.
* **Fairness**: dispatch cycles pick requests by deficit round-robin across
  tenants — each cycle replenishes every backlogged tenant's deficit by its
  ``weight`` and drains queues in a rotating order, so a tenant with a
  non-empty queue is served at least once every ``len(tenants)`` cycles
  (no starvation), and long-run throughput is weight-proportional.
* **Budget gate**: before dispatch, the exact prompt token count (tokenizer
  only, no LLM spend — the same idiom as the engine's budget guard) is
  checked against the tenant's ledger *and* the global ceiling, walking the
  shared rung list of :mod:`repro.runtime.fallback` from the admission pin:
  full prompt, compressed prompt, pruned prompt, then the engine ladder's
  surrogate MLP at zero tokens, then an explicit 429-style rejection.
  Charges land on both ledgers in canonical order after execution.
* **Determinism**: every decision runs on the engine's ``SimulatedClock``
  and pure data structures — same request stream + seed ⇒ bit-identical
  outcomes, ledgers, and trace, with or without a batched
  :class:`~repro.runtime.scheduler.QueryScheduler` (simulated dispatch),
  mirroring the scheduler's serial-equivalence contract.

See ``docs/serving.md`` for the full contract and knobs.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.budget import BudgetLedger, LedgerBook
from repro.io.atomic import (
    append_line_durable, atomic_write_text, canonical_crc, canonical_json, crc_line, read_crc_log
)
from repro.llm.pricing import PRICES_PER_1K_TOKENS, cache_discount_usd, cost_usd
from repro.runtime.fallback import COMPRESSED, FULL, PRUNED, RUNGS, SURROGATE, Rung, rungs_from
from repro.runtime.results import QueryRecord
from repro.runtime.scheduler import WorkItem, execute_item
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosController
    from repro.runtime.cluster import ShardedCluster
    from repro.runtime.engine import MultiQueryEngine

#: Admission decisions, best to worst.  ``admitted`` enters the queue at
#: full fidelity; ``admitted_compress`` enters pinned to the compressed
#: neighbor prompt (the cheap MQO rung); ``admitted_degraded`` enters
#: pinned to the zero-shot prompt (overload backpressure); the
#: ``rejected_*`` tiers never queue.
ADMISSION_DECISIONS = (
    "admitted",
    "admitted_compress",
    "admitted_degraded",
    "rejected_queue_full",
    "rejected_overload",
    "rejected_budget",
)

#: The rung each admission decision pins a queued request to: the highest
#: fidelity the budget gate may consider at dispatch time.
_ADMISSION_PINS = {
    "admitted": FULL,
    "admitted_compress": COMPRESSED,
    "admitted_degraded": PRUNED,
}

#: Serve-level outcome statuses.  Every outcome also carries an explicit
#: ``tier`` naming its rung: a record outcome tier
#: (:data:`~repro.runtime.results.OUTCOME_TIERS`, with ``degraded_pruned``
#: for requests the gate or admission pinned zero-shot) or a rejection
#: decision from :data:`ADMISSION_DECISIONS`.
SERVE_STATUSES = ("served", "degraded", "rejected")

#: Key for the global ceiling in in-wave reservation maps (the same sentinel
#: :meth:`~repro.core.budget.LedgerBook.snapshot` uses).
_GLOBAL = "__global__"


@dataclass(frozen=True)
class ServeRequest:
    """One tenant's classification request.

    ``arrival`` is in simulated seconds on the serving clock; requests with
    equal arrivals keep their submission order.  ``include_neighbors=False``
    asks for the cheap zero-shot form up front (never counted as degraded).
    """

    tenant: str
    node: int
    arrival: float = 0.0
    include_neighbors: bool = True

    def __post_init__(self) -> None:
        # NaN would compare false against every clock time, and inf would
        # drive the serving clock (and the makespan) to infinity.
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise ValueError(f"arrival must be finite and >= 0, got {self.arrival}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's service contract: fairness weight, queue bound, budgets."""

    name: str
    weight: int = 1
    max_queue_depth: int = 64
    token_budget: float | None = None
    usd_budget: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")

    def make_ledger(self) -> BudgetLedger:
        return BudgetLedger(
            budget=self.token_budget, cost_budget_usd=self.usd_budget
        )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure knobs: when arrivals queue, compress, degrade, or shed.

    Watermarks count *total queued requests across tenants*; ``None``
    disables that rung.  ``compress_watermark`` is the gentlest rung: it
    pins arrivals to the compressed neighbor prompt (requires an engine
    compressor; without one the pin falls through to full fidelity), and
    must sit at or below ``degrade_watermark``.  ``completion_reserve`` is the per-request headroom
    kept for the (pre-call unknowable) completion, exactly like the engine
    budget guard's reserve.  ``wave_quota`` caps how many requests one
    dispatch cycle drains into a scheduler wave.
    """

    degrade_watermark: int | None = None
    shed_watermark: int | None = None
    wave_quota: int = 8
    completion_reserve: int = 32
    compress_watermark: int | None = None

    def __post_init__(self) -> None:
        if self.wave_quota < 1:
            raise ValueError("wave_quota must be >= 1")
        if self.completion_reserve < 0:
            raise ValueError("completion_reserve must be >= 0")
        for name in ("compress_watermark", "degrade_watermark", "shed_watermark"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 (or None to disable)")
        if (
            self.degrade_watermark is not None
            and self.shed_watermark is not None
            and self.shed_watermark < self.degrade_watermark
        ):
            raise ValueError("shed_watermark must be >= degrade_watermark")
        tighter = self.degrade_watermark
        if tighter is None:
            tighter = self.shed_watermark
        if (
            self.compress_watermark is not None
            and tighter is not None
            and tighter < self.compress_watermark
        ):
            raise ValueError(
                "compress_watermark must be <= degrade_watermark (and "
                "shed_watermark) — compression is the gentler rung"
            )


@dataclass(frozen=True)
class ServeOutcome:
    """Final disposition of one request, with its explicit outcome tier.

    ``tier`` is a record outcome (``ok``/``retried``/``degraded_compressed``/
    ``degraded_pruned``/``degraded_surrogate``/``abstained``) for
    dispatched requests — with
    ``degraded_pruned`` standing in whenever a neighbor-bearing request was
    executed zero-shot by backpressure or the budget gate — or the
    ``rejected_*`` admission decision for requests that never dispatched.
    """

    request: ServeRequest
    status: str
    tier: str
    record: QueryRecord | None
    queued_at: float | None
    dispatched_at: float | None
    completed_at: float
    #: Index of the dispatch cycle that settled the request (``None`` for
    #: admission-time rejections) — the fairness tests' service timeline.
    cycle: int | None = None
    #: Prompt tokens this request shared with a batch-mate's prefix under
    #: the scheduler's prefix-sharing plan — credited to the tenant's
    #: ledger as a prompt-cache discount (0 without prefix sharing).
    shared_prompt_tokens: int = 0

    def __post_init__(self) -> None:
        if self.status not in SERVE_STATUSES:
            raise ValueError(f"unknown serve status {self.status!r}")

    @property
    def latency_seconds(self) -> float:
        """Arrival-to-completion simulated seconds (0 for instant rejects)."""
        return max(0.0, self.completed_at - self.request.arrival)

    @property
    def answered(self) -> bool:
        """Whether the client got a usable prediction (goodput numerator)."""
        return self.record is not None and self.record.predicted_label is not None


@dataclass
class TenantSummary:
    """Per-tenant aggregate of a serve run (the CLI's summary-table row)."""

    tenant: str
    submitted: int = 0
    served: int = 0
    degraded: int = 0
    rejected: int = 0
    answered: int = 0
    tokens: int = 0
    usd: float = 0.0
    latencies: list[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))


@dataclass
class ServeReport:
    """Everything one serve run produced, in request-completion order."""

    outcomes: list[ServeOutcome]
    cycles: int
    makespan_seconds: float
    book: LedgerBook

    @property
    def num_requests(self) -> int:
        return len(self.outcomes)

    @property
    def goodput(self) -> int:
        """Requests that ended with a usable prediction (any fidelity)."""
        return sum(o.answered for o in self.outcomes)

    @property
    def status_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(SERVE_STATUSES, 0)
        for o in self.outcomes:
            counts[o.status] += 1
        return counts

    @property
    def tier_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.tier] = counts.get(o.tier, 0) + 1
        return counts

    def latency_percentile(self, q: float) -> float:
        values = [o.latency_seconds for o in self.outcomes]
        if not values:
            return 0.0
        return float(np.percentile(np.asarray(values), q))

    def tenant_summaries(self) -> dict[str, TenantSummary]:
        summaries: dict[str, TenantSummary] = {}
        for o in self.outcomes:
            summary = summaries.setdefault(o.request.tenant, TenantSummary(o.request.tenant))
            summary.submitted += 1
            if o.status == "served":
                summary.served += 1
            elif o.status == "degraded":
                summary.degraded += 1
            else:
                summary.rejected += 1
            summary.answered += o.answered
            if o.record is not None:
                summary.tokens += o.record.total_tokens
                summary.latencies.append(o.latency_seconds)
        for name, summary in sorted(summaries.items()):
            summary.usd = self.book.ledger(name).spent_usd
        return summaries


class JournalError(ValueError):
    """A serve request journal cannot be used for the attempted resume.

    Raised for a damaged header, header/stream mismatches (the journal was
    recorded for a different request stream) and entries that disagree
    with the re-simulated dispatch — never for a torn tail, which
    :class:`ServeJournal` repairs silently on load.
    """


_JOURNAL_VERSION = 2


def _stream_crc(requests: "list[ServeRequest]") -> int:
    """CRC32 identity of a request stream (order-sensitive, content-exact)."""
    return canonical_crc([[r.tenant, r.node, r.arrival, r.include_neighbors] for r in requests])


class ServeJournal:
    """Crash-safe write-ahead journal of a serve run's settled cycles.

    Each completed dispatch cycle appends one fsync'd JSONL line (CRC-
    enveloped) carrying the cycle's outcomes — records included — plus the
    clock value after the cycle.  On resume, :meth:`ServingLayer.replay`
    re-simulates admission/fairness/gating deterministically but replays
    every journaled cycle from disk: the journaled requests' LLM calls are
    **never re-issued**, their charges land on the reconstructed ledgers
    identically, and the clock is advanced to the journaled timeline — so a
    crashed-and-resumed run finishes bit-identical to the uninterrupted
    one, minus only the duplicate spend.

    Durability: appends go through :func:`repro.io.atomic.
    append_line_durable` (write + fsync), so a crash can tear at most the
    final line.  On load, :func:`repro.io.atomic.read_crc_log` finds the
    verified prefix (the checkpoint log's reader too): the first line that
    fails its CRC marks the torn tail, and the file is rewritten as the
    prefix alone (work past the tail was committed by a process that died
    before its fsync returned — it must be re-executed, conservatively).  A
    last line that lost only its newline is kept and the newline restored,
    so the next cycle starts a line of its own.  A whole header line that
    fails its CRC (a bit flip, or a v1 journal, whose lines were not
    canonical) raises :class:`JournalError` and leaves the file as it is:
    truncating it would make the resume pay again for every cycle.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header: dict | None = None
        self.cycles: list[dict] = []
        if self.path.exists():
            self._load()

    # ---------------------------------------------------------------- loading

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8", errors="replace")
        entries, end = read_crc_log(text)
        if not entries and "\n" in text:  # a whole header line, damaged: never truncate it
            raise JournalError(f"{self.path}: header line fails its CRC (damaged, or a v1 journal)")
        verified = text[:end]
        if verified and not verified.endswith("\n"):
            verified += "\n"
        if verified != text:
            atomic_write_text(self.path, verified)
        if not entries:
            return
        header = entries[0]
        if header.get("kind") != "serve_journal":
            raise JournalError(f"{self.path} is not a serve journal")
        version = header.get("format_version")
        if version != _JOURNAL_VERSION:
            raise JournalError(f"unsupported journal format version {version!r}")
        self.header = header
        for entry in entries[1:]:
            if entry.get("kind") != "cycle":
                raise JournalError(
                    f"{self.path}: unexpected journal entry kind {entry.get('kind')!r}"
                )
            self.cycles.append(entry)

    # ---------------------------------------------------------------- writing

    def _append(self, entry: dict) -> None:
        append_line_durable(self.path, crc_line(canonical_json(entry)))

    def begin(self, requests: "list[ServeRequest]") -> None:
        """Bind the journal to ``requests`` (write or verify the header)."""
        crc = _stream_crc(requests)
        if self.header is None:
            self.header = {
                "kind": "serve_journal",
                "format_version": _JOURNAL_VERSION,
                "num_requests": len(requests),
                "stream_crc": crc,
            }
            self._append(self.header)
            return
        if (
            self.header.get("num_requests") != len(requests)
            or self.header.get("stream_crc") != crc
        ):
            raise JournalError(
                f"{self.path} was recorded for a different request stream "
                f"({self.header.get('num_requests')} requests, "
                f"crc {self.header.get('stream_crc')}); refusing to resume "
                f"against {len(requests)} requests, crc {crc}"
            )

    def append_cycle(self, entry: dict) -> None:
        """Durably commit one settled cycle."""
        self.cycles.append(entry)
        self._append({"kind": "cycle", **entry})

    def truncate(self, keep_cycles: int) -> None:
        """Drop every journaled cycle past the first ``keep_cycles``.

        Rewrites the file as header + kept cycles — the on-disk state a
        crash at that point would have left.  The chaos CLI and tests use
        it to stage crash/resume scenarios against a real journal file.
        """
        if keep_cycles < 0:
            raise ValueError("keep_cycles must be >= 0")
        if self.header is None:
            raise JournalError("cannot truncate a journal with no header")
        self.cycles = self.cycles[:keep_cycles]
        entries = [self.header] + [{"kind": "cycle", **c} for c in self.cycles]
        atomic_write_text(self.path, "".join(crc_line(canonical_json(e)) + "\n" for e in entries))


class _TenantState:
    """Queue + deficit-round-robin bookkeeping for one tenant."""

    __slots__ = ("spec", "queue", "deficit")

    def __init__(self, spec: TenantSpec):
        self.spec = spec
        self.queue: deque = deque()
        self.deficit = 0


class ServingLayer:
    """Deterministic in-process request server over one engine.

    Parameters
    ----------
    engine:
        A wired :class:`~repro.runtime.engine.MultiQueryEngine`.  Its
        optional ``scheduler`` turns each dispatch cycle into a batched
        wave; its optional ``ladder`` provides the surrogate rung of the
        overload ladder; its ``clock`` is the serving timeline.  The engine
        must *not* carry its own ledger — the serving layer owns all spend
        accounting through its :class:`~repro.core.budget.LedgerBook`.
    tenants:
        The :class:`TenantSpec` contracts; request streams may only name
        these tenants.
    policy:
        The :class:`AdmissionPolicy`; defaults to unbounded watermarks.
    global_budget / global_usd_budget:
        Optional ceiling across all tenants (one shared ledger).
    price_model:
        Model name used to estimate a request's dollar cost at the budget
        gate (prompt + reserve at that model's price) and to charge actual
        records that carry no routed ``cost_usd``.  ``None`` (or an
        unpriced simulated model) disables dollar accounting for unrouted
        records.
    observer:
        Optional :class:`~repro.obs.hooks.RunObserver`; admissions,
        dispatch cycles and completions report through the ``on_serve_*``
        hooks (metrics + an ``admission`` trace event per arrival).
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosController`.  Attaching
        it makes the layer drive time-triggered faults (``chaos.poll`` each
        cycle) and, when the plan carries *tenant-scoped* LLM faults, tag
        each dispatched request's tenant on the controller so a
        :class:`~repro.runtime.chaos.ChaosLLM` downstream can scope its
        faults.  Tenant tagging requires per-request serial dispatch, so
        tenant-scoped plans bypass a batched scheduler for the wave — the
        scheduler's serial-equivalence contract keeps the records
        identical, only wave-overlap timing differs.  A ``None`` plan or a
        tenant-unscoped plan leaves the dispatch path untouched.
    cluster:
        Optional :class:`~repro.runtime.cluster.ShardedCluster`.  When set,
        each request routes to the engine owning its node's shard (gating,
        execution and surrogate answers all happen on that engine), while
        admission, fairness and the :class:`~repro.core.budget.LedgerBook`
        stay layer-global — a tenant spanning shards keeps one ledger and
        its DRR weight regardless of where its nodes live.  Every cluster
        engine must share one clock and carry no ledger; ``engine`` may be
        omitted and defaults to shard 0's engine (the serving timeline).
        At one shard the routing is the identity, so outcomes are
        bit-identical to the unclustered layer.
    """

    def __init__(
        self,
        engine: "MultiQueryEngine | None" = None,
        tenants: "list[TenantSpec] | tuple[TenantSpec, ...]" = (),
        policy: AdmissionPolicy | None = None,
        global_budget: float | None = None,
        global_usd_budget: float | None = None,
        price_model: str | None = None,
        observer: object | None = None,
        chaos: "ChaosController | None" = None,
        cluster: "ShardedCluster | None" = None,
    ):
        if not tenants:
            raise ValueError("a serving layer needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if engine is None:
            if cluster is None:
                raise ValueError("a serving layer needs an engine or a cluster")
            engine = cluster.engines[0]
        if cluster is not None:
            clocks = {id(e.clock) for e in cluster.engines}
            if len(clocks) != 1:
                raise ValueError("cluster engines must share one clock")
            for shard_engine in cluster.engines:
                if shard_engine.ledger is not None:
                    raise ValueError(
                        "the serving layer owns all spend accounting; construct "
                        "cluster engines without ledgers"
                    )
        if engine.ledger is not None:
            raise ValueError(
                "the serving layer owns all spend accounting; construct the "
                "engine without a ledger"
            )
        self.engine = engine
        self.cluster = cluster
        self.policy = policy or AdmissionPolicy()
        self._tenants = {t.name: _TenantState(t) for t in tenants}
        global_ledger = None
        if global_budget is not None or global_usd_budget is not None:
            global_ledger = BudgetLedger(
                budget=global_budget, cost_budget_usd=global_usd_budget
            )
        self.book = LedgerBook(
            {t.name: t.make_ledger() for t in tenants}, global_ledger=global_ledger
        )
        self.price_model = price_model
        self._priced = price_model is not None and price_model.lower() in PRICES_PER_1K_TOKENS
        self.observer = observer if observer is not None else engine.observer
        self.chaos = chaos
        self._rr_index = 0
        self._cycles = 0

    # ---------------------------------------------------------------- routing

    def _engine_for(self, node: int) -> "MultiQueryEngine":
        """The engine that owns ``node`` (shard routing; identity unclustered)."""
        if self.cluster is None:
            return self.engine
        return self.cluster.engine_for(node)

    # ------------------------------------------------------------------- time

    @property
    def now(self) -> float:
        clock = self.engine.clock
        return float(clock.now) if clock is not None else 0.0

    def _advance_to(self, when: float) -> None:
        clock = self.engine.clock
        if clock is not None and when > clock.now:
            clock.advance(when - clock.now)

    # -------------------------------------------------------------- admission

    @property
    def total_queued(self) -> int:
        return sum(len(state.queue) for state in self._tenants.values())

    def queue_depth(self, tenant: str) -> int:
        return len(self._tenants[tenant].queue)

    def admit(self, request: ServeRequest) -> ServeOutcome | None:
        """Apply admission control to one arrival.

        Returns ``None`` when the request entered a queue, or the terminal
        :class:`ServeOutcome` of an immediate rejection.
        """
        state = self._tenants.get(request.tenant)
        if state is None:
            raise KeyError(
                f"unknown tenant {request.tenant!r}; known tenants: "
                + ", ".join(sorted(self._tenants))
            )
        queued = self.total_queued
        decision = "admitted"
        if self.book.exhausted(request.tenant):
            decision = "rejected_budget"
        elif (
            self.policy.shed_watermark is not None
            and queued >= self.policy.shed_watermark
        ):
            decision = "rejected_overload"
        elif len(state.queue) >= state.spec.max_queue_depth:
            decision = "rejected_queue_full"
        elif (
            self.policy.degrade_watermark is not None
            and queued >= self.policy.degrade_watermark
        ):
            decision = "admitted_degraded"
        elif (
            self.policy.compress_watermark is not None
            and queued >= self.policy.compress_watermark
        ):
            decision = "admitted_compress"
        if self.observer is not None:
            depth = queued + int(decision.startswith("admitted"))
            self.observer.on_serve_admission(request.tenant, decision, depth)
        if decision.startswith("rejected"):
            return ServeOutcome(
                request=request,
                status="rejected",
                tier=decision,
                record=None,
                queued_at=None,
                dispatched_at=None,
                completed_at=self.now,
            )
        state.queue.append((request, self.now, _ADMISSION_PINS[decision]))
        return None

    # --------------------------------------------------------------- fairness

    def _pick_wave(self) -> list[tuple[ServeRequest, float, Rung]]:
        """Drain up to ``wave_quota`` requests by deficit round-robin.

        Each cycle replenishes every backlogged tenant's deficit by its
        weight (an empty tenant's deficit resets — classic DRR, so idle
        tenants cannot hoard credit), then serves tenants in rotating order.
        The rotation guarantees a backlogged tenant is first in line at
        least once every ``len(tenants)`` cycles, bounding starvation.
        """
        order = list(self._tenants)
        order = order[self._rr_index :] + order[: self._rr_index]
        self._rr_index = (self._rr_index + 1) % len(order)
        for name in order:
            state = self._tenants[name]
            if state.queue:
                state.deficit += state.spec.weight
            else:
                state.deficit = 0
        picked: list[tuple[ServeRequest, float, Rung]] = []
        for name in order:
            state = self._tenants[name]
            while (
                state.queue
                and state.deficit >= 1
                and len(picked) < self.policy.wave_quota
            ):
                picked.append(state.queue.popleft())
                state.deficit -= 1
            if len(picked) >= self.policy.wave_quota:
                break
        if not picked:
            # Every backlogged tenant is deficit-starved only if quotas and
            # weights are misconfigured to zero — guaranteed not to happen by
            # validation — but serve the rotation head defensively anyway.
            for name in order:
                state = self._tenants[name]
                if state.queue:
                    picked.append(state.queue.popleft())
                    break
        return picked

    # ------------------------------------------------------------ budget gate

    def _gate(self, request: ServeRequest, pin: Rung, pending: dict) -> Rung | None:
        """Pick the best affordable rung for one request.

        Walks the shared rung list (:data:`~repro.runtime.fallback.RUNGS`)
        from ``pin``, the admission-time fidelity cap.  A zero-shot request
        starts no higher than the pruned rung; the compressed rung exists
        only when the engine carries a compressor, and a compressed pin on
        an engine without one starts at full fidelity.  Each LLM rung is
        priced at the exact token count of its prompt (the compressed rung
        at the deterministic compression of the full prompt) plus the
        completion reserve, in tokens and in dollars under ``price_model``,
        against the tenant's and the global ledger.  The requests of one
        cycle are all gated before any of them charges, so each check adds
        the wave's earlier reservations in ``pending`` — otherwise one wave
        could jointly overdraw a nearly-dry ledger.  The first affordable
        rung reserves its cost there and is returned.  At the surrogate
        rung the gate returns it when the engine has a degradation ladder,
        else ``None`` (a ``rejected_budget``).

        Under a cluster, gating runs on the engine owning the request's
        node — its shard's label state is what the prompt will render.
        """
        engine = self._engine_for(request.node)
        tenant = request.tenant
        ledgers = {tenant: self.book.ledger(tenant), _GLOBAL: self.book.global_ledger}
        if pin is COMPRESSED and engine.compressor is None:
            pin = FULL
        if not request.include_neighbors:
            pin = max(pin, PRUNED, key=RUNGS.index)
        for rung in rungs_from(pin):
            if not rung.calls_llm:
                break
            if rung.compress and engine.compressor is None:
                continue
            prompt = engine.preview_prompt(request.node, rung.include_neighbors, rung.compress)
            tokens = engine.llm.tokenizer.count(prompt)
            reserve = self.policy.completion_reserve
            usd = cost_usd(self.price_model, tokens, reserve) if self._priced else 0.0
            cost = tokens + reserve
            planned = {key: pending.get(key, (0, 0.0)) for key in ledgers}
            if not any(
                ledger is not None
                and ledger.would_exceed(cost + planned[key][0], usd + planned[key][1])
                for key, ledger in ledgers.items()
            ):
                for key, (tokens_so_far, usd_so_far) in planned.items():
                    pending[key] = (tokens_so_far + cost, usd_so_far + usd)
                return rung
        return SURROGATE if engine.ladder is not None else None

    # --------------------------------------------------------------- dispatch

    def _open_cycle(self) -> tuple[list[tuple[ServeRequest, float, Rung]], int]:
        """Start a dispatch cycle, live or journaled: the wave and its index.

        Drives time-triggered chaos, picks the wave by DRR and numbers it;
        an empty wave opens no cycle.
        """
        if self.chaos is not None:
            self.chaos.poll(self.now)
        picked = self._pick_wave()
        cycle_index = self._cycles
        if picked:
            self._cycles += 1
        return picked, cycle_index

    def _close_cycle(self, cycle_index: int, outcomes: list[ServeOutcome]) -> list[ServeOutcome]:
        """Report a settled cycle and its completions to the observer."""
        if self.observer is not None:
            self.observer.on_serve_cycle(cycle_index, self.total_queued, len(outcomes))
            for outcome in outcomes:
                self.observer.on_serve_complete(
                    outcome.request.tenant,
                    outcome.status,
                    outcome.tier,
                    outcome.latency_seconds,
                )
        return outcomes

    def _charge(self, tenant: str, record: QueryRecord, shared: int) -> None:
        """Bill one settled record, then credit its ``shared`` prompt-cache tokens.

        Live and journaled cycles both settle through here, so a replayed
        record re-charges the reconstructed ledgers exactly.
        """
        usd = record.cost_usd
        if usd is None:
            usd = 0.0
            if self._priced:
                usd = cost_usd(self.price_model, record.prompt_tokens, record.completion_tokens)
        self.book.charge(tenant, record.total_tokens, usd=usd)
        if self.observer is not None:
            # Fires on journal replay too (replayed records re-charge the
            # ledgers), so observer-side tenant spend always matches the book.
            self.observer.on_serve_charge(tenant, record.total_tokens, usd)
        if shared:
            self.book.credit_shared(tenant, shared, usd=self._shared_discount_usd(shared))

    def _shared_discount_usd(self, shared_tokens: int) -> float:
        """Dollar value of a prompt-cache credit under ``price_model``."""
        if shared_tokens <= 0 or not self._priced:
            return 0.0
        return cache_discount_usd(self.price_model, shared_tokens)

    def _execute_items(
        self, items: list[WorkItem], item_tenants: list[str]
    ) -> tuple[list[QueryRecord], list[int]]:
        """Run a gated wave, honoring an attached chaos controller.

        Tenant-scoped fault plans need the requesting tenant visible to the
        LLM stack at call time, which only per-request serial dispatch can
        provide race-free; by the scheduler's serial-equivalence contract
        the records are identical either way.

        Returns the records in item order plus each item's
        ``shared_prompt_tokens`` under the scheduler's prefix-sharing plan
        (all zeros without a planning scheduler — serial dispatch shares
        nothing).

        Under a cluster, the wave splits by owning shard: each shard's
        sub-wave runs on its own engine (and scheduler) in shard order,
        then records stitch back into item order.  One shard reduces to
        the unclustered single-wave path exactly.
        """
        chaos = self.chaos
        serial_for_chaos = chaos is not None and chaos.plan.has_tenant_scoped_faults
        if items and not serial_for_chaos:
            if self.cluster is None:
                if self.engine.scheduler is None:
                    return self._execute_serial(items, item_tenants)
                return self._run_shard_wave(self.engine, items)
            by_shard: dict[int, list[int]] = {}
            for position, item in enumerate(items):
                shard = self.cluster.partition.part_of(item.node)
                by_shard.setdefault(shard, []).append(position)
            records: list[QueryRecord | None] = [None] * len(items)
            shared: list[int] = [0] * len(items)
            for shard in sorted(by_shard):
                positions = by_shard[shard]
                engine = self.cluster.engines[shard]
                if engine.scheduler is None:
                    sub_records, sub_shared = self._execute_serial(
                        [items[p] for p in positions],
                        [item_tenants[p] for p in positions],
                        engine=engine,
                    )
                else:
                    sub_records, sub_shared = self._run_shard_wave(
                        engine, [items[p] for p in positions]
                    )
                for position, record, tokens in zip(positions, sub_records, sub_shared):
                    records[position] = record
                    shared[position] = tokens
            return records, shared
        return self._execute_serial(items, item_tenants)

    def _run_shard_wave(
        self, engine: "MultiQueryEngine", items: list[WorkItem]
    ) -> tuple[list[QueryRecord], list[int]]:
        records = engine.scheduler.run_wave(engine, items).records
        plan = getattr(engine.scheduler, "last_plan", None)
        shared = list(plan.shared_by_prompt) if plan is not None else [0] * len(items)
        return records, shared

    def _execute_serial(
        self,
        items: list[WorkItem],
        item_tenants: list[str],
        engine: "MultiQueryEngine | None" = None,
    ) -> tuple[list[QueryRecord], list[int]]:
        chaos = self.chaos
        records: list[QueryRecord] = []
        for item, tenant in zip(items, item_tenants):
            item_engine = engine if engine is not None else self._engine_for(item.node)
            if chaos is not None:
                chaos.current_tenant = tenant
            try:
                records.append(execute_item(item_engine, item))
            finally:
                if chaos is not None:
                    chaos.current_tenant = None
        return records, [0] * len(items)

    def _cycle(self) -> list[ServeOutcome]:
        """One dispatch cycle: pick a wave fairly, gate it, execute, charge."""
        picked, cycle_index = self._open_cycle()
        if not picked:
            return []
        dispatched_at = self.now
        plan: list[tuple[ServeRequest, float, Rung | None]] = []
        items: list[WorkItem] = []
        item_tenants: list[str] = []
        pending: dict = {}
        for request, queued_at, pin in picked:
            rung = self._gate(request, pin, pending)
            plan.append((request, queued_at, rung))
            if rung is not None and rung.calls_llm:
                # Serve requests read no pseudo-labels (reads=∅), so under
                # the DAG dispatch plan each admitted request is immediately
                # ready: it joins the persistent in-flight worker timeline
                # the moment a slot frees instead of queueing behind the
                # previous wave's barrier.  Execution order is canonical
                # either way, so wave and DAG plans stay record-identical.
                items.append(
                    WorkItem(
                        node=request.node,
                        include_neighbors=rung.include_neighbors,
                        compress=rung.compress,
                        reads=frozenset(),
                    )
                )
                item_tenants.append(request.tenant)
        wave_records, wave_shared = self._execute_items(items, item_tenants)
        records = iter(zip(wave_records, wave_shared))
        outcomes = []
        for request, queued_at, rung in plan:
            if rung is None:
                outcomes.append(
                    ServeOutcome(
                        request=request,
                        status="rejected",
                        tier="rejected_budget",
                        record=None,
                        queued_at=queued_at,
                        dispatched_at=dispatched_at,
                        completed_at=self.now,
                        cycle=cycle_index,
                    )
                )
                continue
            shared = 0
            if not rung.calls_llm:
                record = self._engine_for(request.node).surrogate_query(request.node)
            else:
                record, shared = next(records)
            self._charge(request.tenant, record, shared)
            # A neighbor-bearing request executed zero-shot lost fidelity to
            # backpressure or the gate: surface it as the pruned ladder rung.
            shed_neighbors = request.include_neighbors and record.pruned
            if record.outcome in ("ok", "retried") and not shed_neighbors:
                status, out_tier = "served", record.outcome
            elif record.outcome in ("ok", "retried"):
                status, out_tier = "degraded", "degraded_pruned"
            else:
                status, out_tier = "degraded", record.outcome
            outcomes.append(
                ServeOutcome(
                    request=request,
                    status=status,
                    tier=out_tier,
                    record=record,
                    queued_at=queued_at,
                    dispatched_at=dispatched_at,
                    completed_at=self.now,
                    cycle=cycle_index,
                    shared_prompt_tokens=shared,
                )
            )
        return self._close_cycle(cycle_index, outcomes)

    # ----------------------------------------------------------------- replay

    def _cycle_entry(self, cycle_index: int, outcomes: list[ServeOutcome]) -> dict:
        """The journal payload committing one settled cycle."""
        return {
            "cycle": cycle_index,
            "now_after": self.now,
            "outcomes": [
                {
                    "tenant": o.request.tenant,
                    "node": o.request.node,
                    "arrival": o.request.arrival,
                    "status": o.status,
                    "tier": o.tier,
                    "record": asdict(o.record) if o.record is not None else None,
                    "queued_at": o.queued_at,
                    "dispatched_at": o.dispatched_at,
                    "completed_at": o.completed_at,
                    "shared_prompt_tokens": o.shared_prompt_tokens,
                }
                for o in outcomes
            ],
        }

    def _replay_cycle(self, entry: dict) -> list[ServeOutcome]:
        """Settle one journaled cycle without touching the LLM.

        The wave is still *picked* by the live DRR machinery (so queue and
        deficit state evolve exactly as in the original run) and every
        journaled record still *charges* the ledgers; only the execution is
        replaced by the journal's outcomes, and the clock jumps to the
        journaled post-cycle time.  Any disagreement between the journal
        and the re-simulated wave raises :class:`JournalError` — resuming
        against a drifted stream must fail loudly, not serve stale answers.
        """
        picked, cycle_index = self._open_cycle()
        if entry.get("cycle") != cycle_index:
            raise JournalError(
                f"journal cycle {entry.get('cycle')!r} arrived at re-simulated "
                f"cycle {cycle_index}"
            )
        specs = entry.get("outcomes", [])
        if len(specs) != len(picked):
            raise JournalError(
                f"cycle {cycle_index}: journal settled {len(specs)} requests but "
                f"the re-simulated wave picked {len(picked)}"
            )
        outcomes: list[ServeOutcome] = []
        for (request, _queued_at, _pin), spec in zip(picked, specs):
            if (
                spec.get("tenant") != request.tenant
                or spec.get("node") != request.node
                or spec.get("arrival") != request.arrival
            ):
                raise JournalError(
                    f"cycle {cycle_index}: journal entry for "
                    f"{spec.get('tenant')}/{spec.get('node')} does not match the "
                    f"re-simulated pick {request.tenant}/{request.node}"
                )
            record = (
                QueryRecord(**spec["record"]) if spec.get("record") is not None else None
            )
            shared = int(spec.get("shared_prompt_tokens", 0) or 0)
            if record is not None:
                self._charge(request.tenant, record, shared)
                self._engine_for(request.node).observe_replay(record)
            outcomes.append(
                ServeOutcome(
                    request=request,
                    status=spec["status"],
                    tier=spec["tier"],
                    record=record,
                    queued_at=spec["queued_at"],
                    dispatched_at=spec["dispatched_at"],
                    completed_at=spec["completed_at"],
                    cycle=cycle_index,
                    shared_prompt_tokens=shared,
                )
            )
        self._advance_to(float(entry["now_after"]))
        return self._close_cycle(cycle_index, outcomes)

    def replay(
        self, requests: "list[ServeRequest]", journal: "ServeJournal | None" = None
    ) -> ServeReport:
        """Serve a whole recorded request stream (batch-replay mode).

        Arrivals are ingested in ``(arrival, submission-order)`` order on
        the simulated clock; when every queue is empty the clock jumps to
        the next arrival, otherwise dispatch cycles run back-to-back (time
        passes only through the engine's simulated latencies).  The result
        is bit-reproducible: same stream + same engine seedings ⇒ identical
        outcomes, ledgers, and trace.

        With a :class:`ServeJournal`, every settled cycle is durably
        committed as it completes, and a journal carrying prior cycles
        replays them instead of re-executing: an interrupted run resumed on
        a fresh layer finishes with identical outcomes and ledgers while
        re-issuing **zero** LLM calls for journaled work.
        """
        started = self.now
        if journal is not None:
            journal.begin(requests)
        pending = sorted(
            enumerate(requests), key=lambda pair: (pair[1].arrival, pair[0])
        )
        queue = deque(request for _, request in pending)
        outcomes: list[ServeOutcome] = []
        while queue or self.total_queued:
            if not self.total_queued and queue:
                # Jump idle time to the next arrival and ingest it
                # unconditionally (float advance can land one ULP short of
                # the arrival stamp; gating the head on ``<= now`` could
                # stall forever).
                self._advance_to(queue[0].arrival)
                rejected = self.admit(queue.popleft())
                if rejected is not None:
                    outcomes.append(rejected)
            while queue and queue[0].arrival <= self.now:
                rejected = self.admit(queue.popleft())
                if rejected is not None:
                    outcomes.append(rejected)
            if self.total_queued:
                if journal is not None and self._cycles < len(journal.cycles):
                    outcomes.extend(self._replay_cycle(journal.cycles[self._cycles]))
                    continue
                before = self._cycles
                cycle_outcomes = self._cycle()
                if journal is not None and self._cycles > before:
                    journal.append_cycle(self._cycle_entry(before, cycle_outcomes))
                outcomes.extend(cycle_outcomes)
        return ServeReport(
            outcomes=outcomes,
            cycles=self._cycles,
            makespan_seconds=self.now - started,
            book=self.book,
        )


def load_requests(path: str | Path, on_error: str = "raise") -> list[ServeRequest]:
    """Read a JSONL request stream (one ``{"tenant", "node", ...}`` per line).

    ``arrival`` (simulated seconds) and ``include_neighbors`` are optional
    per line.  A malformed line — broken JSON, unknown or missing fields,
    out-of-domain values (a non-finite or negative arrival, a non-integer
    node, a non-boolean ``include_neighbors``) — is *detected* and either
    raises a ``ValueError`` naming the exact line (``on_error="raise"``, the
    default) or is skipped while the valid remainder loads
    (``on_error="skip"``, the recovery mode for streams damaged by a partial
    write).
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    requests = []
    known = {"tenant", "node", "arrival", "include_neighbors"}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request line is not a JSON object")
            extra = set(payload) - known
            if extra:
                raise ValueError(f"unknown request fields {sorted(extra)}")
            # ``int()``/``bool()`` would turn 3.7 into node 3, true into
            # node 1 and "no" into True; only the JSON types themselves load.
            node = payload["node"]
            if not isinstance(node, int) or isinstance(node, bool):
                raise ValueError(f"node must be an integer, got {node!r}")
            include_neighbors = payload.get("include_neighbors", True)
            if not isinstance(include_neighbors, bool):
                raise ValueError(
                    f"include_neighbors must be a boolean, got {include_neighbors!r}"
                )
            request = ServeRequest(
                tenant=payload["tenant"],
                node=node,
                arrival=float(payload.get("arrival", 0.0)),
                include_neighbors=include_neighbors,
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            if on_error == "skip":
                continue
            raise ValueError(
                f"{path}:{line_no}: malformed request line: {error}"
            ) from error
        requests.append(request)
    return requests


def save_requests(requests: "list[ServeRequest]", path: str | Path) -> Path:
    """Write a request stream as JSONL readable by :func:`load_requests`.

    Uses the same atomic tmp + fsync + rename path as every other persistent
    artifact (:func:`repro.io.atomic.atomic_write_text`), so a crash cannot
    leave a truncated stream behind.
    """
    lines = [
        json.dumps(
            {
                "tenant": r.tenant,
                "node": r.node,
                "arrival": r.arrival,
                "include_neighbors": r.include_neighbors,
            }
        )
        for r in requests
    ]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def synthetic_stream(
    tenants: "list[TenantSpec] | tuple[TenantSpec, ...]",
    nodes: np.ndarray,
    num_requests: int,
    arrival_window: float = 0.0,
    seed: int = 0,
) -> list[ServeRequest]:
    """Deterministic multi-tenant request stream over a query population.

    Tenants are drawn weight-proportionally, nodes uniformly from
    ``nodes``, arrivals uniformly over ``[0, arrival_window]`` (all at t=0
    when the window is 0) and sorted.  Everything derives from ``seed``.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if arrival_window < 0:
        raise ValueError("arrival_window must be >= 0")
    rng = spawn_rng(seed, "serve-stream")
    nodes = np.asarray(nodes, dtype=np.int64)
    weights = np.asarray([t.weight for t in tenants], dtype=np.float64)
    tenant_draws = rng.choice(len(tenants), size=num_requests, p=weights / weights.sum())
    node_draws = rng.choice(nodes, size=num_requests)
    if arrival_window > 0:
        arrivals = np.sort(rng.uniform(0.0, arrival_window, size=num_requests))
    else:
        arrivals = np.zeros(num_requests)
    return [
        ServeRequest(
            tenant=tenants[int(t)].name, node=int(v), arrival=float(a)
        )
        for t, v, a in zip(tenant_draws, node_draws, arrivals)
    ]
