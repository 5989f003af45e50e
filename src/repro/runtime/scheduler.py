"""Deterministic batched/parallel dispatch of multi-query waves.

The paper's MQO strategies (Algorithms 1–2) are defined over a *set* of
queries; nothing in them requires serial dispatch except that pseudo-labels
must land before the boosting rounds that read them.  This module exploits
that: a query list partitions into dependency-respecting **waves** — all of
a plain or pruned run is one wave; each boosting round is a wave whose
pseudo-label writes form the barrier — and each wave dispatches through a
:class:`QueryScheduler` in batches of up to ``max_batch_size`` queries over
``max_concurrency`` workers.

Two dispatch modes cover the two deployment realities:

``"simulated"`` (default, deterministic)
    Queries execute **in canonical order** — the exact order, LLM-call
    sequence, RNG draws, ledger charges, checkpoint flushes and observer
    spans of a serial run, making every artifact bit-identical to serial
    execution.  Concurrency is accounted *virtually*: each query's simulated
    latency (measured on the engine's ``SimulatedClock``) is assigned to the
    next-free of ``max_concurrency`` virtual workers, and the wave's
    overlapped makespan is reported alongside the serial sum.  This is how a
    deterministic run demonstrates (and tests assert) the throughput win of
    batching without sacrificing replay-exactness.

``"threads"``
    Real concurrency for real clients: prompt construction and the LLM call
    of each query run on a thread pool (phase 1), then records are
    finalized — ledger charges, parsing, degradation, spans, checkpoint
    appends — serially **in canonical order** (phase 2).  Records, token
    ledgers and checkpoints match serial execution whenever the client's
    responses are per-prompt deterministic; wall-clock-dependent internals
    (circuit-breaker timelines, usage interleavings) are totals-equal but
    not sequence-equal.  Budget-guarded waves contain per-query decisions
    that read the ledger mid-wave, so they degrade to in-order dispatch
    automatically.

Orthogonal to the mode, the **dispatch plan** picks the ordering model:

``"wave"`` (default)
    Every wave is a hard barrier — the historical behavior.

``"dag"``
    Dependency-driven readiness (see ``repro.runtime.readiness``): each
    :class:`WorkItem` may declare the exact pseudo-labels it ``reads``, and
    becomes dispatchable the moment those labels settle rather than when
    the whole previous wave drains.  Simulated dispatch stays bit-identical
    to the wave plan (execution order is unchanged; only the *virtual*
    packing honors dependencies, so overlap telemetry can exceed a single
    wave's span), while threads-mode boosting routes to the pipelined
    executor whose peak in-flight calls can exceed ``max_concurrency``.

Every path runs a query through the same two functions:
:func:`execute_item` is the one canonical per-item executor (replay, the
budget guard's decision, the call, deferral, the checkpoint hook) — the
serial loops, ordered dispatch and crash recovery all call it — and
:func:`merge_item` is the one per-item merge of a thread-dispatched
result, shared by the wave pool and the pipelined DAG executor.

The scheduler reports per-wave telemetry through the engine's observer
(``on_wave_start`` / ``on_wave_end``) as **metrics only** — emitting wave
spans would break the bit-identical trace contract of simulated dispatch.
See ``docs/scheduling.md`` for the full determinism contract.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.llm.reliability import TransientLLMError
from repro.mqo.prefix_sharing import PrefixPlan, plan_prefix_batches
from repro.runtime.results import QueryRecord

if TYPE_CHECKING:
    from repro.runtime.engine import MultiQueryEngine

DISPATCH_MODES = ("simulated", "threads")
DISPATCH_PLANS = ("wave", "dag")


class WorkerCrashError(RuntimeError):
    """A dispatch worker "died" mid-wave (chaos-injected).

    Deliberately *not* a :class:`~repro.llm.reliability.TransientLLMError`:
    a crashed worker is a scheduler-level loss, not a provider error, and
    the merge phase recovers it by re-executing the item serially rather
    than by retry/degradation.
    """


@dataclass(frozen=True)
class WorkItem:
    """One query of a wave, as the engine/strategies hand it to dispatch.

    ``cached`` carries a checkpoint record to replay instead of executing.
    ``compress`` asks the engine to squeeze the neighbor prompt through its
    :class:`~repro.mqo.compression.PromptCompressor` before the call (a
    no-op on engines without one, and on zero-shot items).
    ``decide_include`` defers the include/prune decision to execution time
    (the budget guard's sequential rationing); its presence forces in-order
    dispatch.  ``on_failure`` follows
    :meth:`~repro.runtime.engine.MultiQueryEngine.execute_query`; when it is
    ``"raise"``, a transient failure defers the query (``on_defer`` fires,
    the node lands in :attr:`WaveOutcome.deferred`) instead of propagating.
    ``after_execute`` runs in canonical order after each fresh record — the
    checkpoint-append hook.  ``reads`` declares the exact set of producer
    nodes whose settled pseudo-labels this query's prompt/candidacy
    depends on (the selector's label support intersected with prior
    producers); ``None`` means "unknown / everything", which the DAG
    dispatch plan treats as a full barrier.  The wave plan ignores it.
    """

    node: int
    include_neighbors: bool = True
    compress: bool = False
    round_index: int | None = None
    on_failure: str | None = None
    cached: QueryRecord | None = None
    decide_include: Callable[[], bool] | None = None
    on_defer: Callable[[], None] | None = None
    after_execute: Callable[[QueryRecord], None] | None = None
    reads: frozenset[int] | None = None


@dataclass(frozen=True)
class WaveStats:
    """Telemetry of one dispatched wave.

    ``prefix_prompt_tokens``/``shared_prompt_tokens`` carry the wave's
    prefix-sharing plan (:mod:`repro.mqo.prefix_sharing`): the prompt tokens
    the planner examined and how many of them a prompt cache serves from a
    batch-mate's prefix.  Both stay 0 on unplanned waves.
    """

    wave_index: int
    num_queries: int
    num_replayed: int
    num_deferred: int
    num_batches: int
    serial_seconds: float
    overlapped_seconds: float
    prefix_prompt_tokens: int = 0
    shared_prompt_tokens: int = 0

    @property
    def speedup(self) -> float:
        """Serial-over-overlapped latency ratio (1.0 when latency is zero)."""
        if self.overlapped_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.overlapped_seconds


@dataclass(frozen=True)
class WaveOutcome:
    """Dispatch result: records in canonical order plus deferral bookkeeping."""

    records: list[QueryRecord]
    deferred: list[int]
    stats: WaveStats


@dataclass
class SchedulerReport:
    """Accumulated wave telemetry across one scheduler's lifetime."""

    waves: list[WaveStats] = field(default_factory=list)

    @property
    def num_waves(self) -> int:
        return len(self.waves)

    @property
    def num_batches(self) -> int:
        return sum(w.num_batches for w in self.waves)

    @property
    def num_queries(self) -> int:
        return sum(w.num_queries for w in self.waves)

    @property
    def prefix_prompt_tokens(self) -> int:
        return sum(w.prefix_prompt_tokens for w in self.waves)

    @property
    def shared_prompt_tokens(self) -> int:
        return sum(w.shared_prompt_tokens for w in self.waves)

    @property
    def serial_seconds(self) -> float:
        return sum(w.serial_seconds for w in self.waves)

    @property
    def overlapped_seconds(self) -> float:
        return sum(w.overlapped_seconds for w in self.waves)

    @property
    def speedup(self) -> float:
        if self.overlapped_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.overlapped_seconds


def _chunks(items: list, size: int | None) -> list[list]:
    if not items:
        return []
    if size is None or size >= len(items):
        return [items]
    return [items[i : i + size] for i in range(0, len(items), size)]


def greedy_pack(
    latencies: list[float], concurrency: int
) -> tuple[list[float], list[tuple[int, float]]]:
    """Virtual packing of one batch: each latency, in canonical order, goes
    to the next-free of ``min(concurrency, len(latencies))`` workers.

    Returns the workers' busy seconds (the batch's makespan is their max)
    and each latency's ``(worker slot, finish time)``.
    """
    workers = [0.0] * min(concurrency, len(latencies))
    placed = []
    for latency in latencies:
        slot = workers.index(min(workers))
        workers[slot] += latency
        placed.append((slot, workers[slot]))
    return workers, placed


class QueryScheduler:
    """Wave dispatcher with batching and (virtual or real) concurrency.

    Parameters
    ----------
    max_batch_size:
        Upper bound on queries per dispatched batch; batches of a wave run
        one after another (the batch is the API-request granularity).
        ``None`` treats the whole wave as one batch.
    max_concurrency:
        Worker count — virtual workers overlapping simulated latency in
        ``"simulated"`` mode, real threads in ``"threads"`` mode.
    mode:
        One of :data:`DISPATCH_MODES`; see the module docstring.
    dispatch:
        One of :data:`DISPATCH_PLANS` — ``"wave"`` barriers (default) or
        ``"dag"`` dependency-driven readiness.  Under ``"dag"`` the
        scheduler keeps a :class:`~repro.runtime.readiness.ReadinessDAG`
        ledger of every dispatch/settle (``self.dag``), virtual workers
        persist across waves, and items with declared ``reads`` start as
        soon as those labels settle.
    fault_injector:
        Optional chaos hook (see :class:`repro.runtime.chaos.
        SchedulerFaultInjector`) consulted before each threads-mode phase-1
        item with ``before_item(wave_index, item_index)``.  It may sleep (a
        worker stall) or raise :class:`WorkerCrashError` (the worker dies
        *before* issuing the LLM call); crashed items are recovered by
        serial re-execution in the merge phase, so no LLM call is ever
        duplicated.  Ignored by simulated dispatch, which has no workers to
        kill.
    prefix_sharing:
        When true, every dependency-free wave is first run through the
        prefix-sharing planner (:func:`repro.mqo.prefix_sharing.
        plan_prefix_batches`): prompts are previewed span-free, batches are
        formed by longest-common-prefix grouping, and the shared prefix
        tokens are credited to the engine ledger as a prompt-cache discount.
        Planning is an **accounting overlay** — execution order, LLM calls,
        records, spans and gross ledger charges are byte-identical to an
        unplanned wave; only batch composition (threads mode), the overlap
        telemetry, the ``shared_prompt_tokens`` stats and the ledger credits
        change.  Budget-guard waves (items with ``decide_include``) skip
        planning: their prompts are decided mid-wave, so no preview exists.
        The most recent plan is exposed as :attr:`last_plan` (``None`` on
        unplanned waves) for callers that account per-request credits, e.g.
        the serving layer's per-tenant books.
    """

    def __init__(
        self,
        max_batch_size: int | None = None,
        max_concurrency: int = 1,
        mode: str = "simulated",
        fault_injector: object | None = None,
        dispatch: str = "wave",
        prefix_sharing: bool = False,
    ):
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1 or None")
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if mode not in DISPATCH_MODES:
            raise ValueError(f"mode must be one of {DISPATCH_MODES}, got {mode!r}")
        if dispatch not in DISPATCH_PLANS:
            raise ValueError(f"dispatch must be one of {DISPATCH_PLANS}, got {dispatch!r}")
        self.max_batch_size = max_batch_size
        self.max_concurrency = max_concurrency
        self.mode = mode
        self.dispatch = dispatch
        self.fault_injector = fault_injector
        self.prefix_sharing = prefix_sharing
        self.last_plan: PrefixPlan | None = None
        self.report = SchedulerReport()
        self._next_wave = 0
        self.dag = None
        # Virtual continuous-batching state for the simulated DAG plan: C
        # persistent worker timelines, per-producer settle times, and the
        # high-water makespan that barrier items wait for.
        self._virtual_workers: list[float] = []
        self._virtual_finish: dict[int, float] = {}
        self._virtual_makespan = 0.0
        if dispatch == "dag":
            from repro.runtime.readiness import ReadinessDAG  # avoid import cycle

            self.dag = ReadinessDAG()
            self._virtual_workers = [0.0] * max_concurrency

    # ------------------------------------------------------------------ waves

    def run_wave(self, engine: "MultiQueryEngine", items: list[WorkItem]) -> WaveOutcome:
        """Dispatch one dependency-free wave and merge it canonically.

        ``items`` is the canonical order: the records list of the outcome
        lines up with it exactly (minus deferred queries), replays included.
        """
        for item in items:
            engine.failure_mode(item.on_failure)
        wave_index = self._next_wave
        self._next_wave += 1
        fresh_items = [item for item in items if item.cached is None]
        num_batches = len(_chunks(list(range(len(fresh_items))), self.max_batch_size))
        ordered_only = any(item.decide_include is not None for item in items)
        plan = None
        if self.prefix_sharing and fresh_items and not ordered_only:
            # Span-free prompt preview: no observer events, no RNG state, no
            # ledger traffic — planning leaves every artifact byte-identical.
            prompts = [
                engine.preview_prompt(
                    item.node,
                    include_neighbors=item.include_neighbors,
                    compress=item.compress,
                )
                for item in fresh_items
            ]
            plan = plan_prefix_batches(prompts, max_batch_size=self.max_batch_size)
            num_batches = plan.num_batches
        self.last_plan = plan
        if engine.observer is not None:
            engine.observer.on_wave_start(wave_index, len(items), num_batches)
        if self.mode == "threads" and not ordered_only:
            outcome = self._dispatch_threads(engine, items, wave_index, num_batches, plan)
        else:
            outcome = self._dispatch_ordered(engine, items, wave_index, num_batches, plan)
        if plan is not None:
            # Deferred queries never reached the LLM, so their planned share
            # is not realized; credit only what actually executed.
            deferred_set = set(outcome.deferred)
            shared = sum(
                plan.shared_by_prompt[i]
                for i, item in enumerate(fresh_items)
                if item.node not in deferred_set
            )
            if engine.ledger is not None and shared:
                engine.ledger.credit_shared(shared)
            outcome = WaveOutcome(
                records=outcome.records,
                deferred=outcome.deferred,
                stats=replace(
                    outcome.stats,
                    prefix_prompt_tokens=plan.report.total_tokens,
                    shared_prompt_tokens=shared,
                ),
            )
            if engine.observer is not None:
                engine.observer.on_prefix_plan(
                    wave_index, plan.report.total_tokens, shared, plan.num_batches
                )
        self.report.waves.append(outcome.stats)
        if engine.observer is not None:
            stats = outcome.stats
            engine.observer.on_wave_end(
                stats.wave_index,
                stats.num_queries,
                stats.num_batches,
                stats.serial_seconds,
                stats.overlapped_seconds,
            )
        return outcome

    # ------------------------------------------------- simulated (canonical)

    def _dispatch_ordered(
        self,
        engine: "MultiQueryEngine",
        items: list[WorkItem],
        wave_index: int,
        num_batches: int,
        plan: PrefixPlan | None = None,
    ) -> WaveOutcome:
        """Canonical-order execution with virtual-worker overlap accounting.

        Bit-identical to a serial run by construction: every side effect
        (LLM call, RNG draw, ledger charge, span, checkpoint flush) happens
        in exactly the order the serial loop would produce it.
        """
        clock = engine.clock
        records: list[QueryRecord] = []
        deferred: list[int] = []
        # (item, virtual latency, produced record or None-when-deferred)
        timeline: list[tuple[WorkItem, float, QueryRecord | None]] = []
        replayed_nodes: list[int] = []
        for item in items:
            started = clock.now if clock is not None else 0.0
            record = execute_item(engine, item)
            if item.cached is not None:
                records.append(record)
                replayed_nodes.append(item.node)
                continue
            timeline.append((item, (clock.now - started) if clock is not None else 0.0, record))
            if record is None:
                deferred.append(item.node)
            else:
                records.append(record)
        if self.dispatch == "dag":
            serial_seconds, overlapped_seconds = self._dag_pack(
                timeline, replayed_nodes, wave_index
            )
        else:
            serial_seconds, overlapped_seconds = self._overlap(
                [latency for _, latency, _ in timeline],
                groups=plan.batches if plan is not None else None,
            )
        replayed = len(replayed_nodes)
        stats = WaveStats(
            wave_index=wave_index,
            num_queries=len(items),
            num_replayed=replayed,
            num_deferred=len(deferred),
            num_batches=num_batches,
            serial_seconds=serial_seconds,
            overlapped_seconds=overlapped_seconds,
        )
        return WaveOutcome(records=records, deferred=deferred, stats=stats)

    def _overlap(
        self, latencies: list[float], groups: tuple[tuple[int, ...], ...] | None = None
    ) -> tuple[float, float]:
        """Virtual makespan of the measured latencies under this config.

        Queries are assigned in canonical order to the next-free of
        ``max_concurrency`` virtual workers, batch by batch (a batch
        barrier models one API request round per batch).  Deterministic:
        no heuristic packing, no wall clock.  ``groups`` (index tuples from
        a prefix-sharing plan) overrides the canonical-order chunking with
        the planner's batch composition — accounting only, execution order
        is untouched.
        """
        serial = sum(latencies)
        if groups is not None:
            batches = [[latencies[i] for i in group] for group in groups]
        else:
            batches = _chunks(latencies, self.max_batch_size)
        overlapped = 0.0
        for batch in batches:
            workers, _ = greedy_pack(batch, self.max_concurrency)
            overlapped += max(workers, default=0.0)
        return serial, overlapped

    def _dag_pack(
        self,
        timeline: list[tuple[WorkItem, float, QueryRecord | None]],
        replayed_nodes: list[int],
        wave_index: int,
    ) -> tuple[float, float]:
        """Virtual dependency-aware packing for the simulated DAG plan.

        Execution already happened in canonical order (so every artifact is
        bit-identical to the wave plan); only the *accounting* changes: the
        ``max_concurrency`` virtual workers persist across waves, and each
        item starts at ``max(worker free, its reads' settle times)`` instead
        of behind a wave/batch barrier.  Items with ``reads=None`` (unknown
        dependencies — relaxation rounds, re-enqueued deferrals, serve
        admissions, budget-guard waves) wait for everything dispatched so
        far, i.e. the pre-wave makespan.  Every dispatch and settle is
        recorded into ``self.dag``.
        """
        base = self._virtual_makespan
        # Same-wave members are never legitimate dependencies (canonically a
        # round's labels publish only after the whole round), so reads
        # resolve against the pre-wave producer snapshot.
        producers = dict(self._virtual_finish)
        for node in replayed_nodes:
            # Replays settle instantly at the wave's admission point.
            self._virtual_finish[int(node)] = base
            producers[int(node)] = base
            if self.dag is not None:
                self.dag.record_dispatch(
                    int(node),
                    wave_index,
                    frozenset(),
                    ready_at=base,
                    dispatched_at=base,
                    blocked_by=None,
                    replayed=True,
                )
                self.dag.record_settle(int(node), base)
        serial = 0.0
        settles: list[tuple[int, float]] = []
        wave_end = base
        for item, latency, record in timeline:
            serial += latency
            if item.reads is None:
                reads: frozenset[int] = frozenset()
                ready, blocked_by, barrier = base, None, True
            else:
                reads = frozenset(int(p) for p in item.reads if int(p) in producers)
                ready, blocked_by, barrier = 0.0, None, False
                for p in sorted(reads):
                    if producers[p] > ready:
                        ready, blocked_by = producers[p], p
            slot = min(
                range(len(self._virtual_workers)),
                key=lambda s: max(self._virtual_workers[s], ready),
            )
            start = max(self._virtual_workers[slot], ready)
            finish = start + latency
            self._virtual_workers[slot] = finish
            wave_end = max(wave_end, finish)
            if record is not None:
                self._virtual_finish[int(item.node)] = finish
                settles.append((int(item.node), finish))
            if self.dag is not None:
                self.dag.record_dispatch(
                    int(item.node),
                    wave_index,
                    reads,
                    ready_at=ready,
                    dispatched_at=start,
                    blocked_by=blocked_by,
                    barrier=barrier,
                )
        if self.dag is not None:
            for node, finish in settles:
                self.dag.record_settle(node, finish)
        overlapped = max(0.0, wave_end - base)
        self._virtual_makespan = max(base, wave_end)
        return serial, overlapped

    # --------------------------------------------------------------- threads

    def _dispatch_threads(
        self,
        engine: "MultiQueryEngine",
        items: list[WorkItem],
        wave_index: int,
        num_batches: int,
        plan: PrefixPlan | None = None,
    ) -> WaveOutcome:
        """Thread-pool phase-1 calls, canonical phase-2 merge.

        With a prefix-sharing ``plan``, batch composition follows the
        planner's LCP groups (so batch-mates share cacheable prefixes at the
        provider); the merge phase is canonical either way, so records and
        ledgers match the unplanned dispatch and the LLM call count is
        identical.
        """
        fresh = [(index, item) for index, item in enumerate(items) if item.cached is None]
        if plan is not None:
            batches = [[fresh[i] for i in group] for group in plan.batches]
        else:
            batches = _chunks(fresh, self.max_batch_size)
        phase1: dict[int, tuple] = {}
        overlapped_seconds = 0.0
        for batch in batches:
            batch_started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=min(self.max_concurrency, len(batch))) as pool:
                futures = {
                    index: pool.submit(
                        self._phase1,
                        engine,
                        item.node,
                        partial(
                            engine.prepare_prompt,
                            item.node,
                            include_neighbors=item.include_neighbors,
                            compress=item.compress,
                        ),
                        wave_index,
                        index,
                    )
                    for index, item in batch
                }
                for index, future in futures.items():
                    phase1[index] = future.result()
            overlapped_seconds += time.perf_counter() - batch_started
        records: list[QueryRecord] = []
        deferred: list[int] = []
        serial_seconds = 0.0
        with engine.span("wave", wave_index=wave_index, queries=len(items)):
            for index, item in enumerate(items):
                record, seconds = merge_item(engine, item, phase1.get(index))
                serial_seconds += seconds
                if record is None:
                    deferred.append(item.node)
                else:
                    records.append(record)
        if self.dag is not None:
            self._record_threads_wave(items, deferred, wave_index, overlapped_seconds)
        stats = WaveStats(
            wave_index=wave_index,
            num_queries=len(items),
            num_replayed=len(items) - len(fresh),
            num_deferred=len(deferred),
            num_batches=num_batches,
            serial_seconds=serial_seconds,
            overlapped_seconds=overlapped_seconds,
        )
        return WaveOutcome(records=records, deferred=deferred, stats=stats)

    def _record_threads_wave(
        self,
        items: list[WorkItem],
        deferred: list[int],
        wave_index: int,
        wave_seconds: float,
    ) -> None:
        """Mirror one threads wave into the readiness ledger.

        The threads wave path only ever carries dependency-free items —
        ``engine.run`` batches and serve admissions declare ``reads ==
        frozenset()``, and boosted rounds take the pipelined executor
        instead — so every item is ready at the wave's admission point and
        settles by the wave's wall-clock end.  Recording keeps the DAG
        invariants (acyclicity, reads-settled-at-dispatch, canonical
        topological order) auditable across all four dispatch legs.
        """
        base = self._virtual_makespan
        end = base + max(0.0, wave_seconds)
        deferred_set = set(deferred)
        settles: list[tuple[int, float]] = []
        for item in items:
            node = int(item.node)
            replayed = item.cached is not None
            reads = (
                frozenset()
                if item.reads is None
                else frozenset(int(p) for p in item.reads if int(p) in self._virtual_finish)
            )
            self.dag.record_dispatch(
                node,
                wave_index,
                reads,
                ready_at=base,
                dispatched_at=base,
                blocked_by=None,
                barrier=item.reads is None,
                replayed=replayed,
            )
            if replayed:
                settles.append((node, base))
            elif node not in deferred_set:
                settles.append((node, end))
        for node, at in settles:
            self.dag.record_settle(node, at)
            self._virtual_finish[node] = at
        self._virtual_makespan = end

    def _phase1(
        self,
        engine: "MultiQueryEngine",
        node: int,
        prepare: Callable[[], tuple],
        wave_index: int,
        index: int,
    ) -> tuple:
        """The parallel-safe slice of one query: prepare its prompt, call the LLM.

        The one worker body of both thread executors.  ``prepare`` returns
        ``(prompt, selected, compressed)``: the wave pool prepares on the
        worker, the pipelined executor hands in the prompt its planner
        thread already rendered.  The node id rides along so a routed engine
        runs its full cascade (entry tier + escalations) here on the worker
        thread; the merge only finalizes the already-aggregated response.  A
        ``fault_injector`` crash fires *before* any work, so a "dead"
        worker's query is lost without ever reaching the LLM.
        """
        started = time.perf_counter()
        try:
            if self.fault_injector is not None:
                self.fault_injector.before_item(wave_index, index)
            prompt, selected, compressed = prepare()
            response, call_retries = engine.call_llm(prompt, node=node)
        except WorkerCrashError as error:
            return ("crashed", error, time.perf_counter() - started)
        except TransientLLMError as error:
            return ("error", error, time.perf_counter() - started)
        return (
            "ok",
            (response, selected, call_retries, compressed),
            time.perf_counter() - started,
        )


# ------------------------------------------------------------ one work item


def execute_item(engine: "MultiQueryEngine", item: WorkItem) -> QueryRecord | None:
    """Run one work item on the canonical serial path.

    Replays a ``cached`` record, else evaluates ``decide_include`` and
    executes the query.  A transient failure of a ``on_failure="raise"``
    item defers it (``on_defer`` fires, ``None`` returns); any other
    failure propagates.  ``after_execute`` sees every fresh record.
    """
    if item.cached is not None:
        engine.observe_replay(item.cached)
        return item.cached
    include = item.decide_include() if item.decide_include is not None else item.include_neighbors
    try:
        record = engine.execute_query(
            item.node,
            include_neighbors=include,
            round_index=item.round_index,
            on_failure=item.on_failure,
            compress=item.compress,
        )
    except TransientLLMError:
        if item.on_failure != "raise":
            raise
        if item.on_defer is not None:
            item.on_defer()
        return None
    if item.after_execute is not None:
        item.after_execute(record)
    return record


def merge_item(
    engine: "MultiQueryEngine",
    item: WorkItem,
    outcome: tuple | None,
    extra_span_attrs: dict | None = None,
) -> tuple[QueryRecord | None, float]:
    """Canonical-order merge of one thread-dispatched item.

    ``outcome`` is the item's :meth:`QueryScheduler._phase1` result, or
    ``None`` for a replayed item.  An ``ok`` call is finalized (with the
    caller's ``extra_span_attrs`` on its ``query`` span); a crashed worker
    died before its LLM call, so the item re-runs through
    :func:`execute_item` without duplicating any call; a failed call is
    deferred, degraded or raised exactly as the serial path would.
    Returns the record (``None`` when deferred) and the item's serial
    seconds: its phase-1 call plus any crash re-execution.
    """
    if outcome is None:
        return execute_item(engine, item), 0.0
    kind, payload, elapsed = outcome
    if kind == "crashed":
        started = time.perf_counter()
        record = execute_item(engine, item)
        return record, elapsed + time.perf_counter() - started
    if kind == "ok":
        response, selected, call_retries, compressed = payload
        record = engine.finalize_prepared(
            item.node,
            response,
            selected,
            include_neighbors=item.include_neighbors,
            round_index=item.round_index,
            call_retries=call_retries,
            extra_span_attrs=extra_span_attrs,
            compressed=compressed,
        )
    else:
        if engine.failure_mode(item.on_failure) == "raise":
            if item.on_failure != "raise":
                raise payload
            if item.on_defer is not None:
                item.on_defer()
            return None, elapsed
        record = engine.degrade_failed_query(
            item.node,
            include_neighbors=item.include_neighbors,
            round_index=item.round_index,
        )
    if item.after_execute is not None:
        item.after_execute(record)
    return record, elapsed


def run_items(
    engine: "MultiQueryEngine", items: list[WorkItem]
) -> tuple[list[QueryRecord], int]:
    """Dispatch ``items`` as one wave, or execute them in order without a scheduler.

    Returns the records in canonical order and how many items deferred.
    Without an engine scheduler no wave telemetry is emitted.
    """
    if engine.scheduler is not None:
        outcome = engine.scheduler.run_wave(engine, items)
        return outcome.records, len(outcome.deferred)
    records = []
    for item in items:
        record = execute_item(engine, item)
        if record is not None:
            records.append(record)
    return records, len(items) - len(records)
