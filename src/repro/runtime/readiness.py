"""Dependency-driven readiness scheduling for multi-query boosting.

The wave scheduler (``repro.runtime.scheduler``) treats every boosting round
as a hard barrier: round ``N+1`` cannot issue a single LLM call until the
slowest query of round ``N`` has finished.  But Algorithm 2's candidate
criterion is *local*: whether query ``q`` qualifies for the next round — and
what its prompt says — depends only on the label map restricted to the
selector's **label support** of ``q`` (:meth:`repro.selection.base.
NeighborSelector.label_support`).  The moment those specific labels have
settled, ``q``'s candidacy and prompt are fully determined, so ``q`` may
dispatch into the tail of the running round without changing a byte of any
artifact.

Two consumers live here:

:class:`ReadinessDAG`
    An append-only ledger of dispatch/settle events and the label-read
    edges between them.  Both the simulated scheduler's virtual packing
    (``QueryScheduler._dag_pack``) and the threads-mode pipelined executor
    below record into it; the property suite
    (``tests/test_readiness_properties.py``) checks it is acyclic, that
    every read was settled at dispatch time, and that topological replay
    equals the canonical serial order.

:func:`execute_pipelined`
    The threads-mode continuous-batching executor for
    :class:`~repro.core.boosting.QueryBoostingStrategy`.  It drives a
    :class:`~repro.core.boosting.BoostingStepper` — the stepper selects
    each round's candidates and publishes its pseudo-labels — and adds
    only readiness in between.  A planner thread owns all canonical state
    (label map, spans, ledger, checkpoint); worker threads run the wave
    scheduler's phase-1 body on a pre-built prompt, and every member merges
    through the scheduler's per-item merge.  Eagerly dispatched next-round
    queries overlap the current round's stragglers, so peak in-flight
    calls can exceed ``max_concurrency`` — the bench gate asserts exactly
    that — while records, ledgers and checkpoints stay bit-identical to
    the serial run.  The planner blocks on one completion queue that every
    worker future feeds.  After a settle it walks only the waiting nodes
    indexed under a member that just settled, and it keeps each node's
    eager selection (:class:`EagerSelections`) under its labeled support,
    so the selector re-runs only for nodes whose support gained a label;
    while the round's view is the engine's own label map, that selection
    is the engine's memoised one.

Why eager dispatch is sound (the argument the oracle suite re-verifies
empirically): suppose query ``q`` is not a member of the running round
``r`` and every node in ``support(q) ∩ members(r)`` has settled.  Then
``q``'s neighbor selection under the partially-settled view equals its
selection under the full post-round-``r`` view (labels outside the support
cannot change it; labels of round ``r`` non-members cannot exist yet).  If
``q`` qualifies under the *current* thresholds, the round-``r+1`` candidate
set is provably non-empty, so no γ-relaxation fires at round ``r+1``'s
start and ``q`` is canonically a member — its prompt, built now, is the
prompt the serial run would build.  Queries that only qualify after a
relaxation, and re-enqueued deferrals, wait for the full barrier (their
eligibility depends on global state, not a label subset).
"""

from __future__ import annotations

import queue
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.boosting import BoostingResult, BoostingStepper
from repro.llm.responses import UNPARSED, parse_category_response
from repro.runtime.results import QueryRecord
from repro.runtime.scheduler import WaveStats, _chunks, merge_item

if TYPE_CHECKING:
    from collections.abc import Container, Mapping

    from repro.core.boosting import QueryBoostingStrategy
    from repro.runtime.engine import MultiQueryEngine
    from repro.selection.base import SelectedNeighbor


# ----------------------------------------------------------------- the ledger


@dataclass
class DispatchEvent:
    """One query dispatch in readiness order.

    ``reads`` is the set of producer nodes whose settled labels this
    dispatch consumed; ``barrier`` marks items that waited for *everything*
    dispatched so far (no per-label dependency information — budget-guard
    items, relaxation rounds, re-enqueued deferrals, serve admissions).
    Times are seconds on the recording scheduler's virtual (simulated) or
    wall (pipelined) timeline.
    """

    seq: int
    node: int
    wave_index: int
    reads: frozenset[int]
    ready_at: float
    dispatched_at: float
    blocked_by: int | None
    barrier: bool = False
    replayed: bool = False
    settled_at: float | None = None
    settle_op: int | None = None
    dispatch_op: int = 0


class ReadinessDAG:
    """Append-only dispatch/settle ledger with label-read edges.

    Single-writer by design: the simulated scheduler records from the
    dispatching thread, the pipelined executor from its planner thread, so
    no locking is needed.  ``violations`` collects any read of a label that
    had not settled by dispatch time — always empty for a correct
    scheduler, and asserted empty by the property suite.
    """

    def __init__(self):
        self.events: list[DispatchEvent] = []
        self.edges: list[tuple[int, int]] = []  # (producer event idx, consumer event idx)
        self.violations: list[str] = []
        self._op = 0
        self._settled: dict[int, int] = {}  # node -> event index of its settled dispatch
        self._open: dict[int, int] = {}  # node -> latest unsettled event index

    def _next_op(self) -> int:
        self._op += 1
        return self._op

    def record_dispatch(
        self,
        node: int,
        wave_index: int,
        reads: frozenset[int],
        ready_at: float,
        dispatched_at: float,
        blocked_by: int | None,
        barrier: bool = False,
        replayed: bool = False,
    ) -> DispatchEvent:
        event = DispatchEvent(
            seq=len(self.events),
            node=int(node),
            wave_index=int(wave_index),
            reads=frozenset(int(p) for p in reads),
            ready_at=float(ready_at),
            dispatched_at=float(dispatched_at),
            blocked_by=None if blocked_by is None else int(blocked_by),
            barrier=barrier,
            replayed=replayed,
            dispatch_op=self._next_op(),
        )
        for p in sorted(event.reads):
            producer = self._settled.get(p)
            if producer is None:
                self.violations.append(
                    f"node {event.node} (wave {event.wave_index}) read label of "
                    f"node {p} before it settled"
                )
                continue
            self.edges.append((producer, event.seq))
        self.events.append(event)
        self._open[event.node] = event.seq
        return event

    def record_settle(self, node: int, at: float) -> None:
        index = self._open.pop(int(node), None)
        if index is None:
            return  # nothing outstanding (e.g. a deferred item never settles a label)
        event = self.events[index]
        event.settled_at = float(at)
        event.settle_op = self._next_op()
        self._settled[int(node)] = index

    def settled_at(self, node: int) -> float | None:
        """When ``node``'s most recent dispatch settled (``None`` if never)."""
        index = self._settled.get(int(node))
        return None if index is None else self.events[index].settled_at

    # ------------------------------------------------------------ invariants

    def is_acyclic(self) -> bool:
        """Kahn's algorithm over the event graph (True when no cycle)."""
        return len(self.topological_order()) == len(self.events)

    def topological_order(self) -> list[int]:
        """Node order of a stable (min-dispatch-seq first) topological sort.

        Returns fewer entries than ``events`` exactly when the graph has a
        cycle.  For a correct scheduler this equals the canonical dispatch
        order: every edge points from an earlier-settled producer to a
        later dispatch.
        """
        import heapq

        indegree = [0] * len(self.events)
        out: dict[int, list[int]] = {}
        for producer, consumer in self.edges:
            indegree[consumer] += 1
            out.setdefault(producer, []).append(consumer)
        heap = [i for i, d in enumerate(indegree) if d == 0]
        heapq.heapify(heap)
        order: list[int] = []
        while heap:
            index = heapq.heappop(heap)
            order.append(self.events[index].node)
            for consumer in out.get(index, ()):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    heapq.heappush(heap, consumer)
        return order

    def canonical_order(self) -> list[int]:
        return [event.node for event in self.events]

    def reads_settled_at_dispatch(self) -> bool:
        """Every recorded read had a settle op preceding the dispatch op.

        Judged by the producer edges captured *at dispatch time*: a node can
        be re-dispatched later (a deferral re-enqueue), in which case the
        final ``_settled`` map points past the earlier settle that actually
        satisfied the read.
        """
        if self.violations:
            return False
        if len(self.edges) != sum(len(event.reads) for event in self.events):
            return False
        for producer, consumer in self.edges:
            settle_op = self.events[producer].settle_op
            dispatch_op = self.events[consumer].dispatch_op
            if settle_op is None or settle_op > dispatch_op:
                return False
        return True


# --------------------------------------------------- pipelined boosting run


class EagerSelections:
    """A pipelined run's eager selections, kept under their labeled support.

    A node's selection under a label view depends only on the labels of its
    selector support (the engine's own selection memo rests on the same
    rule), so it stays valid while the ``(member, label)`` pairs of the
    support that the view labels are unchanged.  The view of one planner
    walk is the engine's labels overlaid with ``overlay`` (see
    :meth:`begin`).  While the overlay is empty that view *is* the engine's
    label map, so a miss asks :meth:`~repro.runtime.engine.MultiQueryEngine.
    select_neighbors`, whose memo the round's candidate selection has just
    filled; under a non-empty overlay a miss runs the selector uncached over
    the merged map, built on the walk's first such miss.
    """

    def __init__(self, engine: "MultiQueryEngine"):
        self.engine = engine
        self._entries: dict[int, tuple[tuple, list[SelectedNeighbor]]] = {}
        self._overlay: Mapping[int, int] = {}
        self._view: dict[int, int] | None = None
        #: The unsettled support member that blocked the last ``None`` lookup.
        self.blocker: int | None = None

    def begin(self, overlay: Mapping[int, int]) -> None:
        """Open a walk under the engine's labels plus ``overlay``; neither
        may change until the next ``begin``."""
        self._overlay = overlay
        self._view = None

    def select(
        self, node: int, support: frozenset[int], unsettled: Container[int]
    ) -> list[SelectedNeighbor] | None:
        """``node``'s selection under the walk's view, or ``None`` while a
        support member is in ``unsettled`` (its label may still arrive); that
        member is left in :attr:`blocker`."""
        labels, overlay = self.engine.label_map, self._overlay
        key = []
        for member in support:
            if member in unsettled:
                self.blocker = member
                return None
            label = overlay.get(member)
            if label is None:
                label = labels.get(member)
            if label is not None:
                key.append((member, label))
        key = tuple(key)
        entry = self._entries.get(node)
        if entry is not None and entry[0] == key:
            return entry[1]
        if not overlay:
            selected = self.engine.select_neighbors(node)
        else:
            if self._view is None:
                self._view = dict(labels)
                self._view.update(overlay)
            selected = self.engine._select_under(node, self._view)
        self._entries[node] = (key, selected)
        return selected

    def discard(self, node: int) -> None:
        """Forget ``node``: it was dispatched or joined a round."""
        self._entries.pop(node, None)


@dataclass
class _PlannedQuery:
    """Planner-side state of one round member (or eagerly dispatched query)."""

    node: int
    include_neighbors: bool
    selected: "list[SelectedNeighbor]"
    can_defer: bool
    cached: QueryRecord | None = None
    future: Future | None = None
    arrived: bool = False
    outcome: tuple | None = None  # the worker's phase-1 (kind, payload, elapsed)
    label_known: bool = False
    label: int | None = None
    predicted: int | None | object = UNPARSED  # an ``ok`` outcome's parsed label
    ready_at: float = 0.0
    dispatched_at: float = 0.0
    settled_at: float | None = None
    blocked_by: int | None = None


@dataclass
class _RoundPlan:
    """One determined round: canonical member order plus its worker pool.

    ``unarrived`` counts the members whose outcome has not arrived; the
    round is finalized when it reaches zero.
    """

    wave_index: int
    members: list[_PlannedQuery]
    pool: ThreadPoolExecutor | None
    num_batches: int
    by_node: dict[int, _PlannedQuery] = field(default_factory=dict)
    unarrived: int = field(init=False, default=0)

    def __post_init__(self):
        self.by_node = {m.node: m for m in self.members}
        self.unarrived = sum(not m.arrived for m in self.members)


class _PipelinedBoostRun:
    """Planner/worker execution of Algorithm 2 with readiness-DAG dispatch.

    The planner thread (the caller) owns every canonical side effect —
    neighbor selection, prompt rendering, spans, ledger charges, checkpoint
    appends, pseudo-label publication — in exactly the serial order.  The
    round loop itself is a :class:`~repro.core.boosting.BoostingStepper`'s:
    its candidate selection opens each round, its publication closes it,
    and each member merges through the scheduler's per-item merge.
    Workers run the scheduler's phase-1 body on a prompt the planner
    already rendered: the chaos injector's ``before_item`` hook (so
    WorkerStall/WorkerCrash target real DAG workers), then
    ``engine.call_llm``.  See the module docstring for the eager-dispatch
    soundness argument.
    """

    def __init__(
        self,
        strategy: "QueryBoostingStrategy",
        engine: "MultiQueryEngine",
        queries: np.ndarray,
        pruned: frozenset[int],
        checkpointer,
    ):
        self.strategy = strategy
        self.engine = engine
        self.scheduler = engine.scheduler
        self.stepper = BoostingStepper(
            strategy, engine, queries, pruned=pruned, checkpointer=checkpointer
        )
        self._started = time.perf_counter()
        self._wall_high_water = 0.0
        self.current: _RoundPlan | None = None
        self.eager: dict[int, _PlannedQuery] = {}
        self.next_pool: ThreadPoolExecutor | None = None
        self._pools: list[ThreadPoolExecutor] = []
        self._by_future: dict[Future, _PlannedQuery] = {}  # the outstanding futures
        self._completed: queue.SimpleQueue[Future] = queue.SimpleQueue()
        self.overlay: dict[int, int] = {}  # current round's settled publishable labels
        self.overlay_next: dict[int, int] = {}  # eagerly dispatched (next round) settles
        self.settled_nodes: set[int] = set()
        self.selections = EagerSelections(engine)
        self._blocked: dict[int, list[int]] = {}  # unsettled member -> waiting nodes it blocks
        self._woken: list[int] = []  # the nodes the next walk visits
        self._position: dict[int, int] = {}  # node -> its index in the round's unexecuted
        self._dispatch_counts: dict[int, int] = {}  # wave index -> items dispatched

    # ------------------------------------------------------------- utilities

    def _now(self) -> float:
        return time.perf_counter() - self._started

    @property
    def dag(self) -> ReadinessDAG | None:
        return getattr(self.scheduler, "dag", None)

    def _arrive(self, item: _PlannedQuery) -> None:
        """``item``'s outcome (a worker's, or its replayed record) is in."""
        item.arrived = True
        if self.current is not None and item.node in self.current.by_node:
            self.current.unarrived -= 1

    def _note_label(self, item: _PlannedQuery) -> None:
        """A member's planner label state is now known: unblock dependents."""
        self.settled_nodes.add(item.node)
        self._woken.extend(self._blocked.pop(item.node, ()))
        if self.dag is not None:
            self.dag.record_settle(item.node, item.settled_at)
        if item.label is None:
            return
        if self.current is not None and item.node in self.current.by_node:
            self.overlay[item.node] = item.label
        else:
            self.overlay_next[item.node] = item.label

    def _submit(self, item: _PlannedQuery, pool: ThreadPoolExecutor, wave_index: int) -> None:
        engine = self.engine
        if item.include_neighbors:
            prompt = engine._render_prompt(item.node, item.selected)
        else:
            prompt, _ = engine.build_prompt(item.node, include_neighbors=False)
        prepared = (prompt, item.selected, False)
        index = self._dispatch_counts.get(wave_index, 0)
        self._dispatch_counts[wave_index] = index + 1
        item.dispatched_at = self._now()
        item.future = pool.submit(
            self.scheduler._phase1, engine, item.node, lambda: prepared, wave_index, index
        )
        self._by_future[item.future] = item
        item.future.add_done_callback(self._completed.put)

    def _record_dispatch_event(self, item: _PlannedQuery, wave_index: int) -> None:
        if self.dag is None:
            return
        support = self.engine.label_support(item.node)
        if support is None:
            reads: frozenset[int] = frozenset()
            barrier = True
        else:
            reads = frozenset(p for p in support if p in self.settled_nodes)
            barrier = False
        ready = 0.0
        blocked_by = None
        for p in sorted(reads):
            settled = self.current.by_node.get(p) if self.current is not None else None
            if settled is not None and settled.settled_at is not None:
                at = settled.settled_at
            else:
                at = self.dag.settled_at(p)
            if at is not None and at > ready:
                ready, blocked_by = at, p
        item.ready_at = ready
        item.blocked_by = blocked_by
        self.dag.record_dispatch(
            item.node,
            wave_index,
            reads,
            ready_at=ready,
            dispatched_at=item.dispatched_at,
            blocked_by=blocked_by,
            barrier=barrier,
            replayed=item.cached is not None,
        )

    # --------------------------------------------------------- round planning

    def _make_item(
        self, node: int, selected: "list[SelectedNeighbor] | None" = None
    ) -> _PlannedQuery:
        """Planner state for one member; ``selected=None`` selects against
        the engine's own label map (determination time, after the previous
        round published)."""
        stepper = self.stepper
        include = node not in stepper.pruned
        if not include:
            selected = []
        elif selected is None:
            selected = self.engine.select_neighbors(node)
        return _PlannedQuery(
            node=node,
            include_neighbors=include,
            selected=selected,
            can_defer=stepper.can_defer(node),
            cached=stepper.cached.get(node),
        )

    def _settle_cached(self, item: _PlannedQuery) -> None:
        self._arrive(item)
        item.label_known = True
        item.settled_at = self._now()
        record = item.cached
        item.label = (
            record.predicted_label if self.strategy._publishable(record) else None
        )
        self._note_label(item)

    def _determine_round(self) -> None:
        """Canonical Step 1: the stepper's candidate selection."""
        stepper, engine = self.stepper, self.engine
        candidates, _relaxed = stepper.select_candidates()

        wave_index = self.scheduler._next_wave
        self.scheduler._next_wave += 1
        # The previous round's settled labels are published now (the engine
        # already did, at its finalize); promote the eager overlay so the
        # *new* current round's settles feed the next eager horizon.
        self.overlay = self.overlay_next
        self.overlay_next = {}
        eager, self.eager = self.eager, {}
        pool, self.next_pool = self.next_pool, None
        # γ1/γ2 and the engine's labels may have changed: the round's first
        # walk visits every waiting node.
        self._blocked = {}
        self._woken = list(stepper.unexecuted)
        self._position = {node: i for i, node in enumerate(stepper.unexecuted)}

        members: list[_PlannedQuery] = []
        for node, _count in candidates:
            self.selections.discard(node)
            item = eager.pop(node, None)
            if item is not None:
                if item.can_defer != stepper.can_defer(node):
                    raise RuntimeError(
                        f"eager dispatch of node {node} drifted from canonical "
                        "deferral state"
                    )
                if item.include_neighbors and item.cached is None:
                    # Uncached on purpose: the memo trusts label_support,
                    # which is exactly what this guard tests.
                    canonical = engine._select_under(node, engine.label_map)
                    if [(sn.node, sn.label) for sn in item.selected] != [
                        (sn.node, sn.label) for sn in canonical
                    ]:
                        raise RuntimeError(
                            f"eager selection for node {node} diverged from the "
                            "canonical post-round view: the selector's "
                            "label_support is unsound"
                        )
            else:
                item = self._make_item(node)
            members.append(item)
        if eager:
            raise RuntimeError(
                "eagerly dispatched nodes missing from the canonical candidate "
                f"set: {sorted(eager)} — the selector's label_support is unsound"
            )

        fresh = sum(1 for m in members if m.cached is None)
        num_batches = len(_chunks(list(range(fresh)), self.scheduler.max_batch_size))
        if engine.observer is not None:
            engine.observer.on_wave_start(wave_index, len(members), num_batches)
        self.current = _RoundPlan(
            wave_index=wave_index, members=members, pool=pool, num_batches=num_batches
        )
        for item in members:
            if item.arrived:
                continue  # eagerly dispatched and possibly already settled
            if item.cached is not None:
                self._record_dispatch_event(item, wave_index)
                self._settle_cached(item)
                continue
            if item.future is None:
                if self.current.pool is None:
                    self.current.pool = ThreadPoolExecutor(
                        max_workers=self.scheduler.max_concurrency
                    )
                    self._pools.append(self.current.pool)
                self._submit(item, self.current.pool, wave_index)
                self._record_dispatch_event(item, wave_index)

    def _try_eager(self) -> None:
        """Dispatch next-round queries whose read labels have all settled.

        The round's first walk visits every waiting node; a node a running
        member blocks is indexed under that member, and each later walk
        visits only the nodes whose blocker settled since the last one, in
        ``stepper.unexecuted`` order, so it dispatches what a walk over
        every node would.  Within a round a node's view changes only when a
        running member of its support settles (engine labels change only at
        publication), so a node no member blocks keeps its selection — and
        its failure to qualify — until the next determination.  A visited
        node re-runs its selector only when a label in its support arrived
        (:class:`EagerSelections`).
        """
        current = self.current
        if current is None or not self._woken:
            return
        strategy, stepper, engine = self.strategy, self.stepper, self.engine
        selections = self.selections
        nodes, self._woken = self._woken, []
        nodes.sort(key=self._position.__getitem__)
        selections.begin(self.overlay)
        unsettled = {m.node for m in current.members if not m.label_known}
        for node in nodes:
            if node in current.by_node or node in self.eager:
                continue
            support = engine.label_support(node)
            if support is None:
                continue  # unknown read set: wait for the barrier
            selected = selections.select(node, support, unsettled)
            if selected is None:
                # A running member's label may still change it.
                self._blocked.setdefault(selections.blocker, []).append(node)
                continue
            if strategy._qualifying_count(selected, stepper.gamma1, stepper.gamma2) is None:
                continue
            selections.discard(node)
            item = self._make_item(node, selected)
            self.eager[node] = item
            wave_index = current.wave_index + 1
            if item.cached is not None:
                item.dispatched_at = self._now()
                self._record_dispatch_event(item, wave_index)
                self._settle_cached(item)
                continue
            if self.next_pool is None:
                self.next_pool = ThreadPoolExecutor(
                    max_workers=self.scheduler.max_concurrency
                )
                self._pools.append(self.next_pool)
            self._submit(item, self.next_pool, wave_index)
            self._record_dispatch_event(item, wave_index)

    # ------------------------------------------------------------- settlement

    def _settle(self, item: _PlannedQuery) -> None:
        item.outcome = item.future.result()
        self._arrive(item)
        kind, payload, _elapsed = item.outcome
        if kind == "ok":
            response = payload[0]
            item.predicted = parse_category_response(
                response.text, self.engine.graph.class_names
            )
            confidence = getattr(response, "confidence", None)
            item.settled_at = self._now()
            item.label_known = True
            if self.strategy._publishable_answer(item.predicted, confidence):
                item.label = item.predicted
            self._note_label(item)
        elif kind == "error" and item.can_defer:
            # The deferral is decided now (the canonical deferral count and
            # observer callback land later, at this item's finalize slot):
            # dependents need to know no label is coming from this round.
            item.settled_at = self._now()
            item.label_known = True
            self._note_label(item)
        # "crashed" and non-deferrable "error" resolve at finalize: the
        # degradation ladder / serial re-execution decides their label.

    # --------------------------------------------------------------- finalize

    def _resolve_at_finalize(self, item: _PlannedQuery, record: QueryRecord | None) -> None:
        if item.label_known:
            return
        item.settled_at = self._now()
        item.label_known = True
        if record is not None and self.strategy._publishable(record):
            item.label = record.predicted_label
        self._note_label(item)

    def _finalize_round(self, plan: _RoundPlan) -> None:
        """Canonical merge, spans, publication and bookkeeping for one round.

        Each member merges through the wave scheduler's per-item merge —
        same span structure (``round`` > ``wave`` > condensed ``query``
        spans), same ledger/checkpoint order — plus the additive ``dag_*``
        readiness attributes on each batched query span (trace schema v3).
        The stepper then publishes the round.
        """
        stepper, engine = self.stepper, self.engine
        round_index = len(stepper.rounds)
        round_records: list[QueryRecord] = []
        round_deferred = 0
        replayed = 0
        serial_seconds = 0.0
        with engine.span(
            "round", round_index=round_index, candidates=len(plan.members)
        ):
            with engine.span(
                "wave",
                wave_index=plan.wave_index,
                queries=len(plan.members),
                dag_pipelined=True,
            ):
                for member in plan.members:
                    record, seconds = merge_item(
                        engine,
                        stepper.work_item(member.node, round_index),
                        member.outcome,
                        extra_span_attrs=self._readiness_attrs(member),
                        predicted=member.predicted,
                    )
                    serial_seconds += seconds
                    if member.cached is not None:
                        replayed += 1
                    if record is None:
                        round_deferred += 1
                    else:
                        round_records.append(record)
                    self._resolve_at_finalize(member, record)
        wave_end = self._now()
        overlapped = max(0.0, wave_end - self._wall_high_water)
        self._wall_high_water = max(self._wall_high_water, wave_end)
        stats = WaveStats(
            wave_index=plan.wave_index,
            num_queries=len(plan.members),
            num_replayed=replayed,
            num_deferred=round_deferred,
            num_batches=plan.num_batches,
            serial_seconds=serial_seconds,
            overlapped_seconds=overlapped,
        )
        self.scheduler.report.waves.append(stats)
        if engine.observer is not None:
            engine.observer.on_wave_end(
                stats.wave_index,
                stats.num_queries,
                stats.num_batches,
                stats.serial_seconds,
                stats.overlapped_seconds,
            )
        stepper.publish_round(round_records, round_deferred)
        if plan.pool is not None:
            plan.pool.shutdown(wait=True)

    @staticmethod
    def _readiness_attrs(item: _PlannedQuery) -> dict:
        attrs = {
            "dag_ready": round(item.ready_at, 6),
            "dag_dispatched": round(item.dispatched_at, 6),
            "dag_settled": round(item.settled_at or item.dispatched_at, 6),
        }
        if item.blocked_by is not None:
            attrs["dag_blocked_by"] = item.blocked_by
        return attrs

    # -------------------------------------------------------------- main loop

    def run(self) -> BoostingResult:
        completed = self._completed
        try:
            while self.stepper.unexecuted or self.current is not None:
                if self.current is None:
                    self._determine_round()
                    self._try_eager()
                if self.current.unarrived == 0:
                    # Finalized before waiting on anything: the last member
                    # may have been a replay while eager work is in flight.
                    plan, self.current = self.current, None
                    self._finalize_round(plan)
                    continue
                # An unarrived member's future is outstanding.
                done = [completed.get()]
                while not completed.empty():
                    done.append(completed.get_nowait())
                for future in done:
                    self._settle(self._by_future.pop(future))
                self._try_eager()
        finally:
            for pool in self._pools:
                pool.shutdown(wait=True, cancel_futures=True)
        return self.stepper.finish()


def execute_pipelined(
    strategy: "QueryBoostingStrategy",
    engine: "MultiQueryEngine",
    queries: np.ndarray,
    pruned: frozenset[int] | set[int] = frozenset(),
    checkpointer=None,
) -> BoostingResult:
    """Run Algorithm 2 with dependency-driven (DAG) thread dispatch.

    Drop-in for :meth:`QueryBoostingStrategy.execute` when the engine's
    scheduler has ``dispatch="dag"`` and ``mode="threads"``: records,
    rounds, ledgers and checkpoints are bit-identical to the serial run
    (the differential oracle in ``tests/equivalence.py`` asserts it), while
    next-round queries overlap the current round's stragglers.
    """
    return _PipelinedBoostRun(
        strategy, engine, queries, frozenset(pruned), checkpointer
    ).run()
