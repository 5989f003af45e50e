"""What the threads+dag planner costs, and how it fails.

``readiness._PipelinedBoostRun`` must not redo the serial run's work: a walk
whose view is the engine's own label map reuses the engine's memoised
selection, so over a whole run the planner adds at most two selector calls
per eagerly dispatched node (its selection under the round's partial view,
and the determination guard's uncached re-selection).  And a non-transient
error raised on a worker must leave the planner's completion queue, reach
the caller and take every worker thread down with it.
"""

from __future__ import annotations

import queue
import threading
from unittest import mock

import numpy as np
from hypothesis import given, settings

from repro.core.boosting import QueryBoostingStrategy
from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.simulated import SimulatedLLM
from repro.runtime.engine import MultiQueryEngine
from repro.runtime.readiness import EagerSelections, _PipelinedBoostRun
from repro.runtime.scheduler import QueryScheduler
from repro.selection.random_khop import KHopRandomSelector

from tests.test_selection_memo import _engine, _graphs


@settings(max_examples=60, deadline=None)
@given(graph=_graphs())
def test_an_empty_overlay_walk_reuses_the_engine_memo(graph):
    engine = _engine(graph, KHopRandomSelector(1), range(0, graph.num_nodes, 3))
    memo = {v: engine.select_neighbors(v) for v in range(graph.num_nodes)}
    selections = EagerSelections(engine)
    selections.begin({})
    with mock.patch.object(engine, "_select_under", wraps=engine._select_under) as uncached:
        for v in range(graph.num_nodes):
            assert selections.select(v, engine.label_support(v), ()) is memo[v]
    assert uncached.call_count == 0


class _CountingSelector(KHopRandomSelector):
    def __init__(self, hops: int):
        super().__init__(hops)
        self.calls = 0
        self._lock = threading.Lock()

    def select(self, graph, node, label_map, max_neighbors, rng):
        with self._lock:
            self.calls += 1
        return super().select(graph, node, label_map, max_neighbors, rng)


def _engine_on(tiny_tag, tiny_split, tiny_builder, llm, selector, scheduler=None):
    return MultiQueryEngine(
        graph=tiny_tag.graph,
        llm=llm,
        selector=selector,
        builder=tiny_builder,
        labeled=tiny_split.labeled,
        max_neighbors=4,
        seed=9,
        scheduler=scheduler,
    )


def test_selector_calls_stay_within_serial_plus_two_per_eager_node(
    tiny_tag, tiny_split, tiny_builder
):
    queries = np.asarray(tiny_split.queries)
    # γ1 = 1 with no conflict limit, and the selector takes labeled
    # neighbours first: a node qualifies once any neighbour is labeled.  With
    # every answer publishable, each planner selection that the engine's memo
    # cannot serve then dispatches its node, and the bound below is exact.
    strategy = QueryBoostingStrategy(gamma1=1, use_conflict_threshold=False)
    serial_selector = _CountingSelector(1)
    serial = strategy.execute(
        _engine_on(
            tiny_tag, tiny_split, tiny_builder,
            SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), serial_selector,
        ),
        queries,
    )
    selector = _CountingSelector(1)
    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=3, mode="threads", dispatch="dag"
    )
    eager: list[int] = []
    make_item = _PipelinedBoostRun._make_item

    def counted(run, node, selected=None):
        if selected is not None:  # only a walk hands in its selection
            eager.append(node)
        return make_item(run, node, selected)

    with mock.patch.object(_PipelinedBoostRun, "_make_item", counted):
        pipelined = strategy.execute(
            _engine_on(
                tiny_tag, tiny_split, tiny_builder,
                SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), selector,
                scheduler,
            ),
            queries,
        )
    assert pipelined.run.records == serial.run.records
    assert eager, "no node was dispatched eagerly: the bound says nothing"
    assert selector.calls <= serial_selector.calls + 2 * len(eager), (
        f"{selector.calls} selector calls against serial's {serial_selector.calls} "
        f"with {len(eager)} eager dispatches"
    )


class _FailsOnCall(LLMClient):
    """Raises a non-transient ``KeyError`` on its ``fail_on``-th call."""

    def __init__(self, inner: LLMClient, fail_on: int):
        super().__init__(name=f"fails-on-{fail_on}({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.fail_on = fail_on
        self.calls = 0
        self._lock = threading.Lock()

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.fail_on:
            raise KeyError(f"call {call}")
        return self.inner.complete(prompt)


def test_a_worker_error_propagates_and_stops_every_thread(
    tiny_tag, tiny_split, tiny_builder
):
    llm = _FailsOnCall(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), fail_on=7)
    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=2, mode="threads", dispatch="dag"
    )
    engine = _engine_on(
        tiny_tag, tiny_split, tiny_builder, llm, KHopRandomSelector(1), scheduler
    )
    threads_before = threading.active_count()
    raised: list[Exception] = []

    def execute():
        try:
            QueryBoostingStrategy(gamma1=1).execute(engine, np.asarray(tiny_split.queries))
        except Exception as error:  # handed to the test thread
            raised.append(error)

    runner = threading.Thread(target=execute, daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive(), "the run did not return within 10 s"
    assert len(raised) == 1 and isinstance(raised[0], KeyError), raised
    assert llm.calls >= 7
    assert threading.active_count() == threads_before


def test_each_answer_is_parsed_once(tiny_tag, tiny_split, tiny_builder):
    """The label parsed when an answer settles is the one its record keeps."""
    from repro.runtime import engine as engine_module
    from repro.runtime import readiness

    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=2, mode="threads", dispatch="dag"
    )
    engine = _engine_on(
        tiny_tag, tiny_split, tiny_builder,
        SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), KHopRandomSelector(1),
        scheduler,
    )
    with mock.patch.object(
        readiness, "parse_category_response", wraps=readiness.parse_category_response
    ) as at_settle, mock.patch.object(
        engine_module, "parse_category_response", wraps=engine_module.parse_category_response
    ) as at_merge:
        result = QueryBoostingStrategy(gamma1=1).execute(engine, np.asarray(tiny_split.queries))
    records = result.run.records
    assert len(records) == len(tiny_split.queries)
    assert at_settle.call_count + at_merge.call_count == len(records)
    assert at_settle.call_count > 0


class _Replay:
    """A checkpointer stand-in: earlier records to replay, nothing written."""

    def __init__(self, executed):
        self.executed = executed

    def append(self, record):
        pass

    def record_pseudo(self, node, label):
        pass

    def mark_complete(self):
        pass


class _WatchedQueue:
    """The planner's completion queue, asserting the round is incomplete
    whenever the planner blocks on it."""

    def __init__(self, run):
        self.run = run
        self.inner = queue.SimpleQueue()

    def put(self, future):
        self.inner.put(future)

    def get(self):
        members = self.run.current.members
        assert not all(m.arrived for m in members), "waited on a complete round"
        return self.inner.get()

    def get_nowait(self):
        return self.inner.get_nowait()

    def empty(self):
        return self.inner.empty()


def test_a_round_is_finalized_when_its_last_member_arrives(tiny_tag, tiny_split, tiny_builder):
    """Replaying every other round makes whole rounds of replays whose next
    round is dispatched eagerly: finalizing such a round must not wait for
    the next round's answers."""
    queries = np.asarray(tiny_split.queries)
    strategy = QueryBoostingStrategy(gamma1=1, use_conflict_threshold=False)

    def engine(scheduler=None):
        llm = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        return _engine_on(
            tiny_tag, tiny_split, tiny_builder, llm, KHopRandomSelector(1), scheduler
        )

    serial = strategy.execute(engine(), queries)
    replayed_rounds = {node for nodes in serial.rounds[::2] for node in nodes}
    executed = {r.node: r for r in serial.run.records if r.node in replayed_rounds}

    finalized: list[tuple[bool, bool]] = []  # (all replays, eager work in flight)
    run_original = _PipelinedBoostRun.run
    arrive = _PipelinedBoostRun._arrive
    finalize = _PipelinedBoostRun._finalize_round

    def watched_run(run):
        run._completed = _WatchedQueue(run)
        return run_original(run)

    def counted_arrive(run, item):
        arrive(run, item)
        if run.current is not None:
            members = run.current.members
            assert run.current.unarrived == sum(not m.arrived for m in members)

    def checked_finalize(run, plan):
        assert all(m.arrived for m in plan.members)
        finalized.append((all(m.cached is not None for m in plan.members), bool(run._by_future)))
        finalize(run, plan)

    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=3, mode="threads", dispatch="dag"
    )
    with mock.patch.object(_PipelinedBoostRun, "run", watched_run), mock.patch.object(
        _PipelinedBoostRun, "_arrive", counted_arrive
    ), mock.patch.object(_PipelinedBoostRun, "_finalize_round", checked_finalize):
        resumed = strategy.execute(engine(scheduler), queries, checkpointer=_Replay(executed))
    assert resumed.run.records == serial.run.records
    assert len(finalized) == len(resumed.rounds)
    assert (True, True) in finalized, "no replayed round ended with eager work in flight"
