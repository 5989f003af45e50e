"""The pipelined planner's indexed walk dispatches what a full walk would.

After each round's determination ``readiness._PipelinedBoostRun._try_eager``
walks every waiting node; each later walk visits only the nodes indexed
under a running member that settled since the walk before.  A node left out
of a walk it belongs to would only lose its eager dispatch — it still runs
in its canonical round, so records stay equal and the end-to-end oracles
cannot see it.  This property wraps ``_try_eager``: after every walk a
check-only walk over all of ``stepper.unexecuted`` re-selects each waiting
node uncached under the walk's view and asserts that none qualifies without
having been dispatched.  Random graphs, the 1-hop, 2-hop and SNS selectors
and random checkpoint-replayed subsets (whose cached settles fill the
overlay inside ``_determine_round``) drive it; every run's records must
equal the serial run's.
"""

from __future__ import annotations

import tempfile
import time
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boosting import QueryBoostingStrategy
from repro.graph.tag import TextAttributedGraph
from repro.io.runs import RunCheckpointer
from repro.llm.interface import LLMClient
from repro.llm.responses import format_category_response
from repro.prompts.builder import PromptBuilder
from repro.runtime.engine import MultiQueryEngine
from repro.runtime.readiness import _PipelinedBoostRun
from repro.runtime.scheduler import QueryScheduler
from repro.selection.registry import make_selector
from repro.text.corpus import NodeText

from tests.test_selection_memo import CLASSES, _graphs


class _PromptHashLLM(LLMClient):
    """Answers the class a hash of the prompt picks, after a pause the hash
    also picks: answers follow the prompt, and workers finish out of order.
    A prompt holding ``slow`` pauses 50 ms instead."""

    def __init__(self, slow: str | None = None):
        super().__init__(name="prompt-hash")
        self.slow = slow

    def _complete(self, prompt: str) -> str:
        digest = zlib.crc32(prompt.encode())
        if self.slow is not None and self.slow in prompt:
            time.sleep(0.05)
        else:
            time.sleep((digest % 4) * 0.001)
        return format_category_response(CLASSES[digest % len(CLASSES)])


def _engine(graph, method, labeled, scheduler=None, slow=None) -> MultiQueryEngine:
    return MultiQueryEngine(
        graph=graph,
        llm=_PromptHashLLM(slow),
        selector=make_selector(method),
        builder=PromptBuilder(CLASSES, "paper", "citation", "Abstract"),
        labeled=np.asarray(sorted(labeled), dtype=np.int64),
        max_neighbors=3,
        seed=4,
        scheduler=scheduler,
    )


def _checked_walks(walks: list[set[int]]):
    """``_try_eager`` followed by the check-only walk; ``walks`` collects
    the eagerly dispatched nodes after each walk of a running round."""
    try_eager = _PipelinedBoostRun._try_eager

    def checked(run):
        try_eager(run)
        missed = _missed(run)
        assert missed == [], f"waiting nodes {missed} qualify but were not dispatched"
        if run.current is not None:
            walks.append(set(run.eager))

    return mock.patch.object(_PipelinedBoostRun, "_try_eager", checked)


def _missed(run: _PipelinedBoostRun) -> list[int]:
    """Waiting nodes that qualify under the current view but were not
    dispatched: what a walk over every waiting node would still send."""
    current = run.current
    if current is None:
        return []
    stepper, engine = run.stepper, run.engine
    unsettled = {m.node for m in current.members if not m.label_known}
    view = {**engine.label_map, **run.overlay}
    missed = []
    for node in stepper.unexecuted:
        if node in current.by_node or node in run.eager:
            continue
        support = engine.label_support(node)
        if support is None or support & unsettled:
            continue
        selected = engine._select_under(node, view)
        if run.strategy._qualifying_count(selected, stepper.gamma1, stepper.gamma2) is not None:
            missed.append(node)
    return missed


@pytest.mark.parametrize("method", ["1-hop", "2-hop", "sns"])
@settings(max_examples=40, deadline=None)
@given(graph=_graphs(), data=st.data())
def test_indexed_walk_misses_nothing(method, graph, data):
    n = graph.num_nodes
    labeled = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2), label="labeled")
    queries = np.asarray([v for v in range(n) if v not in labeled], dtype=np.int64)
    strategy = QueryBoostingStrategy(
        gamma1=data.draw(st.integers(1, 2), label="gamma1"),
        gamma2=data.draw(st.integers(1, 2), label="gamma2"),
    )
    serial = strategy.execute(_engine(graph, method, labeled), queries)
    replayed = data.draw(
        st.sets(st.sampled_from(sorted(int(v) for v in queries))), label="replayed"
    )
    workers = data.draw(st.integers(1, 3), label="workers")
    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=workers, mode="threads", dispatch="dag"
    )
    walks: list[set[int]] = []
    with tempfile.TemporaryDirectory() as tmp:
        checkpointer = RunCheckpointer(Path(tmp) / "partial.json")
        for record in serial.run.records:
            if record.node in replayed:
                checkpointer.append(record)
        with _checked_walks(walks):
            pipelined = strategy.execute(
                _engine(graph, method, labeled, scheduler), queries, checkpointer=checkpointer
            )
    assert walks
    assert pipelined.run.records == serial.run.records
    assert pipelined.rounds == serial.rounds


def test_a_node_blocked_twice_is_revisited():
    """Node 0 reads first-round members 1 and 2.  Member 1 settles at once
    and member 2 50 ms later, so the walk after 1's settle finds 0 blocked
    by 2 and must index it there: 2's settle then dispatches 0 eagerly."""
    graph = TextAttributedGraph.from_edges(
        num_nodes=5,
        edges=np.asarray([[0, 1], [0, 2], [1, 3], [2, 4]], dtype=np.int64),
        labels=np.asarray([0, 1, 2, 0, 1], dtype=np.int64),
        texts=[NodeText("SLOW" if i == 2 else f"t{i}", f"a{i}") for i in range(5)],
        features=np.zeros((5, 2), dtype=np.float32),
        class_names=CLASSES,
    )
    queries = np.asarray([0, 1, 2], dtype=np.int64)
    strategy = QueryBoostingStrategy(gamma1=1, gamma2=2)
    serial = strategy.execute(_engine(graph, "1-hop", {3, 4}), queries)
    assert serial.rounds == [[1, 2], [0]]
    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=2, mode="threads", dispatch="dag"
    )
    walks: list[set[int]] = []
    with _checked_walks(walks):
        pipelined = strategy.execute(
            _engine(graph, "1-hop", {3, 4}, scheduler, slow="SLOW"), queries
        )
    assert pipelined.run.records == serial.run.records
    assert {0} in walks, "node 0 never dispatched into the first round's tail"
