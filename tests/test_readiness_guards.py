"""The pipelined DAG run's soundness guards fire on an unsound selector.

``readiness._PipelinedBoostRun`` dispatches a next-round query as soon as
every label in its selector's ``label_support`` has settled.  Two guards
catch a support that leaves out a label the selection really reads: the
eager selection must equal the canonical post-round one, and every eager
node must be a canonical candidate.  Either failure raises a
``RuntimeError`` naming ``label_support``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.boosting import QueryBoostingStrategy
from repro.io.runs import RunCheckpointer
from repro.llm.simulated import SimulatedLLM
from repro.runtime.engine import MultiQueryEngine
from repro.runtime.scheduler import QueryScheduler
from repro.selection.random_khop import KHopRandomSelector


class _SelfOnlySupport(KHopRandomSelector):
    """1-hop selection that claims to read only the node's own label."""

    def label_support(self, graph, node):
        return frozenset({int(node)})


def _engine(tag, split, builder, selector, scheduler=None) -> MultiQueryEngine:
    return MultiQueryEngine(
        graph=tag.graph,
        llm=SimulatedLLM(tag.vocabulary, name="gpt-3.5", seed=5),
        selector=selector,
        builder=builder,
        labeled=split.labeled,
        max_neighbors=4,
        seed=9,
        scheduler=scheduler,
    )


def test_unsound_label_support_is_caught(tiny_tag, tiny_split, tiny_builder, tmp_path):
    graph = tiny_tag.graph
    queries = tiny_split.queries
    strategy = QueryBoostingStrategy(gamma1=1)
    reference = strategy.execute(
        _engine(tiny_tag, tiny_split, tiny_builder, KHopRandomSelector(1)), queries
    )
    first_round = set(reference.rounds[0])
    records = {r.node: r for r in reference.run.records}
    # A later-round query v with two first-round neighbours whose answers
    # publish.  Replaying every first-round record but p2's settles p1 the
    # moment the round starts, while p2 is still in flight: a 1-hop support
    # would hold v back for p2, the self-only one lets v go eagerly with
    # p2 unlabeled, and p2's label then changes v's canonical selection.
    p2 = None
    for v in queries:
        if int(v) in first_round:
            continue
        published = [
            int(p)
            for p in graph.neighbors(int(v))
            if int(p) in first_round and records[int(p)].predicted_label is not None
        ]
        if len(published) >= 2:
            p2 = published[-1]
            break
    assert p2 is not None, "no later-round query with two first-round neighbours"
    checkpointer = RunCheckpointer(tmp_path / "partial.json")
    for node in reference.rounds[0]:
        if node != p2:
            checkpointer.append(records[node])
    scheduler = QueryScheduler(
        max_batch_size=4, max_concurrency=4, mode="threads", dispatch="dag"
    )
    engine = _engine(tiny_tag, tiny_split, tiny_builder, _SelfOnlySupport(1), scheduler)
    with pytest.raises(RuntimeError, match="label_support is unsound"):
        strategy.execute(engine, np.asarray(queries), checkpointer=checkpointer)
