"""The engine's selection memo equals an uncached selection at every step.

``MultiQueryEngine.select_neighbors`` memoises each node's selection and
drops it only when a label inside the selector's ``label_support`` is
added.  These properties drive random label adds and restores between
selections on random graphs and compare every memoised selection with a
fresh ``_select_under`` against a copy of the label map.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.tag import TextAttributedGraph
from repro.prompts.builder import PromptBuilder
from repro.runtime.engine import MultiQueryEngine
from repro.selection.base import NeighborSelector, SelectedNeighbor
from repro.selection.registry import make_selector
from repro.text.corpus import NodeText

CLASSES = ["Alpha", "Beta", "Gamma"]


class _ReadsEveryLabel(NeighborSelector):
    """Picks the lowest-id labeled nodes anywhere in the graph.

    Its selection depends on labels outside any neighbourhood, so its
    support is unknown (``None``) and every label add must drop its memo.
    """

    def select(self, graph, node, label_map, max_neighbors, rng):
        chosen = [v for v in range(graph.num_nodes) if v != node and v in label_map]
        return self._attach_labels(chosen[:max_neighbors], label_map)


def _selector(name: str) -> NeighborSelector:
    return _ReadsEveryLabel() if name == "reads-every-label" else make_selector(name)


@st.composite
def _graphs(draw) -> TextAttributedGraph:
    n = draw(st.integers(min_value=2, max_value=24))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    features = np.asarray(
        draw(st.lists(st.floats(-1, 1, width=32), min_size=2 * n, max_size=2 * n)),
        dtype=np.float32,
    ).reshape(n, 2)
    labels = draw(st.lists(st.integers(0, len(CLASSES) - 1), min_size=n, max_size=n))
    return TextAttributedGraph.from_edges(
        num_nodes=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        labels=np.asarray(labels, dtype=np.int64),
        texts=[NodeText(f"t{i}", f"a{i}") for i in range(n)],
        features=features,
        class_names=CLASSES,
    )


def _engine(graph: TextAttributedGraph, selector: NeighborSelector, labeled) -> MultiQueryEngine:
    return MultiQueryEngine(
        graph=graph,
        llm=None,  # selection never calls the LLM
        selector=selector,
        builder=PromptBuilder(CLASSES, "paper", "citation", "Abstract"),
        labeled=np.asarray(labeled, dtype=np.int64),
        max_neighbors=3,
        seed=4,
    )


def _fresh(engine: MultiQueryEngine, node: int) -> list[SelectedNeighbor]:
    return engine._select_under(node, dict(engine.label_map))


@settings(max_examples=150, deadline=None)
@given(
    graph=_graphs(),
    method=st.sampled_from(["1-hop", "2-hop", "sns", "vanilla", "reads-every-label"]),
    data=st.data(),
)
def test_memo_matches_uncached_selection(graph, method, data):
    n = graph.num_nodes
    labeled = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    engine = _engine(graph, _selector(method), sorted(labeled))
    node = st.integers(0, n - 1)
    label = st.integers(0, len(CLASSES) - 1)
    steps = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("select"), node),
                st.tuples(st.just("add"), node, label),
                st.tuples(st.just("restore"), st.dictionaries(node, label, max_size=3)),
            ),
            max_size=40,
        )
    )
    for v in range(n):
        assert engine.select_neighbors(v) == _fresh(engine, v)
    for step in steps:
        if step[0] == "select":
            assert engine.select_neighbors(step[1]) == _fresh(engine, step[1])
        elif step[0] == "add":
            if step[1] not in engine.label_map:
                engine.add_pseudo_label(step[1], step[2])
        else:
            current = dict(engine.label_map)
            engine.restore_pseudo_labels(
                {v: current.get(v, lab) for v, lab in step[1].items()}
            )
    for v in range(n):
        assert engine.select_neighbors(v) == _fresh(engine, v)


def test_label_map_is_read_only(tiny_graph, tiny_split):
    engine = _engine(tiny_graph, make_selector("1-hop"), tiny_split.labeled)
    node = next(v for v in range(tiny_graph.num_nodes) if v not in engine.label_map)
    with pytest.raises(TypeError):
        engine.label_map[node] = 0
    engine.add_pseudo_label(node, 0)
    assert engine.label_map[node] == 0  # a live view of the engine's labels


def test_concurrent_misses_are_all_indexed(tiny_graph, tiny_split):
    """Wave worker threads fill the memo concurrently; every entry they
    store must still be dropped by a later label add in its support."""
    engine = _engine(tiny_graph, make_selector("2-hop"), tiny_split.labeled)
    unlabeled = [v for v in range(tiny_graph.num_nodes) if v not in engine.label_map]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(engine.select_neighbors, v) for v in unlabeled * 2]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for v in unlabeled[::7]:
        engine.add_pseudo_label(v, 0)
    for v in range(tiny_graph.num_nodes):
        assert engine.select_neighbors(v) == _fresh(engine, v)
