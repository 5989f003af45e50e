"""Tests for dynamic-node graph extension."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.graph.dynamic import extend_graph
from repro.text.corpus import NodeText


@pytest.fixture()
def extended(tiny_graph):
    n = tiny_graph.num_nodes
    new_texts = [NodeText("new paper one", "abstract one"), NodeText("new paper two", "abstract two")]
    new_labels = np.array([0, 1])
    new_edges = np.array([(n, 0), (n, 1), (n + 1, n), (n + 1, 2)])
    return extend_graph(tiny_graph, new_texts, new_labels, new_edges), tiny_graph


class TestExtendGraph:
    def test_counts(self, extended):
        new, old = extended
        assert new.num_nodes == old.num_nodes + 2
        assert new.num_edges == old.num_edges + 4

    def test_old_structure_preserved(self, extended):
        new, old = extended
        for v in range(0, min(50, old.num_nodes)):
            old_nbrs = set(old.neighbors(v).tolist())
            new_nbrs = set(new.neighbors(v).tolist())
            assert old_nbrs <= new_nbrs  # only additions
            assert new_nbrs - old_nbrs <= {old.num_nodes, old.num_nodes + 1}
        assert np.array_equal(new.labels[: old.num_nodes], old.labels)
        assert new.texts[: old.num_nodes] == old.texts

    def test_new_nodes_wired(self, extended):
        new, old = extended
        n = old.num_nodes
        assert new.has_edge(n, 0) and new.has_edge(n + 1, n)
        assert new.texts[n].title == "new paper one"
        assert new.labels[n + 1] == 1

    def test_zero_features_by_default(self, extended):
        new, old = extended
        assert (new.features[old.num_nodes :] == 0).all()

    def test_original_not_mutated(self, tiny_graph):
        before_edges = tiny_graph.num_edges
        extend_graph(
            tiny_graph,
            [NodeText("t", "a")],
            np.array([0]),
            np.array([(tiny_graph.num_nodes, 0)]),
        )
        assert tiny_graph.num_edges == before_edges

    def test_new_node_classifiable_by_engine(self, extended, tiny_split, tiny_builder, tiny_tag):
        """The paradigm's dynamic-node claim: classify without retraining."""
        from repro.llm.simulated import SimulatedLLM
        from repro.runtime.engine import MultiQueryEngine
        from repro.selection.registry import make_selector

        new, old = extended
        engine = MultiQueryEngine(
            new,
            SimulatedLLM(tiny_tag.vocabulary, seed=5),
            make_selector("1-hop"),
            tiny_builder,
            labeled=tiny_split.labeled,
            max_neighbors=4,
        )
        record = engine.execute_query(old.num_nodes)
        assert record.predicted_label is not None

    def test_validation(self, tiny_graph):
        n = tiny_graph.num_nodes
        with pytest.raises(ValueError, match="no new nodes"):
            extend_graph(tiny_graph, [], np.array([]), np.empty((0, 2)))
        with pytest.raises(ValueError, match="align"):
            extend_graph(tiny_graph, [NodeText("t", "a")], np.array([0, 1]), np.empty((0, 2)))
        with pytest.raises(ValueError, match="out of range"):
            extend_graph(tiny_graph, [NodeText("t", "a")], np.array([99]), np.empty((0, 2)))
        with pytest.raises(ValueError, match="at least one new node"):
            extend_graph(tiny_graph, [NodeText("t", "a")], np.array([0]), np.array([(0, 1)]))

    def test_repeated_new_edge_rejected(self, tiny_graph):
        """``(n, 0)`` and ``(0, n)`` are one undirected edge: listing both
        would count it twice and put each endpoint in the other's list twice."""
        n = tiny_graph.num_nodes
        with pytest.raises(ValueError, match=re.escape(f"edge (0, {n}) appears more than once")):
            extend_graph(tiny_graph, [NodeText("a", "b")], [0], [[n, 0], [0, n], [n, 1]])
        extended = extend_graph(tiny_graph, [NodeText("a", "b")], [0], [[n, 0], [n, 1]])
        assert extended.num_edges == tiny_graph.num_edges + 2
        assert extended.neighbors(n).tolist() == [0, 1]
