"""Tests for homophily measures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.homophily import edge_homophily
from repro.graph.tag import TextAttributedGraph
from repro.text.corpus import NodeText


def labeled_graph(labels, edges) -> TextAttributedGraph:
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    return TextAttributedGraph.from_edges(
        num_nodes=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        labels=labels,
        texts=[NodeText(f"t{i}", f"a{i}") for i in range(n)],
        features=np.zeros((n, 1), dtype=np.float32),
        class_names=[f"c{i}" for i in range(int(labels.max()) + 1)],
    )


class TestEdgeHomophily:
    def test_fully_homophilous(self):
        g = labeled_graph([0, 0, 0], [(0, 1), (1, 2)])
        assert edge_homophily(g) == 1.0

    def test_fully_heterophilous(self):
        g = labeled_graph([0, 1, 0], [(0, 1), (1, 2)])
        assert edge_homophily(g) == 0.0

    def test_mixed(self):
        g = labeled_graph([0, 0, 1], [(0, 1), (1, 2)])
        assert edge_homophily(g) == pytest.approx(0.5)

    def test_empty_graph(self):
        g = labeled_graph([0, 1], [])
        assert edge_homophily(g) == 0.0


class TestGeneratorHomophilyHonored:
    def test_generated_graph_respects_config(self, tiny_graph, tiny_config):
        measured = edge_homophily(tiny_graph)
        # Same-class edges also arise by chance in the cross-class branch, so
        # measured homophily sits at or slightly above the configured level.
        assert measured >= tiny_config.homophily - 0.05
        assert measured <= tiny_config.homophily + 0.15
