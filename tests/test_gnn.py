"""Tests for the GNN substrate (GCN, GraphSAGE, propagation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.gcn import GCNClassifier
from repro.gnn.propagation import mean_adjacency, normalized_adjacency
from repro.gnn.sage import GraphSAGEClassifier
from repro.ml.metrics import accuracy


class TestPropagation:
    def test_normalized_adjacency_rows(self, tiny_graph):
        adj = normalized_adjacency(tiny_graph)
        assert adj.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)
        # Symmetric normalization keeps the matrix symmetric.
        assert abs(adj - adj.T).max() < 1e-12

    def test_self_loops_included(self, tiny_graph):
        adj = normalized_adjacency(tiny_graph, add_self_loops=True)
        assert (adj.diagonal() > 0).all()

    def test_mean_adjacency_rows_sum_to_one(self, tiny_graph):
        adj = mean_adjacency(tiny_graph)
        sums = np.asarray(adj.sum(axis=1)).ravel()
        connected = np.asarray(tiny_graph.degree()) > 0
        assert np.allclose(sums[connected], 1.0)

@pytest.mark.parametrize("model_cls", [GCNClassifier, GraphSAGEClassifier])
class TestGNNClassifiers:
    def test_beats_majority_class(self, model_cls, tiny_graph, tiny_split):
        model = model_cls(hidden_size=32, epochs=120, seed=0)
        model.fit(tiny_graph, tiny_split.labeled)
        preds = model.predict()
        acc = accuracy(tiny_graph.labels[tiny_split.queries], preds[tiny_split.queries])
        majority = max(np.bincount(tiny_graph.labels)) / tiny_graph.num_nodes
        assert acc > majority + 0.1

    def test_proba_rows_sum_to_one(self, model_cls, tiny_graph, tiny_split):
        model = model_cls(hidden_size=16, epochs=30, seed=0)
        model.fit(tiny_graph, tiny_split.labeled)
        p = model.predict_proba()
        assert p.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-8)

    def test_deterministic(self, model_cls, tiny_graph, tiny_split):
        a = model_cls(hidden_size=8, epochs=10, seed=1).fit(tiny_graph, tiny_split.labeled).predict()
        b = model_cls(hidden_size=8, epochs=10, seed=1).fit(tiny_graph, tiny_split.labeled).predict()
        assert np.array_equal(a, b)

    def test_predict_before_fit(self, model_cls):
        with pytest.raises(RuntimeError):
            model_cls().predict()

    def test_empty_labeled_rejected(self, model_cls, tiny_graph):
        with pytest.raises(ValueError):
            model_cls(epochs=1).fit(tiny_graph, np.array([], dtype=np.int64))

    def test_invalid_hyperparams(self, model_cls):
        with pytest.raises(ValueError):
            model_cls(hidden_size=0)
        with pytest.raises(ValueError):
            model_cls(epochs=0)
