"""Tests for the TextAttributedGraph container and CSR invariants."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.tag import TextAttributedGraph
from repro.text.corpus import NodeText


def make_graph(num_nodes: int, edges) -> TextAttributedGraph:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return TextAttributedGraph.from_edges(
        num_nodes=num_nodes,
        edges=edges,
        labels=np.zeros(num_nodes, dtype=np.int64),
        texts=[NodeText(title=f"t{i}", abstract=f"a{i}") for i in range(num_nodes)],
        features=np.zeros((num_nodes, 3), dtype=np.float32),
        class_names=["only"],
    )


class TestFromEdges:
    def test_symmetric_adjacency(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [0, 2]
        assert list(g.neighbors(2)) == [1]
        assert list(g.neighbors(3)) == []

    def test_counts(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_degree_vector(self):
        g = make_graph(4, [(0, 1), (1, 2)])
        assert list(g.degree()) == [1, 2, 1, 0]
        assert g.degree(1) == 2

    def test_has_edge(self):
        g = make_graph(3, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_edge_array_roundtrip(self):
        edges = [(0, 1), (1, 3), (2, 3)]
        g = make_graph(4, edges)
        assert sorted(map(tuple, g.edge_array())) == sorted(edges)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="[Ss]elf-loop"):
            make_graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_graph(3, [(0, 5)])

    @pytest.mark.parametrize(
        "edges, repeated",
        [([(0, 1), (0, 1)], "(0, 1)"), ([(2, 1), (0, 2), (1, 2)], "(1, 2)"), ([(3, 0), (0, 3)], "(0, 3)")],
    )
    def test_rejects_repeated_edge(self, edges, repeated):
        """Either orientation of an edge counts: ``(u, v)`` and ``(v, u)`` repeat."""
        with pytest.raises(ValueError, match=re.escape(f"edge {repeated} appears more than once")):
            make_graph(4, edges)

    def test_empty_graph(self):
        g = make_graph(2, np.empty((0, 2)))
        assert g.num_edges == 0
        assert list(g.neighbors(0)) == []


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            TextAttributedGraph(
                indptr=np.array([0, 0]),
                indices=np.array([], dtype=np.int64),
                labels=np.zeros(2, dtype=np.int64),
                texts=[NodeText("t", "a")] * 2,
                features=np.zeros((2, 1), dtype=np.float32),
                class_names=["only"],
            )

    def test_misaligned_texts(self):
        with pytest.raises(ValueError, match="texts"):
            TextAttributedGraph(
                indptr=np.array([0, 0, 0]),
                indices=np.array([], dtype=np.int64),
                labels=np.zeros(2, dtype=np.int64),
                texts=[NodeText("t", "a")],
                features=np.zeros((2, 1), dtype=np.float32),
                class_names=["only"],
            )

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            TextAttributedGraph(
                indptr=np.array([0, 0]),
                indices=np.array([], dtype=np.int64),
                labels=np.array([5]),
                texts=[NodeText("t", "a")],
                features=np.zeros((1, 1), dtype=np.float32),
                class_names=["only"],
            )


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda p: (min(p), max(p))
            ),
            max_size=20,
        )
    )
    edges = [(u, v) for u, v in pairs if u != v]
    return n, edges


class TestCSRProperties:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csr_invariants(self, data):
        n, edges = data
        g = make_graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        # indptr monotone, covers indices
        assert g.indptr[0] == 0 and g.indptr[-1] == len(g.indices)
        assert (np.diff(g.indptr) >= 0).all()
        # neighbor lists sorted, symmetric, no self-loops
        for v in range(n):
            nbrs = g.neighbors(v)
            assert (np.diff(nbrs) > 0).all() if nbrs.size > 1 else True
            assert v not in nbrs
            for u in nbrs:
                assert v in g.neighbors(int(u))
        # edge count preserved
        assert g.num_edges == len(edges)
