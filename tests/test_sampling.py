"""Tests for k-hop BFS sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.sampling import bfs_hops, k_hop_neighbors, partition_graph
from repro.graph.tag import TextAttributedGraph
from repro.text.corpus import NodeText


@pytest.fixture(scope="module")
def path_graph() -> TextAttributedGraph:
    # 0 - 1 - 2 - 3 - 4 plus a branch 1 - 5
    edges = np.array([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    n = 6
    return TextAttributedGraph.from_edges(
        num_nodes=n,
        edges=edges,
        labels=np.zeros(n, dtype=np.int64),
        texts=[NodeText(f"t{i}", f"a{i}") for i in range(n)],
        features=np.zeros((n, 2), dtype=np.float32),
        class_names=["only"],
    )


class TestBfsHops:
    def test_layers(self, path_graph):
        layers = bfs_hops(path_graph, 0, 3)
        assert list(layers[1]) == [1]
        assert list(layers[2]) == [2, 5]
        assert list(layers[3]) == [3]

    def test_zero_hops(self, path_graph):
        assert bfs_hops(path_graph, 0, 0) == {}

    def test_stops_when_exhausted(self, path_graph):
        layers = bfs_hops(path_graph, 0, 100)
        assert max(layers) == 4  # graph diameter from node 0

    def test_node_never_in_layers(self, path_graph):
        layers = bfs_hops(path_graph, 2, 5)
        for layer in layers.values():
            assert 2 not in layer

    def test_invalid_node(self, path_graph):
        with pytest.raises(ValueError):
            bfs_hops(path_graph, 99, 1)

    def test_negative_hops(self, path_graph):
        with pytest.raises(ValueError):
            bfs_hops(path_graph, 0, -1)


def _reference_bfs_hops(
    graph: TextAttributedGraph, node: int, max_hops: int
) -> dict[int, np.ndarray]:
    """The original set-based BFS: one Python set union per frontier node."""
    visited = {int(node)}
    frontier = np.asarray([node], dtype=np.int64)
    layers: dict[int, np.ndarray] = {}
    for hop in range(1, max_hops + 1):
        if frontier.size == 0:
            break
        candidates: set[int] = set()
        for u in frontier:
            candidates.update(int(v) for v in graph.neighbors(int(u)))
        fresh = sorted(candidates - visited)
        if not fresh:
            break
        layer = np.asarray(fresh, dtype=np.int64)
        layers[hop] = layer
        visited.update(fresh)
        frontier = layer
    return layers


@st.composite
def _graph_and_node(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
        )
    )
    unique = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    edges = np.asarray(unique, dtype=np.int64).reshape(-1, 2)
    graph = TextAttributedGraph.from_edges(
        num_nodes=n,
        edges=edges,
        labels=np.zeros(n, dtype=np.int64),
        texts=[NodeText(f"t{i}", f"a{i}") for i in range(n)],
        features=np.zeros((n, 1), dtype=np.float32),
        class_names=["only"],
    )
    return graph, draw(st.integers(0, n - 1))


class TestBfsOracle:
    @settings(max_examples=200, deadline=None)
    @given(_graph_and_node(), st.integers(min_value=0, max_value=6))
    def test_matches_set_bfs(self, graph_and_node, max_hops):
        graph, node = graph_and_node
        got = bfs_hops(graph, node, max_hops)
        expected = _reference_bfs_hops(graph, node, max_hops)
        assert list(got) == list(expected)
        for hop, layer in expected.items():
            assert got[hop].dtype == layer.dtype
            assert got[hop].tolist() == layer.tolist()


class TestKHop:
    def test_one_hop(self, path_graph):
        assert list(k_hop_neighbors(path_graph, 1, 1)) == [0, 2, 5]

    def test_two_hop_unions_layers(self, path_graph):
        assert list(k_hop_neighbors(path_graph, 0, 2)) == [1, 2, 5]

    def test_isolated_node(self):
        g = TextAttributedGraph.from_edges(
            num_nodes=2,
            edges=np.empty((0, 2), dtype=np.int64),
            labels=np.zeros(2, dtype=np.int64),
            texts=[NodeText("t", "a")] * 2,
            features=np.zeros((2, 1), dtype=np.float32),
            class_names=["only"],
        )
        assert k_hop_neighbors(g, 0, 3).size == 0

    def test_monotone_in_k(self, path_graph):
        for node in range(path_graph.num_nodes):
            prev: set[int] = set()
            for k in range(1, 5):
                current = set(k_hop_neighbors(path_graph, node, k).tolist())
                assert prev <= current
                prev = current


class TestPartitionGraph:
    @pytest.fixture(scope="class")
    def cora(self):
        from repro.experiments.common import load_setup

        return load_setup("cora", num_queries=40, scale=0.15).graph

    def test_one_part_is_trivial(self, path_graph):
        partition = partition_graph(path_graph, 1)
        assert partition.num_parts == 1
        assert partition.assignment.tolist() == [0] * path_graph.num_nodes
        assert partition.cut_edges == 0
        assert partition.cut_fraction == 0.0

    def test_every_node_assigned_exactly_once(self, cora):
        partition = partition_graph(cora, 3)
        assert partition.num_nodes == cora.num_nodes
        assert sorted(
            n for part in range(3) for n in partition.part(part).tolist()
        ) == list(range(cora.num_nodes))

    def test_balance_within_slack(self, cora):
        slack = 0.15
        partition = partition_graph(cora, 4, balance_slack=slack)
        ideal = cora.num_nodes / 4
        for size in partition.sizes():
            assert size <= int(ideal * (1 + slack)) + 1

    def test_deterministic(self, cora):
        a = partition_graph(cora, 4)
        b = partition_graph(cora, 4)
        assert a.assignment.tolist() == b.assignment.tolist()

    def test_cut_stats_consistent(self, cora):
        partition = partition_graph(cora, 2)
        u, v = cora.edge_array().T
        crossing = int((partition.assignment[u] != partition.assignment[v]).sum())
        assert partition.cut_edges == crossing
        assert partition.total_edges == len(u)
        assert 0.0 < partition.cut_fraction < 1.0
        assert partition.same_label_cut_edges <= partition.cut_edges

    def test_homophily_weight_protects_same_label_edges(self, cora):
        neutral = partition_graph(cora, 2, homophily_weight=0.0)
        homophil = partition_graph(cora, 2, homophily_weight=4.0)
        # Same-label edges make up no greater a share of the cut when they
        # are the expensive ones to cut.
        def same_label_share(p):
            return p.same_label_cut_edges / p.cut_edges if p.cut_edges else 0.0

        assert same_label_share(homophil) <= same_label_share(neutral) + 1e-9

    def test_part_of_matches_assignment(self, cora):
        partition = partition_graph(cora, 2)
        for node in range(0, cora.num_nodes, 37):
            assert partition.part_of(node) == int(partition.assignment[node])

    def test_crosses(self, path_graph):
        partition = partition_graph(path_graph, 2)
        u, v = path_graph.edge_array().T
        for uu, vv in zip(u.tolist(), v.tolist()):
            expected = partition.part_of(uu) != partition.part_of(vv)
            assert partition.crosses(uu, vv) == expected

    def test_invalid_num_parts(self, path_graph):
        with pytest.raises(ValueError):
            partition_graph(path_graph, 0)
        with pytest.raises(ValueError):
            partition_graph(path_graph, path_graph.num_nodes + 1)
