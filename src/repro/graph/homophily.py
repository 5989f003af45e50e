"""Homophily measures for labeled graphs.

The query-boosting strategy leans on the homophily principle [McPherson et
al. 2001]: connected nodes tend to share labels, so a neighbor's (pseudo-)
label is evidence about the query node's label.  Edge homophily lets tests
and the dataset generators verify that synthetic graphs actually carry the
level of homophily each replica is configured for.
"""

from __future__ import annotations

from repro.graph.tag import TextAttributedGraph


def edge_homophily(graph: TextAttributedGraph) -> float:
    """Fraction of edges whose endpoints share a label (0 for empty graphs)."""
    edges = graph.edge_array()
    if edges.shape[0] == 0:
        return 0.0
    same = graph.labels[edges[:, 0]] == graph.labels[edges[:, 1]]
    return float(same.mean())
