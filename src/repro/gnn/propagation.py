"""Sparse feature propagation operators for the GNN models.

Implements the symmetric-normalized adjacency of Kipf & Welling (2017),
``Â = D̃^{-1/2} (A + I) D̃^{-1/2}``, as a scipy CSR matrix built from the
TAG's adjacency, plus the mean-neighbor operator GraphSAGE uses.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.tag import TextAttributedGraph


def normalized_adjacency(graph: TextAttributedGraph, add_self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric-normalized adjacency ``D^{-1/2} (A [+ I]) D^{-1/2}``."""
    n = graph.num_nodes
    adj = sp.csr_matrix(
        (np.ones(graph.indices.shape[0]), graph.indices, graph.indptr), shape=(n, n)
    )
    if add_self_loops:
        adj = adj + sp.eye(n, format="csr")
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    d = sp.diags(inv_sqrt)
    return (d @ adj @ d).tocsr()


def mean_adjacency(graph: TextAttributedGraph) -> sp.csr_matrix:
    """Row-normalized adjacency (mean over neighbors, no self-loops)."""
    n = graph.num_nodes
    adj = sp.csr_matrix(
        (np.ones(graph.indices.shape[0]), graph.indices, graph.indptr), shape=(n, n)
    )
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return (sp.diags(inv) @ adj).tocsr()
