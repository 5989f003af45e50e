"""GNN substrate: the conventional workflow the paper contrasts against.

Fig. 1 of the paper motivates "LLMs as predictors" by comparison with the
GNN pipeline (encode text → aggregate over the graph → classify).  This
package implements that pipeline from scratch on numpy — a two-layer GCN
and a mean-aggregator GraphSAGE — so the motivation comparison and the
paradigm's trade-offs can be exercised in code (see
``examples/gnn_vs_llm.py``).
"""

from repro.gnn.propagation import normalized_adjacency
from repro.gnn.gcn import GCNClassifier
from repro.gnn.sage import GraphSAGEClassifier

__all__ = [
    "normalized_adjacency",
    "GCNClassifier",
    "GraphSAGEClassifier",
]
