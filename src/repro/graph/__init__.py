"""Graph substrate: text-attributed graphs, sampling, synthetic datasets."""

from repro.graph.tag import TextAttributedGraph
from repro.graph.sampling import bfs_hops, k_hop_neighbors
from repro.graph.homophily import edge_homophily
from repro.graph.generators import GeneratorConfig, generate_tag
from repro.graph.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    dataset_names,
    get_spec,
    load_dataset,
)
from repro.graph.splits import LabeledSplit, make_split
from repro.graph.dynamic import extend_graph

__all__ = [
    "TextAttributedGraph",
    "k_hop_neighbors",
    "bfs_hops",
    "edge_homophily",
    "GeneratorConfig",
    "generate_tag",
    "DatasetSpec",
    "DATASET_SPECS",
    "dataset_names",
    "get_spec",
    "load_dataset",
    "LabeledSplit",
    "make_split",
    "extend_graph",
]
