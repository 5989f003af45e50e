"""Neighbor selector interface.

A selector receives the graph, the query node, and the *current* label map —
ground-truth labels of ``V_L`` plus any pseudo-labels added so far by the
query-boosting strategy.  It returns the neighbors whose text will enter the
prompt, each tagged with its label if one is known at selection time.  This
"refresh against the latest label map" is exactly the enrichment step of
Algorithm 2 line 5.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.graph.tag import TextAttributedGraph


@dataclass(frozen=True)
class SelectedNeighbor:
    """One neighbor chosen for a prompt.

    ``label`` is the class index known for this neighbor at selection time
    (gold or pseudo), or ``None`` when unlabeled.
    """

    node: int
    label: int | None


class NeighborSelector(abc.ABC):
    """Strategy interface for choosing prompt neighbors."""

    #: Whether prompts should announce similarity ranking (SNS header suffix).
    similarity_ranked: bool = False

    @abc.abstractmethod
    def select(
        self,
        graph: TextAttributedGraph,
        node: int,
        label_map: dict[int, int],
        max_neighbors: int,
        rng: np.random.Generator,
    ) -> list[SelectedNeighbor]:
        """Choose up to ``max_neighbors`` neighbors for ``node``'s prompt."""

    def label_support(self, graph: TextAttributedGraph, node: int) -> frozenset[int] | None:
        """Every node whose label-map entry can influence ``select(node)``.

        Restricting the label map to this set must leave the selection —
        and hence candidacy stats and the rendered prompt — unchanged.  Two
        consumers rely on it:

        - ``MultiQueryEngine.select_neighbors`` memoises selections and
          drops a node's memo only when a label inside its support is
          added, so an unsound support silently corrupts every run, the
          serial ones included.
        - The readiness DAG (``repro.runtime.readiness``) dispatches a
          next-round query once the labels it *reads* have settled.

        ``None`` means "unknown" (reads everything): the engine then drops
        the node's memo on every label add, and dependency-driven dispatch
        is disabled for the selector, but correctness is kept.
        """
        return None

    @staticmethod
    def _attach_labels(nodes: list[int], label_map: dict[int, int]) -> list[SelectedNeighbor]:
        return [SelectedNeighbor(node=v, label=label_map.get(v)) for v in nodes]


class VanillaSelector(NeighborSelector):
    """Vanilla zero-shot: no neighbor text at all (``N_i = ∅``)."""

    def label_support(self, graph: TextAttributedGraph, node: int) -> frozenset[int]:
        return frozenset()  # reads no labels at all

    def select(
        self,
        graph: TextAttributedGraph,
        node: int,
        label_map: dict[int, int],
        max_neighbors: int,
        rng: np.random.Generator,
    ) -> list[SelectedNeighbor]:
        return []
