"""Neighborhood sampling and partitioning primitives over CSR adjacency.

The sampling half implements the ``N^k(v_i)`` notation of the paper's
Table I: the set of nodes within ``k`` hops of a query node, excluding the
node itself.

The partitioning half (:func:`partition_graph`) is the substrate of the
sharded cluster runtime (:mod:`repro.runtime.cluster`): a deterministic,
homophily-aware balanced min-cut.  Cut edges are exactly the edges whose
neighbor cues cross shard boundaries — and under homophily the *same-label*
cut edges are the expensive ones, because a same-label neighbor's
(pseudo-)label is the strongest evidence a prompt can carry (paper Sec. IV).
The partitioner therefore weights same-label edges heavier during
refinement, preferring to cut hetero-label edges whose loss costs little
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.tag import TextAttributedGraph


def bfs_hops(graph: TextAttributedGraph, node: int, max_hops: int) -> dict[int, np.ndarray]:
    """Breadth-first hop layers around ``node``.

    Returns a dict mapping hop distance ``h`` (1-based) to the sorted array of
    node ids first reached at that distance.  Hops with no new nodes are
    omitted, so the result may have fewer than ``max_hops`` entries.
    """
    if max_hops < 0:
        raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    if not 0 <= node < graph.num_nodes:
        raise ValueError(f"node {node} out of range")
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[node] = True
    reached = indices[indptr[node] : indptr[node + 1]]
    layers: dict[int, np.ndarray] = {}
    for hop in range(1, max_hops + 1):
        fresh = np.unique(reached[~visited[reached]])
        if fresh.size == 0:
            break
        layers[hop] = fresh
        if hop == max_hops:
            break
        visited[fresh] = True
        # Gather every new node's CSR slice in one indexing step.
        starts = indptr[fresh]
        lengths = indptr[fresh + 1] - starts
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        reached = indices[offsets + np.arange(offsets.size)]
    return layers


def k_hop_neighbors(graph: TextAttributedGraph, node: int, k: int) -> np.ndarray:
    """All nodes within ``k`` hops of ``node`` (excluding ``node``), sorted."""
    layers = bfs_hops(graph, node, k)
    if not layers:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(list(layers.values())))


# --------------------------------------------------------------- partitioning


@dataclass(frozen=True)
class GraphPartition:
    """A node-to-shard assignment plus the cut facts the cluster cares about.

    ``assignment[v]`` is the shard of node ``v``.  ``cut_edges`` counts the
    undirected edges whose endpoints live in different shards — each one is
    a neighbor cue that can only arrive through cross-shard gossip.
    ``same_label_cut_edges`` counts the cut edges whose endpoints share a
    label: the homophily-carrying cues whose loss actually costs accuracy.
    """

    assignment: np.ndarray
    num_parts: int
    cut_edges: int
    total_edges: int
    same_label_cut_edges: int

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        assignment = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", assignment)
        if assignment.size and not (
            0 <= assignment.min() and assignment.max() < self.num_parts
        ):
            raise ValueError("assignment references a shard outside [0, num_parts)")

    @property
    def num_nodes(self) -> int:
        return int(self.assignment.size)

    @property
    def cut_fraction(self) -> float:
        """Fraction of edges crossing shard boundaries (0 for edgeless graphs)."""
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    def part_of(self, node: int) -> int:
        return int(self.assignment[int(node)])

    def part(self, index: int) -> np.ndarray:
        """Sorted node ids of shard ``index``."""
        if not 0 <= index < self.num_parts:
            raise ValueError(f"shard {index} out of range")
        return np.flatnonzero(self.assignment == index).astype(np.int64)

    def sizes(self) -> list[int]:
        return [int((self.assignment == p).sum()) for p in range(self.num_parts)]


def _partition_seeds(graph: TextAttributedGraph, num_parts: int) -> list[int]:
    """Deterministic growth seeds: high-degree nodes, label-stratified.

    Seeding each shard inside a different label community biases the BFS
    growth toward homophilous regions, so most same-label edges start out
    shard-internal before refinement even runs.
    """
    degrees = np.asarray(graph.degree(), dtype=np.int64)
    order = sorted(range(graph.num_nodes), key=lambda v: (-int(degrees[v]), v))
    seeds: list[int] = []
    used_labels: set[int] = set()
    for v in order:
        if len(seeds) == num_parts:
            break
        label = int(graph.labels[v])
        if label in used_labels:
            continue
        seeds.append(v)
        used_labels.add(label)
    for v in order:  # fewer labels than shards: fill by degree
        if len(seeds) == num_parts:
            break
        if v not in seeds:
            seeds.append(v)
    return seeds


def _grow_parts(
    graph: TextAttributedGraph, seeds: list[int], capacity: int
) -> np.ndarray:
    """Balanced multi-source BFS: shards claim frontier nodes round-robin."""
    assignment = np.full(graph.num_nodes, -1, dtype=np.int64)
    frontiers: list[list[int]] = []
    for part, seed in enumerate(seeds):
        assignment[seed] = part
        frontiers.append([seed])
    sizes = [1] * len(seeds)
    active = True
    while active:
        active = False
        for part in range(len(seeds)):
            if sizes[part] >= capacity or not frontiers[part]:
                continue
            next_frontier: list[int] = []
            for u in frontiers[part]:
                for v in graph.neighbors(int(u)):
                    v = int(v)
                    if assignment[v] != -1 or sizes[part] >= capacity:
                        continue
                    assignment[v] = part
                    sizes[part] += 1
                    next_frontier.append(v)
            frontiers[part] = sorted(next_frontier)
            if next_frontier:
                active = True
    # Unreached nodes (capacity-starved or disconnected) go to the currently
    # smallest shard, in node order — deterministic and balance-preserving.
    for v in np.flatnonzero(assignment == -1):
        part = min(range(len(seeds)), key=lambda p: (sizes[p], p))
        assignment[int(v)] = part
        sizes[part] += 1
    return assignment


def _edge_weight(graph: TextAttributedGraph, u: int, v: int, homophily_weight: float) -> float:
    if int(graph.labels[u]) == int(graph.labels[v]):
        return 1.0 + homophily_weight
    return 1.0


def _refine(
    graph: TextAttributedGraph,
    assignment: np.ndarray,
    num_parts: int,
    capacity: int,
    floor: int,
    homophily_weight: float,
    passes: int,
) -> np.ndarray:
    """Greedy boundary refinement: move a node to the adjacent shard that
    most reduces the weighted cut, subject to the balance envelope.

    A Kernighan–Lin-style local search without the swap machinery: single
    moves in deterministic node order, repeated for ``passes`` sweeps or
    until a sweep moves nothing.  Same-label edges weigh ``1 +
    homophily_weight``, so the search prefers cutting hetero-label edges.
    """
    sizes = [int((assignment == p).sum()) for p in range(num_parts)]
    for _ in range(passes):
        moved = False
        for v in range(graph.num_nodes):
            home = int(assignment[v])
            if sizes[home] <= floor:
                continue
            weight_to: dict[int, float] = {}
            for u in graph.neighbors(v):
                part = int(assignment[int(u)])
                weight_to[part] = weight_to.get(part, 0.0) + _edge_weight(
                    graph, v, int(u), homophily_weight
                )
            internal = weight_to.get(home, 0.0)
            best_part, best_gain = home, 0.0
            for part in sorted(weight_to):
                if part == home or sizes[part] >= capacity:
                    continue
                gain = weight_to[part] - internal
                if gain > best_gain + 1e-12:
                    best_part, best_gain = part, gain
            if best_part != home:
                assignment[v] = best_part
                sizes[home] -= 1
                sizes[best_part] += 1
                moved = True
        if not moved:
            break
    return assignment


def partition_graph(
    graph: TextAttributedGraph,
    num_parts: int,
    balance_slack: float = 0.15,
    homophily_weight: float = 1.0,
    refinement_passes: int = 4,
) -> GraphPartition:
    """Split ``graph`` into ``num_parts`` balanced, homophily-aware shards.

    Fully deterministic (no RNG, no wall clock): label-stratified
    high-degree seeds, balanced multi-source BFS growth, then greedy
    boundary refinement minimizing the *weighted* cut where a same-label
    edge costs ``1 + homophily_weight`` and a hetero-label edge costs 1.
    Shard sizes stay within ``ceil(n / num_parts * (1 + balance_slack))``
    and never shrink below ``floor(n / num_parts * (1 - balance_slack))``.

    ``num_parts=1`` returns the trivial partition (the unsharded engine's
    view), which the cluster's shards=1 bit-equality contract relies on.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"cannot split {graph.num_nodes} nodes into {num_parts} shards"
        )
    if not 0.0 <= balance_slack < 1.0:
        raise ValueError("balance_slack must be in [0, 1)")
    if homophily_weight < 0.0:
        raise ValueError("homophily_weight must be >= 0")
    if num_parts == 1:
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
    else:
        target = graph.num_nodes / num_parts
        capacity = max(1, int(np.ceil(target * (1.0 + balance_slack))))
        floor = max(1, int(np.floor(target * (1.0 - balance_slack))))
        seeds = _partition_seeds(graph, num_parts)
        assignment = _grow_parts(graph, seeds, capacity)
        assignment = _refine(
            graph,
            assignment,
            num_parts,
            capacity,
            floor,
            homophily_weight,
            refinement_passes,
        )
    edges = graph.edge_array()
    if edges.shape[0]:
        crossing = assignment[edges[:, 0]] != assignment[edges[:, 1]]
        same_label = graph.labels[edges[:, 0]] == graph.labels[edges[:, 1]]
        cut = int(crossing.sum())
        same_label_cut = int((crossing & same_label).sum())
        total = int(edges.shape[0])
    else:
        cut = same_label_cut = total = 0
    return GraphPartition(
        assignment=assignment,
        num_parts=num_parts,
        cut_edges=cut,
        total_edges=total,
        same_label_cut_edges=same_label_cut,
    )
