"""Link-prediction variants of the two strategies (paper Sec. VI-J).

Link queries predict whether an edge exists between a node pair.  The
adaptations the paper describes:

* **Token pruning** — no category information exists, so text inadequacy of
  a pair comes straight from a surrogate binary classifier's confidence:
  ``D(t_i, t_j) = 1 − max f(x_i ‖ x_j)``.  The top ``τ%`` most-confident
  pairs have their neighbor-link context omitted from the prompt.
* **Query boosting** — the candidate criterion keeps only the link-count
  threshold: ``C = { q : |N_q| >= γ1 }`` (no conflict notion).  Each query
  answered "Yes" adds a (pseudo) edge to the known adjacency, enriching the
  neighbor-link context of later queries.

The evaluated configurations mirror Table X: Vanilla (pair text only), Base
(pair text + neighbor links), w/ boost, w/ prune, and w/ both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.tag import TextAttributedGraph
from repro.llm.link_model import SimulatedLinkLLM, parse_link_response
from repro.ml.linear import LogisticRegression
from repro.prompts.link import LinkEndpoint, LinkPromptBuilder
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class LinkRecord:
    """Outcome of one executed link query."""

    pair: tuple[int, int]
    truth: bool
    predicted: bool | None
    prompt_tokens: int
    completion_tokens: int
    num_context_links: int
    pruned: bool = False
    round_index: int | None = None

    @property
    def correct(self) -> bool:
        return self.predicted is not None and self.predicted == self.truth


@dataclass
class LinkRunResult:
    """Aggregate of a link-prediction run."""

    records: list[LinkRecord] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        if not self.records:
            raise ValueError("no records; accuracy is undefined")
        return sum(r.correct for r in self.records) / len(self.records)

    @property
    def prompt_tokens(self) -> int:
        return sum(r.prompt_tokens for r in self.records)


@dataclass
class LinkQuerySet:
    """Query pairs with ground truth, plus the known (training) adjacency."""

    pairs: np.ndarray
    truths: np.ndarray
    known_adjacency: dict[int, list[int]]

    def __post_init__(self) -> None:
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.truths = np.asarray(self.truths, dtype=bool)
        if self.pairs.shape[0] != self.truths.shape[0]:
            raise ValueError("pairs and truths must align")

    @property
    def num_queries(self) -> int:
        return int(self.pairs.shape[0])


def sample_link_queries(
    graph: TextAttributedGraph, num_queries: int, seed: int = 0
) -> LinkQuerySet:
    """Sample a balanced link query set.

    Half the queries are true edges (removed from the known adjacency so the
    answer is never leaked through the prompt's neighbor-link context), half
    are uniform non-edges.
    """
    if num_queries < 2:
        raise ValueError("num_queries must be >= 2")
    rng = spawn_rng(seed, "link-queries", graph.name)
    edges = graph.edge_array()
    num_pos = min(num_queries // 2, edges.shape[0])
    pos_idx = rng.choice(edges.shape[0], size=num_pos, replace=False)
    positives = edges[pos_idx]
    held_out = {(int(u), int(v)) for u, v in positives}

    num_neg = num_queries - num_pos
    negatives: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(negatives) < num_neg:
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen or graph.has_edge(u, v):
            continue
        seen.add(key)
        negatives.append(key)

    pairs = np.concatenate([positives, np.asarray(negatives, dtype=np.int64)], axis=0)
    truths = np.concatenate([np.ones(num_pos, dtype=bool), np.zeros(num_neg, dtype=bool)])
    order = rng.permutation(pairs.shape[0])

    known: dict[int, list[int]] = {}
    for u, v in edges:
        key = (int(u), int(v))
        if key in held_out:
            continue
        known.setdefault(int(u), []).append(int(v))
        known.setdefault(int(v), []).append(int(u))
    return LinkQuerySet(pairs=pairs[order], truths=truths[order], known_adjacency=known)


class LinkInadequacyScorer:
    """Pair inadequacy ``D(t_i, t_j) = 1 − max f(x_i ‖ x_j)`` (Sec. VI-J).

    The surrogate binary classifier trains on known edges (positives) and
    sampled non-edges (negatives), never on the query pairs' truths.
    """

    def __init__(self, classifier: LogisticRegression | None = None, seed: int = 0):
        self.classifier = classifier or LogisticRegression(learning_rate=0.5, epochs=200)
        self.seed = seed
        self._fitted = False

    @staticmethod
    def _pair_features(graph: TextAttributedGraph, pairs: np.ndarray) -> np.ndarray:
        """Pair encoding ``x_i ‖ x_j`` plus interaction terms.

        The paper writes ``f(x_i ‖ x_j)``; we additionally feed the
        element-wise product and absolute difference, without which a linear
        surrogate cannot express the similarity structure that decides
        whether a pair is confidently classifiable.
        """
        a = graph.features[pairs[:, 0]].astype(np.float64)
        b = graph.features[pairs[:, 1]].astype(np.float64)
        return np.concatenate([a, b, a * b, np.abs(a - b)], axis=1)

    def fit(self, graph: TextAttributedGraph, query_set: LinkQuerySet) -> "LinkInadequacyScorer":
        rng = spawn_rng(self.seed, "link-scorer")
        positives = [
            (u, v) for u, nbrs in query_set.known_adjacency.items() for v in nbrs if u < v
        ]
        if not positives:
            raise ValueError("known adjacency has no edges to train on")
        max_train = min(len(positives), 2000)
        pos_idx = rng.choice(len(positives), size=max_train, replace=False)
        pos = np.asarray([positives[i] for i in pos_idx], dtype=np.int64)
        negatives: list[tuple[int, int]] = []
        while len(negatives) < max_train:
            u = int(rng.integers(graph.num_nodes))
            v = int(rng.integers(graph.num_nodes))
            if u != v and not graph.has_edge(u, v):
                negatives.append((u, v))
        neg = np.asarray(negatives, dtype=np.int64)
        x = self._pair_features(graph, np.concatenate([pos, neg], axis=0))
        y = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
        self.classifier.fit(x, y)
        self._fitted = True
        return self

    def score(self, graph: TextAttributedGraph, pairs: np.ndarray) -> np.ndarray:
        """Inadequacy per pair; low = confident pairs safe to prune."""
        if not self._fitted:
            raise RuntimeError("scorer is not fitted; call fit() first")
        proba = self.classifier.predict_proba(self._pair_features(graph, pairs))
        return 1.0 - proba.max(axis=1)


class LinkPredictionTask:
    """Run the Table X configurations over one link query set."""

    def __init__(
        self,
        graph: TextAttributedGraph,
        llm: SimulatedLinkLLM,
        builder: LinkPromptBuilder,
        query_set: LinkQuerySet,
        max_context_neighbors: int = 4,
        gamma1: int = 3,
        seed: int = 0,
    ):
        if max_context_neighbors < 0:
            raise ValueError("max_context_neighbors must be >= 0")
        self.graph = graph
        self.llm = llm
        self.builder = builder
        self.query_set = query_set
        self.max_context_neighbors = max_context_neighbors
        self.gamma1 = gamma1
        self.seed = seed
        self._calibrated: dict[bool, float] = {}

    def calibrate_threshold(self, sample_size: int = 100, with_context: bool = False) -> float:
        """Tune the model's Yes/No threshold on *training* data only.

        Scores ``sample_size`` known edges and as many random non-edges —
        with or without neighbor-link context, matching the configuration
        about to run — then picks the accuracy-maximizing threshold.
        Mirrors how a deployment would calibrate a judge model on labeled
        examples before spending budget on the query set.
        """
        if sample_size < 2:
            raise ValueError("sample_size must be >= 2")
        rng = spawn_rng(self.seed, "link-threshold", with_context)
        known_edges = [
            (u, v)
            for u, nbrs in self.query_set.known_adjacency.items()
            for v in nbrs
            if u < v
        ]
        if not known_edges:
            raise ValueError("no known edges to calibrate on")
        take = min(sample_size, len(known_edges))
        idx = rng.choice(len(known_edges), size=take, replace=False)
        pairs = [known_edges[i] for i in idx]
        truths = [True] * take
        while len(pairs) < 2 * take:
            u = int(rng.integers(self.graph.num_nodes))
            v = int(rng.integers(self.graph.num_nodes))
            if u != v and not self.graph.has_edge(u, v):
                pairs.append((u, v))
                truths.append(False)
        scores = []
        for u, v in pairs:
            # Exclude the partner from the neighbor context: calibration
            # edges are *known*, but query edges are held out, so leaving
            # the partner in would inflate positive scores only here.
            first = self._endpoint(int(u), self.query_set.known_adjacency, with_context, exclude=int(v))
            second = self._endpoint(int(v), self.query_set.known_adjacency, with_context, exclude=int(u))
            scores.append(self.llm.score_pair(self.builder.build(first, second)))
        scores_arr = np.asarray(scores)
        truths_arr = np.asarray(truths)
        candidates = np.unique(scores_arr)
        best_threshold = float(self.llm.threshold)
        best_accuracy = -1.0
        for t in candidates:
            acc = float(((scores_arr > t) == truths_arr).mean())
            if acc > best_accuracy:
                best_accuracy = acc
                best_threshold = float(t)
        if with_context:
            self.llm.threshold_context = best_threshold
        else:
            self.llm.threshold = best_threshold
        self._calibrated[with_context] = best_threshold
        return best_threshold

    def _apply_calibration(self, with_context: bool) -> None:
        """Ensure the threshold for this prompt shape is calibrated.

        Runs with mixed prompt shapes (pruned pairs go context-free) need
        both operating points, so both are prepared.
        """
        for shape in (False, True) if with_context else (False,):
            if shape not in self._calibrated:
                self.calibrate_threshold(with_context=shape)

    # ----------------------------------------------------------- primitives

    def _endpoint(
        self,
        node: int,
        adjacency: dict[int, list[int]],
        with_context: bool,
        exclude: int | None = None,
    ) -> LinkEndpoint:
        text = self.graph.texts[node]
        titles: tuple[str, ...] = ()
        if with_context:
            nbrs = adjacency.get(node, [])
            if exclude is not None:
                nbrs = [v for v in nbrs if v != exclude]
            # Deterministic prefix take: adjacency lists hold original known
            # edges first and boosting's pseudo-edges appended after, so
            # enrichment adds context into free slots rather than displacing
            # the existing neighbor links at random.
            nbrs = nbrs[: self.max_context_neighbors]
            titles = tuple(self.graph.title(int(v)) for v in nbrs)
        return LinkEndpoint(title=text.title, abstract=text.abstract, neighbor_titles=titles)

    def _execute(
        self,
        pair: tuple[int, int],
        truth: bool,
        adjacency: dict[int, list[int]],
        with_context: bool,
        round_index: int | None = None,
    ) -> LinkRecord:
        u, v = pair
        first = self._endpoint(u, adjacency, with_context)
        second = self._endpoint(v, adjacency, with_context)
        prompt = self.builder.build(first, second)
        response = self.llm.complete(prompt)
        predicted = parse_link_response(response.text)
        return LinkRecord(
            pair=(u, v),
            truth=truth,
            predicted=predicted,
            prompt_tokens=response.prompt_tokens,
            completion_tokens=response.completion_tokens,
            num_context_links=len(first.neighbor_titles) + len(second.neighbor_titles),
            pruned=not with_context,
            round_index=round_index,
        )

    def _copy_adjacency(self) -> dict[int, list[int]]:
        return {k: list(v) for k, v in self.query_set.known_adjacency.items()}

    # --------------------------------------------------------------- configs

    def run_vanilla(self) -> LinkRunResult:
        """Node-pair text alone (no neighbor links)."""
        self._apply_calibration(with_context=False)
        return self._run_plain(with_context=False, pruned=frozenset())

    def run_base(self) -> LinkRunResult:
        """Node-pair text plus known neighbor links."""
        self._apply_calibration(with_context=True)
        return self._run_plain(with_context=True, pruned=frozenset())

    def run_pruned(self, tau: float = 0.2, scorer: LinkInadequacyScorer | None = None) -> LinkRunResult:
        """Omit neighbor links for the ``tau`` most-confident pairs."""
        pruned = self._prune_set(tau, scorer)
        self._apply_calibration(with_context=True)
        return self._run_plain(with_context=True, pruned=pruned)

    def run_boosted(self, pruned: frozenset[int] = frozenset()) -> LinkRunResult:
        """Scheduled execution with pseudo-edge enrichment."""
        self._apply_calibration(with_context=True)
        adjacency = self._copy_adjacency()
        qs = self.query_set
        unexecuted = list(range(qs.num_queries))
        gamma1 = self.gamma1
        result = LinkRunResult()
        round_index = 0
        while unexecuted:
            def context_links(i: int) -> int:
                u, v = int(qs.pairs[i, 0]), int(qs.pairs[i, 1])
                return min(len(adjacency.get(u, [])), self.max_context_neighbors) + min(
                    len(adjacency.get(v, [])), self.max_context_neighbors
                )

            candidates = [i for i in unexecuted if context_links(i) >= gamma1]
            while not candidates:
                if gamma1 > 0:
                    gamma1 -= 1
                    candidates = [i for i in unexecuted if context_links(i) >= gamma1]
                else:
                    candidates = list(unexecuted)
            candidates.sort(key=lambda i: (-context_links(i), i))
            for i in candidates:
                u, v = int(qs.pairs[i, 0]), int(qs.pairs[i, 1])
                record = self._execute(
                    (u, v), bool(qs.truths[i]), adjacency, i not in pruned, round_index
                )
                result.records.append(record)
                if record.predicted:  # a "Yes" becomes a pseudo-edge
                    adjacency.setdefault(u, []).append(v)
                    adjacency.setdefault(v, []).append(u)
            executed = set(candidates)
            unexecuted = [i for i in unexecuted if i not in executed]
            round_index += 1
        return result

    def run_both(self, tau: float = 0.2, scorer: LinkInadequacyScorer | None = None) -> LinkRunResult:
        """Prune ``tau`` of the pairs, then boost the rest."""
        return self.run_boosted(pruned=self._prune_set(tau, scorer))

    # --------------------------------------------------------------- helpers

    def _prune_set(self, tau: float, scorer: LinkInadequacyScorer | None) -> frozenset[int]:
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {tau}")
        scorer = scorer or LinkInadequacyScorer(seed=self.seed).fit(self.graph, self.query_set)
        scores = scorer.score(self.graph, self.query_set.pairs)
        order = np.lexsort((np.arange(scores.shape[0]), scores))
        count = int(round(tau * scores.shape[0]))
        return frozenset(int(i) for i in order[:count])

    def _run_plain(self, with_context: bool, pruned: frozenset[int]) -> LinkRunResult:
        adjacency = self.query_set.known_adjacency
        result = LinkRunResult()
        for i in range(self.query_set.num_queries):
            u, v = int(self.query_set.pairs[i, 0]), int(self.query_set.pairs[i, 1])
            use_context = with_context and i not in pruned
            result.records.append(
                self._execute((u, v), bool(self.query_set.truths[i]), adjacency, use_context)
            )
        return result
