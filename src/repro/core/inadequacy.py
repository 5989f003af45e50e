"""Text-inadequacy measure ``D(t_i)`` (paper Sec. V-A1, Eqs. 8–10).

The measure estimates, without querying the LLM about the node, how likely
the LLM is to misclassify the node from its text alone — i.e. it is a cheap
proxy for ``H(y_i | t_i)``.  It combines two channels:

1. **Ambiguity channel** ``H(p_i)``: the entropy of a surrogate MLP
   classifier's class distribution over the node's encoded text features
   (Eq. 8).  The surrogate is trained on ``V_L``; probabilities for labeled
   nodes come from k-fold cross-validation so they are honest.
2. **Bias channel** ``b_i = p_i · wᵀ`` (Eq. 9): ``w_k`` is the LLM's
   misclassification ratio on class ``k``, measured by zero-shot querying a
   small calibration subset ``V_L^c`` (10 × K nodes by default).  Nodes
   whose probability mass sits on classes the LLM is bad at get larger
   inadequacy.

A linear regression ``g_θ2`` merges the channels by regressing the
calibration nodes' 0/1 misclassification indicator on ``H(p_i) ‖ b_i``
(Eq. 10).  ``D(t_i) = g(H(p_i) ‖ b_i)`` then ranks query nodes: saturated
nodes low, non-saturated nodes high.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.tag import TextAttributedGraph
from repro.llm.interface import LLMClient
from repro.llm.responses import parse_category_response
from repro.ml.crossval import cross_val_proba
from repro.ml.linear import LinearRegression
from repro.ml.metrics import entropy, misclassification_ratios
from repro.ml.mlp import MLPClassifier
from repro.prompts.builder import PromptBuilder
from repro.utils.rng import spawn_rng


@dataclass
class InadequacyChannels:
    """Per-node channel values alongside the combined score."""

    entropy: np.ndarray
    bias: np.ndarray
    score: np.ndarray


class TextInadequacyScorer:
    """Fits ``f_θ1``, ``w`` and ``g_θ2`` and scores query nodes.

    Parameters
    ----------
    surrogate:
        Unfitted :class:`MLPClassifier` template for ``f_θ1`` (a linear MLP
        for small datasets; deeper per the paper's OGB search).
    calibration_per_class:
        Size of ``V_L^c`` as a multiple of the class count (paper: 10).
    cv_folds:
        Folds for the cross-validated probabilities (paper: 3).
    regressor_l2:
        Ridge strength for the combiner ``g_θ2`` (0 = plain least squares).
    seed:
        Controls calibration sampling and fold assignment.
    """

    def __init__(
        self,
        surrogate: MLPClassifier | None = None,
        calibration_per_class: int = 10,
        cv_folds: int = 3,
        regressor_l2: float = 1e-3,
        seed: int = 0,
    ):
        if calibration_per_class < 1:
            raise ValueError("calibration_per_class must be >= 1")
        if cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        self.surrogate = surrogate or MLPClassifier(
            hidden_sizes=(), learning_rate=0.5, weight_decay=1e-3, epochs=800
        )
        self.calibration_per_class = calibration_per_class
        self.cv_folds = cv_folds
        self.regressor_l2 = regressor_l2
        self.seed = seed
        self.final_model_: MLPClassifier | None = None
        self.regressor_: LinearRegression | None = None
        self.bias_ratios_: np.ndarray | None = None
        self.calibration_nodes_: np.ndarray | None = None
        self._graph: TextAttributedGraph | None = None

    # ------------------------------------------------------------------ fit

    def _sample_calibration(self, graph: TextAttributedGraph, labeled: np.ndarray) -> np.ndarray:
        """Random ``V_L^c``: up to ``calibration_per_class`` nodes per class."""
        rng = spawn_rng(self.seed, "calibration-subset")
        chosen: list[np.ndarray] = []
        for c in range(graph.num_classes):
            members = labeled[graph.labels[labeled] == c]
            if members.size == 0:
                continue
            take = min(self.calibration_per_class, members.size)
            chosen.append(rng.choice(members, size=take, replace=False))
        return np.sort(np.concatenate(chosen))

    def _zero_shot_predictions(
        self, graph: TextAttributedGraph, nodes: np.ndarray, llm: LLMClient, builder: PromptBuilder
    ) -> np.ndarray:
        """Query the LLM zero-shot on ``nodes`` (the only LLM cost of fitting)."""
        preds = np.full(nodes.shape[0], -1, dtype=np.int64)
        for i, v in enumerate(nodes):
            text = graph.texts[int(v)]
            response = llm.complete(builder.zero_shot(text.title, text.abstract))
            parsed = parse_category_response(response.text, graph.class_names)
            if parsed is not None:
                preds[i] = parsed
        return preds

    def fit(
        self,
        graph: TextAttributedGraph,
        labeled: np.ndarray,
        llm: LLMClient,
        builder: PromptBuilder,
    ) -> "TextInadequacyScorer":
        """Train the measure from the labeled set and calibration queries."""
        labeled = np.asarray(labeled, dtype=np.int64)
        if labeled.size < self.cv_folds:
            raise ValueError(
                f"need at least {self.cv_folds} labeled nodes, got {labeled.size}"
            )
        self._graph = graph
        x = graph.features[labeled].astype(np.float64)
        y = graph.labels[labeled]
        num_classes = graph.num_classes

        # f_θ1 — one surrogate trained on all of V_L scores query nodes;
        # k out-of-fold fits give honest probabilities for V_L itself.
        self.final_model_ = self.surrogate.clone()
        self.final_model_.seed = int(spawn_rng(self.seed, "inadequacy-final").integers(1 << 31))
        self.final_model_.fit(x, y, num_classes=num_classes)
        cv_probs = cross_val_proba(
            self.surrogate, x, y, num_classes, k=self.cv_folds, seed=self.seed
        )
        proba_by_node = {int(v): cv_probs[i] for i, v in enumerate(labeled)}

        # w — LLM misclassification ratios on the calibration subset.
        calibration = self._sample_calibration(graph, labeled)
        self.calibration_nodes_ = calibration
        predictions = self._zero_shot_predictions(graph, calibration, llm, builder)
        truths = graph.labels[calibration]
        self.bias_ratios_ = misclassification_ratios(truths, predictions, num_classes)

        # g_θ2 — regress the 0/1 miss indicator on (H(p_i) ‖ b_i).
        cal_probs = np.stack([proba_by_node[int(v)] for v in calibration])
        h = entropy(cal_probs, axis=1)
        b = cal_probs @ self.bias_ratios_
        target = (predictions != truths).astype(np.float64)
        self.regressor_ = LinearRegression(l2=self.regressor_l2).fit(
            np.stack([h, b], axis=1), target
        )
        return self

    # ---------------------------------------------------------------- score

    def _check_fitted(self) -> None:
        if self.final_model_ is None or self.regressor_ is None or self.bias_ratios_ is None:
            raise RuntimeError("scorer is not fitted; call fit() first")

    def predict_proba(self, nodes: np.ndarray) -> np.ndarray:
        """Surrogate class probabilities ``p_i`` (final model over all V_L)."""
        self._check_fitted()
        assert self._graph is not None
        x = self._graph.features[np.asarray(nodes, dtype=np.int64)].astype(np.float64)
        return self.final_model_.predict_proba(x)

    def channels(self, nodes: np.ndarray) -> InadequacyChannels:
        """Both channels and the combined ``D(t_i)`` for ``nodes``."""
        self._check_fitted()
        probs = self.predict_proba(nodes)
        h = entropy(probs, axis=1)
        b = probs @ self.bias_ratios_
        score = self.regressor_.predict(np.stack([h, b], axis=1))
        return InadequacyChannels(entropy=h, bias=b, score=score)

    def score(self, nodes: np.ndarray) -> np.ndarray:
        """Text-inadequacy ``D(t_i)`` per node; lower = more saturated."""
        return self.channels(nodes).score
