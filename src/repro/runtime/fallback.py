"""Graceful degradation: the one ladder of answer sources.

The paper's budget lever is an ordered list of answer sources, best
fidelity first (:data:`RUNGS`):

1. **Full prompt** — the node text plus its neighbor cues.
2. **Compressed prompt** — the neighbor prompt squeezed by
   :class:`~repro.mqo.compression.PromptCompressor`: the lowest-relevance
   neighbor blocks are dropped to meet a token budget, so most of the
   neighbor evidence survives at a fraction of the cost.  The rung exists
   only on engines that carry a compressor.
3. **Pruned prompt** — the cheap zero-shot (neighbor-free) prompt of
   Sec. V-A; Table IV shows the accuracy cost of dropping neighbor text is
   small.
4. **Surrogate prediction** — the surrogate MLP ``f_θ1`` (the same
   classifier behind the inadequacy measure ``D(t_i)``) at zero token
   cost, or an explicit abstention when the ladder has no surrogate.

Two walks share the list.  The serving layer's budget gate walks it from a
request's admission pin and stops at the first rung it can afford; the
engine walks it when the primary LLM call fails for good (retries
exhausted, circuit open), starting at the pruned rung.  Each rung below
full stamps its name on the :class:`~repro.runtime.results.QueryRecord`
(``degraded_compressed`` / ``degraded_pruned`` / ``degraded_surrogate`` /
``abstained``) so results report exactly how much fidelity a run lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

if TYPE_CHECKING:
    from repro.graph.tag import TextAttributedGraph
    from repro.ml.mlp import MLPClassifier


class SurrogatePredictor(Protocol):
    """Anything that maps node ids to class probabilities without the LLM.

    :class:`~repro.core.inadequacy.TextInadequacyScorer` satisfies this
    directly (its ``predict_proba`` runs the fitted surrogate over the
    scorer's graph); :class:`FeatureSurrogate` adapts a bare classifier.
    """

    def predict_proba(self, nodes: np.ndarray) -> np.ndarray: ...


class FeatureSurrogate:
    """Adapt a fitted classifier over graph features to node-id lookups."""

    def __init__(self, classifier: "MLPClassifier", graph: "TextAttributedGraph"):
        self.classifier = classifier
        self.graph = graph

    def predict_proba(self, nodes: np.ndarray) -> np.ndarray:
        features = self.graph.features[np.asarray(nodes, dtype=np.int64)]
        return self.classifier.predict_proba(features.astype(np.float64))


@dataclass(frozen=True)
class Rung:
    """One answer source of the ladder.

    An LLM rung sends the prompt form ``(include_neighbors, compress)``;
    the surrogate rung (``calls_llm=False``) costs zero tokens.
    """

    name: str
    include_neighbors: bool
    compress: bool
    calls_llm: bool = True


FULL = Rung("full", include_neighbors=True, compress=False)
COMPRESSED = Rung("compressed", include_neighbors=True, compress=True)
PRUNED = Rung("pruned", include_neighbors=False, compress=False)
SURROGATE = Rung("surrogate", include_neighbors=False, compress=False, calls_llm=False)

#: The ladder, best fidelity first.
RUNGS = (FULL, COMPRESSED, PRUNED, SURROGATE)


def rungs_from(start: Rung) -> tuple[Rung, ...]:
    """``start`` and every cheaper rung after it, in ladder order."""
    return RUNGS[RUNGS.index(start) :]


@dataclass
class DegradationLadder:
    """The engine's answer source below the LLM rungs.

    Parameters
    ----------
    surrogate:
        Optional :class:`SurrogatePredictor`; when present, its argmax class
        (with its probability as confidence) answers queries the LLM could
        not.  ``None`` drops straight to abstention.
    """

    surrogate: SurrogatePredictor | None = None

    def surrogate_prediction(self, node: int) -> tuple[int, float]:
        """(label, confidence) from the surrogate for one node."""
        if self.surrogate is None:
            raise ValueError("ladder has no surrogate")
        probs = self.surrogate.predict_proba(np.asarray([node], dtype=np.int64))[0]
        label = int(np.argmax(probs))
        return label, float(probs[label])
