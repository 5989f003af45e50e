"""Simulated LLM for link prediction (paper Sec. VI-J).

Link queries ask whether two nodes are connected.  The model reads the link
prompt's two endpoints plus their known-neighbor titles and scores the pair
by (a) topical similarity of the endpoints' keyword-evidence profiles —
citation/co-purchase graphs are homophilous, so topically close nodes are
likelier to be linked — and (b) context alignment: how well each endpoint's
neighborhood matches the other endpoint's topic, the "neighbor link" cue the
paper's Base configuration adds.  A direct hit (one endpoint appearing among
the other's listed neighbors' titles) is near-conclusive evidence.
"""

from __future__ import annotations

import re

import numpy as np

from repro.llm.interface import LLMClient
from repro.text.vocabulary import ClassVocabulary
from repro.utils.rng import spawn_rng

_ENDPOINT_RE = re.compile(
    r"(?P<role>First|Second) \w+: Title: (?P<title>[^\n]*)\n(?:Abstract|Description): (?P<abstract>[^\n]*)"
)
_NEIGHBOR_LINE_RE = re.compile(r"Neighbor \d+: Title: (?P<title>[^\n]*)")
_ANSWER_RE = re.compile(r"answer\s*:\s*\[\s*['\"](yes|no)['\"]\s*\]", re.IGNORECASE)


def format_link_response(linked: bool) -> str:
    """Canonical Yes/No answer line."""
    return f"Answer: ['{'Yes' if linked else 'No'}']"


def parse_link_response(text: str) -> bool | None:
    """Extract the Yes/No verdict; ``None`` when unparseable."""
    match = _ANSWER_RE.search(text)
    if match is None:
        return None
    return match.group(1).lower() == "yes"


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


class SimulatedLinkLLM(LLMClient):
    """Simulated black-box link predictor.

    Parameters
    ----------
    vocabulary:
        Domain knowledge used to build topical profiles of the texts.
    threshold:
        Decision threshold on the combined score; tuned so that vanilla
        accuracy lands in the paper's 73–88% range on homophilous replicas.
    text_weight, context_weight, direct_hit_bonus, rare_term_weight,
    common_neighbor_weight:
        Relative strengths of the evidence channels.  ``rare_term_weight``
        rewards *shared rare terminology*: two texts using the same words
        the model's domain vocabulary does not know is strong evidence of a
        direct relationship (linked papers share specific jargon).
        ``common_neighbor_weight`` rewards a shared title across the two
        endpoints' listed neighbors — the triadic-closure cue.
    noise_scale:
        Gumbel scale of the per-pair noise (stable per pair and model).
    """

    def __init__(
        self,
        vocabulary: ClassVocabulary,
        name: str = "gpt-3.5-link",
        threshold: float = 0.62,
        text_weight: float = 1.0,
        context_weight: float = 0.25,
        direct_hit_bonus: float = 1.0,
        rare_term_weight: float = 1.2,
        common_neighbor_weight: float = 0.9,
        noise_scale: float = 0.12,
        seed: int = 0,
    ):
        super().__init__(name=name)
        self.vocabulary = vocabulary
        self.threshold = threshold
        self.text_weight = text_weight
        self.context_weight = context_weight
        self.direct_hit_bonus = direct_hit_bonus
        self.rare_term_weight = rare_term_weight
        self.common_neighbor_weight = common_neighbor_weight
        self.noise_scale = noise_scale
        self.seed = seed
        self._threshold_context: float | None = None
        known = set(vocabulary.background_words)
        for words in vocabulary.class_words:
            known.update(words)
        self._known_words = known

    def _profile(self, text: str) -> np.ndarray:
        counts = self.vocabulary.evidence(self.tokenizer.words(text))
        total = counts.sum()
        if total <= 0:
            return np.zeros(self.vocabulary.num_classes)
        return counts / total

    def _rare_terms(self, text: str) -> set[str]:
        """Words outside the model's domain vocabulary (specific jargon)."""
        return {w for w in self.tokenizer.words(text) if w not in self._known_words}

    def score_pair(self, prompt: str) -> float:
        """Combined link-likelihood score for a parsed link prompt."""
        sections = prompt.split("\nTask:\n", maxsplit=1)[0].split("\n\n")
        if len(sections) < 2:
            raise ValueError("link prompt must contain two endpoint sections")
        endpoints = []
        for section in sections[:2]:
            match = _ENDPOINT_RE.search(section)
            if match is None:
                raise ValueError("malformed link-prompt endpoint section")
            neighbor_titles = [m.group("title") for m in _NEIGHBOR_LINE_RE.finditer(section)]
            endpoints.append(
                {
                    "title": match.group("title"),
                    "text": f"{match.group('title')} {match.group('abstract')}",
                    "neighbors": neighbor_titles,
                }
            )
        first, second = endpoints
        p1 = self._profile(first["text"])
        p2 = self._profile(second["text"])
        score = self.text_weight * _cosine(p1, p2)

        ctx1 = self._profile(" ".join(first["neighbors"])) if first["neighbors"] else None
        ctx2 = self._profile(" ".join(second["neighbors"])) if second["neighbors"] else None
        if ctx1 is not None:
            score += self.context_weight * _cosine(ctx1, p2)
        if ctx2 is not None:
            score += self.context_weight * _cosine(ctx2, p1)
        if second["title"] in first["neighbors"] or first["title"] in second["neighbors"]:
            score += self.direct_hit_bonus
        shared_rare = self._rare_terms(first["text"]) & self._rare_terms(second["text"])
        if shared_rare:
            score += self.rare_term_weight * min(len(shared_rare), 2)
        # Triadic closure cue: the endpoints list a common neighbor title.
        common = set(first["neighbors"]) & set(second["neighbors"])
        if common:
            score += self.common_neighbor_weight * min(len(common), 2)

        rng = spawn_rng(self.seed, "link-noise", self.name, first["title"], second["title"])
        score += float(rng.gumbel(0.0, self.noise_scale))
        return score

    @property
    def threshold_context(self) -> float:
        """Decision threshold for prompts that carry neighbor-link context.

        Defaults to the base threshold until calibrated separately; context
        channels shift the score distribution, so a competent judge keeps a
        separate operating point per prompt shape.
        """
        return self._threshold_context if self._threshold_context is not None else self.threshold

    @threshold_context.setter
    def threshold_context(self, value: float) -> None:
        self._threshold_context = value

    def _complete(self, prompt: str) -> str:
        has_context = _NEIGHBOR_LINE_RE.search(prompt) is not None
        threshold = self.threshold_context if has_context else self.threshold
        return format_link_response(self.score_pair(prompt) > threshold)
