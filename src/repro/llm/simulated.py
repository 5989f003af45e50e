"""Deterministic simulated black-box LLM for node classification.

The model consumes only the rendered prompt string — it never sees node ids,
ground-truth labels, or generator internals.  Like a real LLM, it "reads"
the prompt: the target's title/abstract, each neighbor block's title (and
abstract, when the costlier configurations include it), any ``Category:``
lines (gold labels or the boosting strategy's pseudo-labels), and the
category list.  Its class scores combine:

* **text evidence** — class-keyword counts in the target text, normalized;
  its pretrained "world knowledge" is the dataset's class vocabulary;
* **neighbor-title votes** — each neighbor block votes with its own
  normalized keyword evidence, scaled by ``neighbor_weight``.  Under
  homophily these help ambiguous targets; for already-clear targets they are
  the noise source the paper observed on Pubmed/Ogbn-Arxiv;
* **neighbor-label votes** — votes of strength ``label_weight`` per
  ``Category:`` line, aggregated *sublinearly* per class (√count): real LLMs
  do not sum repeated cues linearly.  This is the mechanism that makes query
  boosting pay off;
* **attention dilution** — every neighbor block slightly attenuates the
  target-text evidence (factor ``1/(1 + dilution_rate · n_blocks)``),
  reproducing the documented tendency of LLMs to get distracted by long
  contexts.  For saturated nodes this is pure downside — the reason k-hop
  methods can underperform zero-shot on Pubmed/Ogbn-Arxiv;
* **category bias** — a fixed per-class penalty (:class:`BiasProfile`),
  the signal behind the pruning strategy's bias channel;
* **node noise** — Gumbel noise seeded by (model, target title), so each
  model has a stable idiosyncratic reading of every node.

Accuracy, saturation, and all neighbor-text effects *emerge* from this
scoring; nothing is special-cased per experiment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.llm.bias import BiasProfile
from repro.llm.interface import LLMClient
from repro.llm.responses import format_category_response
from repro.text.vocabulary import ClassVocabulary
from repro.utils.rng import spawn_rng

_TARGET_RE = re.compile(
    r"Target (?:\w+): Title: (?P<title>[^\n]*)\n(?:Abstract|Description): (?P<abstract>[^\n]*)"
)
_NEIGHBOR_RE = re.compile(r"Neighbor \w+\d+: \{\{\n(?P<body>.*?)\}\}", re.DOTALL)
_NEIGHBOR_TITLE_RE = re.compile(r"Title: (?P<title>[^\n]*)")
_NEIGHBOR_ABSTRACT_RE = re.compile(r"(?:Abstract|Description): (?P<abstract>[^\n]*)")
_NEIGHBOR_LABEL_RE = re.compile(r"Category: (?P<label>[^\n]*)")
_CATEGORIES_RE = re.compile(r"Categories:\s*\n\[(?P<names>.*?)\]", re.DOTALL)


@dataclass(frozen=True)
class ParsedPrompt:
    """Structured view of a Table III prompt, as the model reads it."""

    target_title: str
    target_abstract: str
    neighbor_texts: tuple[str, ...]
    neighbor_labels: tuple[str | None, ...]
    category_names: tuple[str, ...]


def parse_prompt(prompt: str) -> ParsedPrompt:
    """Parse a node-classification prompt into its structural parts.

    Raises ``ValueError`` when the target section or category list is
    missing, mirroring how a real model cannot answer an ill-formed task.
    """
    target = _TARGET_RE.search(prompt)
    if target is None:
        raise ValueError("prompt has no 'Target <type>: Title: ...' section")
    categories = _CATEGORIES_RE.search(prompt)
    if categories is None:
        raise ValueError("prompt has no 'Categories:' list")
    names = tuple(n.strip() for n in categories.group("names").split(",") if n.strip())
    neighbor_texts: list[str] = []
    neighbor_labels: list[str | None] = []
    for block in _NEIGHBOR_RE.finditer(prompt):
        body = block.group("body")
        title_match = _NEIGHBOR_TITLE_RE.search(body)
        abstract_match = _NEIGHBOR_ABSTRACT_RE.search(body)
        label_match = _NEIGHBOR_LABEL_RE.search(body)
        text = title_match.group("title") if title_match else ""
        if abstract_match:
            text = f"{text} {abstract_match.group('abstract')}"
        neighbor_texts.append(text)
        neighbor_labels.append(label_match.group("label").strip() if label_match else None)
    return ParsedPrompt(
        target_title=target.group("title"),
        target_abstract=target.group("abstract"),
        neighbor_texts=tuple(neighbor_texts),
        neighbor_labels=tuple(neighbor_labels),
        category_names=names,
    )


class SimulatedLLM(LLMClient):
    """Simulated black-box classifier over a known class vocabulary.

    Parameters
    ----------
    vocabulary:
        The model's "pretraining knowledge" of the domain: which keywords
        indicate which class.  Class order must match the label indices used
        by the dataset the model is queried about.
    name:
        Model identity (e.g. ``"gpt-3.5"``); also keys pricing and seeds the
        model's idiosyncratic noise and bias.
    text_weight, neighbor_weight, label_weight:
        Evidence weights described in the module docstring.
    dilution_rate:
        Per-neighbor-block attenuation of the target-text evidence.
    noise_scale:
        Gumbel scale of the per-(model, node) score noise.
    bias:
        Per-class handicap; defaults to a generated profile.
    seed:
        Base seed for noise and the default bias profile.
    """

    def __init__(
        self,
        vocabulary: ClassVocabulary,
        name: str = "gpt-3.5",
        text_weight: float = 1.0,
        neighbor_weight: float = 0.025,
        label_weight: float = 0.080,
        dilution_rate: float = 0.040,
        noise_scale: float = 0.06,
        bias: BiasProfile | None = None,
        seed: int = 0,
    ):
        super().__init__(name=name)
        for pname, value in (
            ("text_weight", text_weight),
            ("neighbor_weight", neighbor_weight),
            ("label_weight", label_weight),
            ("dilution_rate", dilution_rate),
            ("noise_scale", noise_scale),
        ):
            if value < 0:
                raise ValueError(f"{pname} must be >= 0, got {value}")
        self.vocabulary = vocabulary
        self.text_weight = text_weight
        self.neighbor_weight = neighbor_weight
        self.label_weight = label_weight
        self.dilution_rate = dilution_rate
        self.noise_scale = noise_scale
        self.seed = seed
        self.bias = bias or BiasProfile.generate(vocabulary.num_classes, seed, name)
        if self.bias.num_classes != vocabulary.num_classes:
            raise ValueError("bias profile size must match the vocabulary's class count")
        self._class_index = {n: i for i, n in enumerate(vocabulary.class_names)}

    # ---------------------------------------------------------------- score

    def _normalized_evidence(self, text: str) -> np.ndarray:
        """Keyword evidence of ``text`` normalized to a distribution."""
        counts = self.vocabulary.evidence(self.tokenizer.words(text))
        total = counts.sum()
        if total <= 0:
            return np.full(self.vocabulary.num_classes, 1.0 / self.vocabulary.num_classes)
        return counts / total

    def _node_noise(self, target_title: str) -> np.ndarray:
        """Stable per-(model, node) Gumbel noise over classes."""
        rng = spawn_rng(self.seed, "llm-noise", self.name, target_title)
        return rng.gumbel(0.0, self.noise_scale, size=self.vocabulary.num_classes)

    def score_classes(self, parsed: ParsedPrompt) -> np.ndarray:
        """Class scores for a parsed prompt (higher = more likely)."""
        n_blocks = len(parsed.neighbor_texts)
        # Sublinear in block count: distraction grows with context but
        # saturates, so M=10 prompts are not catastrophically diluted.
        dilution = 1.0 / (1.0 + self.dilution_rate * np.sqrt(n_blocks))
        scores = (
            self.text_weight
            * dilution
            * self._normalized_evidence(f"{parsed.target_title} {parsed.target_abstract}")
        )
        for text in parsed.neighbor_texts:
            scores = scores + self.neighbor_weight * self._normalized_evidence(text)
        label_counts = np.zeros(self.vocabulary.num_classes)
        for label in parsed.neighbor_labels:
            if label is None:
                continue
            idx = self._class_index.get(label)
            if idx is not None:
                label_counts[idx] += 1.0
        scores = scores + self.label_weight * np.sqrt(label_counts)
        scores = scores + self.bias.penalties
        scores = scores + self._node_noise(parsed.target_title)
        return scores

    # ------------------------------------------------------------- complete

    def _complete(self, prompt: str) -> str:
        return self._complete_with_confidence(prompt)[0]

    def _complete_with_confidence(self, prompt: str) -> tuple[str, float | None]:
        parsed = parse_prompt(prompt)
        scores = self.score_classes(parsed)
        # The model answers within the categories offered by the prompt; any
        # prompt category outside its vocabulary scores as unknown (-inf).
        known: list[int] = []
        for name in parsed.category_names:
            idx = self._class_index.get(name)
            if idx is not None:
                known.append(idx)
        if not known:
            # None of the offered categories are known: answer the first one,
            # the way real LLMs guess rather than abstain.
            return format_category_response(parsed.category_names[0]), None
        offered = np.asarray(known)
        offered_scores = scores[offered]
        best = int(offered[int(offered_scores.argmax())])
        # Self-reported confidence: softmax top probability over the offered
        # categories — the analogue of the answer token's logprob.
        shifted = np.exp((offered_scores - offered_scores.max()) / max(self.noise_scale, 1e-6))
        confidence = float(shifted.max() / shifted.sum())
        return format_category_response(self.vocabulary.class_names[best]), confidence
