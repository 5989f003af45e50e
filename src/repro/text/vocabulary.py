"""Synthetic vocabularies with class-conditional keywords.

Real TAG datasets carry label signal in their node text: a paper about
reinforcement learning uses RL jargon, a diabetes paper uses medical terms.
The synthetic corpora reproduce this by giving every class its own keyword
vocabulary plus a shared background vocabulary.  A node's *clarity* (how much
of its text is drawn from its own class vocabulary) then controls how
predictable its label is from its text alone — the quantity the paper's
saturated/non-saturated distinction rests on.

Words are synthesized from syllables so corpora of any size can be built
offline while remaining pronounceable and, importantly, collision-free across
vocabularies (each word belongs to exactly one vocabulary).  A word's
syllable count is one draw and its onset/nucleus/coda parts one broadcast
draw, equal number for number to drawing each part on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import spawn_rng

_ONSETS = [
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j",
    "k", "kr", "l", "m", "n", "p", "pl", "pr", "qu", "r", "s", "sc", "sh",
    "sl", "sp", "st", "str", "t", "th", "tr", "v", "w", "z",
]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "oa", "ou"]
_CODAS = ["", "b", "ck", "d", "g", "l", "m", "n", "nd", "ng", "nt", "p", "r", "rd", "s", "st", "t", "x"]


class WordFactory:
    """Deterministic generator of unique pseudo-English words.

    Parameters
    ----------
    seed:
        Base seed; two factories with the same seed emit the same words.
    min_syllables, max_syllables:
        Inclusive range of syllables per word.
    """

    def __init__(self, seed: int, min_syllables: int = 2, max_syllables: int = 4):
        if not 1 <= min_syllables <= max_syllables:
            raise ValueError("require 1 <= min_syllables <= max_syllables")
        self._rng = spawn_rng(seed, "word-factory")
        self._seen: set[str] = set()
        self.min_syllables = min_syllables
        self.max_syllables = max_syllables
        #: Exclusive bounds of an ``n``-syllable word's ``3 * n`` part
        #: draws (onset, nucleus, coda per syllable), keyed by ``n``.
        self._part_bounds = {
            n: np.tile([len(_ONSETS), len(_NUCLEI), len(_CODAS)], n)
            for n in range(min_syllables, max_syllables + 1)
        }
        self._part_lists = (_ONSETS, _NUCLEI, _CODAS) * max_syllables

    def make_word(self) -> str:
        """Return a new word not produced by this factory before."""
        rng = self._rng
        for _ in range(1000):
            n = int(rng.integers(self.min_syllables, self.max_syllables + 1))
            parts = rng.integers(self._part_bounds[n]).tolist()
            word = "".join(map(list.__getitem__, self._part_lists, parts))
            if word not in self._seen:
                self._seen.add(word)
                return word
        raise RuntimeError("word factory exhausted; increase syllable range")

    def make_words(self, count: int) -> list[str]:
        """Return ``count`` fresh unique words."""
        return [self.make_word() for _ in range(count)]


@dataclass
class ClassVocabulary:
    """Per-class keyword vocabularies plus a shared background vocabulary.

    Attributes
    ----------
    class_names:
        Human-readable label names (e.g. Cora's ``Case_Based`` ... ``Theory``).
    class_words:
        ``class_words[k]`` is the keyword list of class ``k``.
    background_words:
        Topic-neutral filler words shared by all classes.
    """

    class_names: list[str]
    class_words: list[list[str]]
    background_words: list[str]
    _word_class: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.class_names) != len(self.class_words):
            raise ValueError("class_names and class_words must align")
        self._word_class = {}
        for k, words in enumerate(self.class_words):
            for w in words:
                if w in self._word_class:
                    raise ValueError(f"keyword {w!r} assigned to two classes")
                self._word_class[w] = k
        overlap = set(self.background_words) & set(self._word_class)
        if overlap:
            raise ValueError(f"background words overlap class keywords: {sorted(overlap)[:3]}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def evidence(self, words: list[str]) -> np.ndarray:
        """Count class-keyword occurrences in ``words``.

        Returns a ``(num_classes,)`` float vector of raw keyword counts; this
        is the "semantic comprehension" primitive the simulated LLM builds on.
        """
        counts = [0] * self.num_classes
        word_class = self._word_class
        for w in words:
            k = word_class.get(w)
            if k is not None:
                counts[k] += 1
        return np.array(counts, dtype=float)

    @classmethod
    def build(
        cls,
        class_names: list[str],
        seed: int,
        words_per_class: int = 60,
        background_size: int = 400,
    ) -> "ClassVocabulary":
        """Synthesize a vocabulary with the given shape."""
        if not class_names:
            raise ValueError("need at least one class")
        factory = WordFactory(seed)
        class_words = [factory.make_words(words_per_class) for _ in class_names]
        background = factory.make_words(background_size)
        return cls(list(class_names), class_words, background)
