"""Synthesis of node text (titles and abstracts) for synthetic TAGs.

Each node's text is a mixture of three word sources:

* its **own class keywords**, with mixing weight proportional to the node's
  *clarity* — the knob that makes a node saturated (text alone suffices) or
  non-saturated;
* **confuser keywords** from one other class, which create genuinely
  ambiguous nodes (the hard cases where neighbor information helps);
* **background words**, topic-neutral filler that pads the text to a
  realistic length (and realistic token cost).

Titles are short and denser in keywords than abstracts, matching how the
paper's prompt templates use neighbor *titles* as cheap-but-informative cues.

A text is drawn as an index array into one flat word table
(:attr:`TextSynthesizer.words`): the own, confuser and background draws
index the table and the index array is shuffled.  This draws the same
numbers in the same order as building and shuffling a per-slot word list,
so every replica's texts stay byte for byte what they were.  The replica
generator keeps those indices as its encoder's word ids
(:class:`repro.text.encoders.WordIdCorpus`), so the features are counted
without splitting any text into words.  The graph then keeps the same corpus
as its node text: :class:`WordIdTexts` is a sequence of :class:`NodeText`
that joins a node's words only when the node is read, and a title-only read
joins only the title.  The store memoises nothing, so it stays one copy of
the ids; an engine keeps the few texts it re-reads within one run.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.text.vocabulary import ClassVocabulary

if TYPE_CHECKING:
    from array import array

    from repro.text.encoders import WordIdCorpus


@dataclass(frozen=True)
class NodeText:
    """Text attribute of one node: a title and an abstract."""

    title: str
    abstract: str

    @property
    def full(self) -> str:
        return f"{self.title}. {self.abstract}"


class WordIdTexts(Sequence[NodeText]):
    """Every node's text, held as the word ids of one corpus.

    Document ``i`` of ``corpus`` (added with its title and abstract apart,
    :meth:`WordIdCorpus.add`) is node ``i``'s text.  ``texts[i]`` joins its
    words into a :class:`NodeText` equal to the one the words would have
    made as strings; :meth:`title` joins the title only.  Equal to any
    sequence of equal :class:`NodeText`.
    """

    def __init__(self, corpus: "WordIdCorpus"):
        self.corpus = corpus

    def __len__(self) -> int:
        return self.corpus.n_docs

    def _join(self, ids: "array", start: int, end: int) -> str:
        return " ".join(map(self.corpus.words.__getitem__, ids[start:end]))

    def _span(self, index: int) -> tuple["array", int, int, int]:
        index, n = operator.index(index), len(self)
        if not -n <= index < n:
            raise IndexError(f"node {index} out of range for {n} texts")
        return self.corpus.span(index % n)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        ids, start, split, end = self._span(index)
        return NodeText(title=self._join(ids, start, split), abstract=self._join(ids, split, end))

    def title(self, index: int) -> str:
        """Node ``index``'s title, its abstract left as ids."""
        ids, start, split, _ = self._span(index)
        return self._join(ids, start, split)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]


class TextSynthesizer:
    """Generate titles/abstracts with controllable label signal.

    Parameters
    ----------
    vocabulary:
        The class/background vocabulary to draw words from.
    title_words:
        Mean number of words in a title.
    abstract_words:
        Mean number of words in an abstract.
    title_keyword_density:
        Fraction of title words that are keyword slots (the rest are
        background) before clarity weighting.
    abstract_keyword_density:
        Same for abstracts; lower, since abstracts are mostly filler.
    """

    def __init__(
        self,
        vocabulary: ClassVocabulary,
        title_words: int = 10,
        abstract_words: int = 110,
        title_keyword_density: float = 0.55,
        abstract_keyword_density: float = 0.28,
    ):
        if title_words < 1 or abstract_words < 1:
            raise ValueError("title/abstract lengths must be >= 1")
        for name, value in (
            ("title_keyword_density", title_keyword_density),
            ("abstract_keyword_density", abstract_keyword_density),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        self.vocabulary = vocabulary
        self.title_words = title_words
        self.abstract_words = abstract_words
        self.title_keyword_density = title_keyword_density
        self.abstract_keyword_density = abstract_keyword_density
        #: Every class's keywords, then the background words, in one table;
        #: class ``k``'s keywords are ``words[_class_starts[k]:_class_starts[k + 1]]``
        #: and the background starts at ``_class_starts[-1]``.  :meth:`draw`
        #: returns indices into it.
        self.words: list[str] = [
            w for words in vocabulary.class_words for w in words
        ] + vocabulary.background_words
        self._table = np.array(self.words, dtype=object)
        sizes = [len(words) for words in vocabulary.class_words]
        self._class_starts = np.cumsum([0] + sizes).tolist()

    def _compose(
        self,
        label: int,
        confuser: int,
        clarity: float,
        rng: np.random.Generator,
        length: int,
        keyword_density: float,
    ) -> np.ndarray:
        """Word-table indices of one text of ``length`` words: keyword slots
        (own class w.p. ``clarity``, else ``confuser``) and background
        filler, shuffled."""
        n_keywords = max(1, int(round(length * keyword_density)))
        n_background = max(0, length - n_keywords)
        starts = self._class_starts
        own_mask = rng.random(n_keywords) < clarity
        own_idx = rng.integers(starts[label + 1] - starts[label], size=n_keywords)
        other_idx = rng.integers(starts[confuser + 1] - starts[confuser], size=n_keywords)
        bg_idx = rng.integers(len(self.words) - starts[-1], size=n_background)
        keywords = np.where(own_mask, own_idx + starts[label], other_idx + starts[confuser])
        slots = np.concatenate((keywords, bg_idx + starts[-1]))
        rng.shuffle(slots)
        return slots

    def synthesize(
        self,
        label: int,
        clarity: float,
        rng: np.random.Generator,
        length_jitter: float = 0.2,
        title_clarity_shift: float = 0.0,
        confuser: int | None = None,
    ) -> NodeText:
        """Generate one node's text; the arguments are :meth:`draw`'s."""
        title, abstract = self.draw(
            label, clarity, rng, length_jitter, title_clarity_shift, confuser
        )
        return NodeText(
            title=join_words(self._table, title), abstract=join_words(self._table, abstract)
        )

    def draw(
        self,
        label: int,
        clarity: float,
        rng: np.random.Generator,
        length_jitter: float = 0.2,
        title_clarity_shift: float = 0.0,
        confuser: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw one node's title and abstract as indices into :attr:`words`.

        Parameters
        ----------
        label:
            Ground-truth class of the node.
        clarity:
            In ``[0, 1]``; probability that each keyword slot uses the node's
            own class vocabulary instead of the confuser class.
        rng:
            Node-scoped generator (determinism is the caller's concern).
        length_jitter:
            Relative +/- range applied to the mean lengths.
        title_clarity_shift:
            Added to ``clarity`` for the *title only* (clamped to [0, 1]).
            Domains like Pubmed/Ogbn-Arxiv have titles that index poorly onto
            their fine-grained classes; a negative shift reproduces that, and
            with it the paper's observation that neighbor titles can be noise.
        confuser:
            Class whose keywords fill the non-own keyword slots.  ``None``
            draws a uniform other class; generators with sibling-confusion
            structure pass a fixed related class instead (cs.AI texts confuse
            toward cs.LG, not toward cs.OS).
        """
        if not 0.0 <= clarity <= 1.0:
            raise ValueError(f"clarity must be in [0, 1], got {clarity}")
        title_clarity = min(1.0, max(0.0, clarity + title_clarity_shift))
        num_classes = self.vocabulary.num_classes
        if not 0 <= label < num_classes:
            raise ValueError(f"label {label} out of range for {num_classes} classes")
        if confuser is None:
            if num_classes == 1:
                confuser = label
            else:
                confuser = int(rng.integers(num_classes - 1))
                if confuser >= label:
                    confuser += 1
        elif not 0 <= confuser < num_classes:
            raise ValueError(f"confuser {confuser} out of range for {num_classes} classes")

        def jittered(mean: int) -> int:
            low = max(1, int(mean * (1 - length_jitter)))
            high = max(low + 1, int(mean * (1 + length_jitter)) + 1)
            return int(rng.integers(low, high))

        title = self._compose(
            label, confuser, title_clarity, rng, jittered(self.title_words), self.title_keyword_density
        )
        abstract = self._compose(
            label, confuser, clarity, rng, jittered(self.abstract_words), self.abstract_keyword_density
        )
        return title, abstract


def join_words(table: np.ndarray, ids: np.ndarray) -> str:
    """The text of the words ``table[ids]`` (an object array), space-separated."""
    return " ".join(table[ids].tolist())
