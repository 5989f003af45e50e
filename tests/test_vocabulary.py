"""Tests for word synthesis and class vocabularies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.vocabulary import _CODAS, _NUCLEI, _ONSETS, ClassVocabulary, WordFactory


# The factory's earlier one-syllable-at-a-time word making, kept verbatim as
# the reference the one-draw ``make_word`` must match: the same words and
# the same random numbers drawn.


def reference_syllable(rng):
    return (
        _ONSETS[rng.integers(len(_ONSETS))]
        + _NUCLEI[rng.integers(len(_NUCLEI))]
        + _CODAS[rng.integers(len(_CODAS))]
    )


def reference_make_word(factory):
    rng = factory._rng
    for _ in range(1000):
        n = int(rng.integers(factory.min_syllables, factory.max_syllables + 1))
        word = "".join(reference_syllable(rng) for _ in range(n))
        if word not in factory._seen:
            factory._seen.add(word)
            return word
    raise RuntimeError("word factory exhausted; increase syllable range")


class TestWordFactory:
    def test_words_are_unique(self):
        words = WordFactory(seed=1).make_words(500)
        assert len(set(words)) == 500

    def test_deterministic(self):
        assert WordFactory(seed=2).make_words(50) == WordFactory(seed=2).make_words(50)

    def test_different_seeds_differ(self):
        assert WordFactory(seed=1).make_words(50) != WordFactory(seed=2).make_words(50)

    def test_words_are_lowercase_alpha(self):
        for word in WordFactory(seed=3).make_words(100):
            assert word.isalpha() and word == word.lower()

    def test_invalid_syllable_range(self):
        with pytest.raises(ValueError):
            WordFactory(seed=0, min_syllables=3, max_syllables=2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**62),
        st.integers(1, 5).flatmap(lambda low: st.tuples(st.just(low), st.integers(low, 6))),
        st.integers(1, 150),
    )
    def test_make_word_matches_per_syllable_reference(self, seed, syllables, count):
        """One-syllable words collide often, so the retry path runs too."""
        low, high = syllables
        fresh = WordFactory(seed, min_syllables=low, max_syllables=high)
        reference = WordFactory(seed, min_syllables=low, max_syllables=high)
        for _ in range(count):
            assert fresh.make_word() == reference_make_word(reference)
        assert fresh._rng.bit_generator.state == reference._rng.bit_generator.state


class TestClassVocabulary:
    def test_build_shapes(self):
        vocab = ClassVocabulary.build(["A", "B", "C"], seed=0, words_per_class=10, background_size=20)
        assert vocab.num_classes == 3
        assert all(len(w) == 10 for w in vocab.class_words)
        assert len(vocab.background_words) == 20

    def test_class_of_word(self):
        """Each keyword is evidence for its own class only; background and
        unknown words for none."""
        vocab = ClassVocabulary.build(["A", "B"], seed=0, words_per_class=5, background_size=5)
        for k, words in enumerate(vocab.class_words):
            for w in words:
                assert vocab.evidence([w]).tolist() == [float(k == 0), float(k == 1)]
        for w in [*vocab.background_words, "notaword"]:
            assert not vocab.evidence([w]).any()

    def test_evidence_counts(self):
        vocab = ClassVocabulary.build(["A", "B"], seed=0, words_per_class=5, background_size=5)
        words = [vocab.class_words[0][0]] * 3 + [vocab.class_words[1][0]] + vocab.background_words[:2]
        ev = vocab.evidence(words)
        assert np.array_equal(ev, [3.0, 1.0])

    def test_evidence_empty(self):
        vocab = ClassVocabulary.build(["A", "B"], seed=0)
        assert vocab.evidence([]).sum() == 0

    def test_duplicate_keyword_rejected(self):
        with pytest.raises(ValueError, match="two classes"):
            ClassVocabulary(["A", "B"], [["dup"], ["dup"]], ["bg"])

    def test_background_overlap_rejected(self):
        with pytest.raises(ValueError, match="background"):
            ClassVocabulary(["A"], [["dup"]], ["dup"])

    def test_misaligned_names_rejected(self):
        with pytest.raises(ValueError, match="align"):
            ClassVocabulary(["A", "B"], [["w"]], ["bg"])

    def test_requires_classes(self):
        with pytest.raises(ValueError):
            ClassVocabulary.build([], seed=0)
