"""Tests for synthetic text generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.corpus import TextSynthesizer
from repro.text.tokenizer import Tokenizer
from repro.text.vocabulary import ClassVocabulary


@pytest.fixture(scope="module")
def vocab() -> ClassVocabulary:
    return ClassVocabulary.build(["A", "B", "C"], seed=11, words_per_class=30, background_size=60)


def own_class_share(vocab: ClassVocabulary, text: str, label: int) -> float:
    """Fraction of keyword hits that belong to ``label``'s vocabulary."""
    ev = vocab.evidence(Tokenizer().words(text))
    total = ev.sum()
    return float(ev[label] / total) if total else 0.0


class TestSynthesize:
    def test_high_clarity_text_favors_own_class(self, vocab):
        synth = TextSynthesizer(vocab, title_words=10, abstract_words=100)
        rng = np.random.default_rng(0)
        text = synth.synthesize(label=1, clarity=0.95, rng=rng)
        assert own_class_share(vocab, text.full, 1) > 0.8

    def test_low_clarity_text_is_confusable(self, vocab):
        synth = TextSynthesizer(vocab, title_words=10, abstract_words=100)
        rng = np.random.default_rng(0)
        text = synth.synthesize(label=1, clarity=0.1, rng=rng)
        assert own_class_share(vocab, text.full, 1) < 0.4

    def test_lengths_roughly_match_config(self, vocab):
        synth = TextSynthesizer(vocab, title_words=12, abstract_words=80)
        rng = np.random.default_rng(1)
        text = synth.synthesize(label=0, clarity=0.7, rng=rng, length_jitter=0.1)
        assert 8 <= len(text.title.split()) <= 16
        assert 60 <= len(text.abstract.split()) <= 100

    def test_full_concatenates(self, vocab):
        synth = TextSynthesizer(vocab)
        text = synth.synthesize(0, 0.5, np.random.default_rng(2))
        assert text.title in text.full and text.abstract in text.full

    def test_title_clarity_shift_degrades_title_only(self, vocab):
        synth = TextSynthesizer(vocab, title_words=40, abstract_words=120)
        shares_title, shares_abstract = [], []
        for seed in range(8):
            rng = np.random.default_rng(seed)
            text = synth.synthesize(label=2, clarity=0.9, rng=rng, title_clarity_shift=-0.6)
            shares_title.append(own_class_share(vocab, text.title, 2))
            shares_abstract.append(own_class_share(vocab, text.abstract, 2))
        assert np.mean(shares_title) < np.mean(shares_abstract) - 0.2

    def test_explicit_confuser_used(self, vocab):
        synth = TextSynthesizer(vocab, title_words=30, abstract_words=100)
        rng = np.random.default_rng(3)
        text = synth.synthesize(label=0, clarity=0.2, rng=rng, confuser=2)
        ev = vocab.evidence(Tokenizer().words(text.full))
        assert ev[2] > ev[1]  # confusion goes to class 2, not class 1

    def test_invalid_clarity(self, vocab):
        with pytest.raises(ValueError, match="clarity"):
            TextSynthesizer(vocab).synthesize(0, 1.5, np.random.default_rng(0))

    def test_invalid_label(self, vocab):
        with pytest.raises(ValueError, match="label"):
            TextSynthesizer(vocab).synthesize(9, 0.5, np.random.default_rng(0))

    def test_invalid_confuser(self, vocab):
        with pytest.raises(ValueError, match="confuser"):
            TextSynthesizer(vocab).synthesize(0, 0.5, np.random.default_rng(0), confuser=7)

    def test_invalid_density(self, vocab):
        with pytest.raises(ValueError):
            TextSynthesizer(vocab, title_keyword_density=0.0)


# ---------------------------------------------------------------- oracle
#
# The synthesizer's earlier per-slot text building, kept verbatim as the
# reference the index array ``_compose`` draws must match: the same text, read
# through the synthesizer's word table, and the same random numbers drawn.


def reference_keyword_pool(vocab, label, confuser, clarity, rng, n):
    own = vocab.class_words[label]
    other = vocab.class_words[confuser]
    own_mask = rng.random(n) < clarity
    own_idx = rng.integers(len(own), size=n)
    other_idx = rng.integers(len(other), size=n)
    return [own[own_idx[i]] if own_mask[i] else other[other_idx[i]] for i in range(n)]


def reference_compose(vocab, label, confuser, clarity, rng, length, keyword_density):
    n_keywords = max(1, int(round(length * keyword_density)))
    n_background = max(0, length - n_keywords)
    words = reference_keyword_pool(vocab, label, confuser, clarity, rng, n_keywords)
    background = vocab.background_words
    bg_idx = rng.integers(len(background), size=n_background)
    words.extend(background[i] for i in bg_idx)
    rng.shuffle(words)
    return " ".join(words)


@st.composite
def compose_cases(draw):
    """A vocabulary with classes of unequal sizes, and one text to build."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    vocab = ClassVocabulary(
        class_names=[f"C{k}" for k in range(len(sizes))],
        class_words=[[f"c{k}w{i}" for i in range(size)] for k, size in enumerate(sizes)],
        background_words=[f"bg{i}" for i in range(draw(st.integers(1, 6)))],
    )
    label = draw(st.integers(0, len(sizes) - 1))
    confuser = draw(st.integers(0, len(sizes) - 1))
    clarity = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    length = draw(st.integers(1, 40))
    density = draw(st.sampled_from([1.0]) | st.floats(0.01, 1.0))
    return vocab, label, confuser, clarity, length, density


class TestComposeOracle:
    @settings(max_examples=300, deadline=None)
    @given(compose_cases(), st.integers(0, 2**32 - 1))
    def test_matches_per_slot_reference(self, case, seed):
        vocab, label, confuser, clarity, length, density = case
        fresh, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        synth = TextSynthesizer(vocab)
        for _ in range(3):
            slots = synth._compose(label, confuser, clarity, fresh, length, density)
            text = " ".join(synth.words[i] for i in slots)
            assert text == reference_compose(vocab, label, confuser, clarity, reference, length, density)
            assert fresh.bit_generator.state == reference.bit_generator.state
