"""Tests for the deterministic tokenizer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import Tokenizer, count_tokens


class TestTokenize:
    def test_simple_words(self):
        assert Tokenizer().tokenize("graph mining") == ["graph", "mining"]

    def test_punctuation_is_tokenized(self):
        tokens = Tokenizer().tokenize("hello, world.")
        assert tokens == ["hello", ",", "world", "."]

    def test_long_words_are_split(self):
        tokens = Tokenizer(max_piece_len=4).tokenize("abcdefghij")
        assert tokens == ["abcd", "efgh", "ij"]

    def test_lowercasing(self):
        assert Tokenizer().tokenize("Graph") == ["graph"]
        assert Tokenizer(lowercase=False).tokenize("Graph") == ["Graph"]

    def test_empty_text(self):
        assert Tokenizer().tokenize("") == []

    def test_invalid_piece_len(self):
        with pytest.raises(ValueError):
            Tokenizer(max_piece_len=0)


class TestWords:
    def test_words_keep_whole_tokens(self):
        words = Tokenizer(max_piece_len=4).words("abcdefghij again")
        assert words == ["abcdefghij", "again"]

    def test_words_skip_punctuation(self):
        assert Tokenizer().words("a, b!") == ["a", "b"]


class TestCount:
    def test_count_matches_tokenize(self):
        t = Tokenizer()
        text = "multi-query optimization for LLMs, 2025."
        assert t.count(text) == len(t.tokenize(text))

    def test_module_level_count(self):
        assert count_tokens("two words") == 2

    @given(st.text(max_size=300))
    def test_deterministic(self, text):
        assert Tokenizer().count(text) == Tokenizer().count(text)

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_concatenation_superadditive_with_space(self, a, b):
        """Tokens of 'a b' >= max(tokens(a), tokens(b)) — joining never loses tokens."""
        t = Tokenizer()
        combined = t.count(f"{a} {b}")
        assert combined >= max(t.count(a), t.count(b))

    @given(st.text(alphabet=st.characters(categories=("Ll", "Nd")), min_size=1, max_size=60))
    def test_alnum_text_tokens_bounded_by_length(self, text):
        assert 1 <= Tokenizer().count(text) <= len(text)


# ------------------------------------------------------------------ oracle

_REFERENCE_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def _reference_tokenize(text: str, max_piece_len: int, lowercase: bool) -> list[str]:
    """The original ``finditer`` loop: chunk long runs by hand."""
    if lowercase:
        text = text.lower()
    tokens: list[str] = []
    for match in _REFERENCE_RE.finditer(text):
        piece = match.group(0)
        if len(piece) <= max_piece_len:
            tokens.append(piece)
        else:
            for start in range(0, len(piece), max_piece_len):
                tokens.append(piece[start : start + max_piece_len])
    return tokens


def _reference_words(text: str, lowercase: bool) -> list[str]:
    """The original ``finditer`` loop: keep matches that start alphanumeric."""
    if lowercase:
        text = text.lower()
    return [m.group(0) for m in _REFERENCE_RE.finditer(text) if m.group(0)[0].isalnum()]


#: Characters whose lower-casing, alphanumeric status or word-class
#: membership differ from the ASCII rules, mixed into the random text.
_TRICKY = st.sampled_from(["İ", "ß", "½", "٣", "_", "Σ", "ǅ", "\u00a0", "\u2028", "Ⅻ", "²"])


class TestReferenceOracle:
    @settings(max_examples=300)
    @given(
        st.lists(st.one_of(st.text(), _TRICKY), max_size=8).map("".join),
        st.integers(min_value=1, max_value=10),
        st.booleans(),
    )
    def test_matches_finditer_loop(self, text, max_piece_len, lowercase):
        tokenizer = Tokenizer(max_piece_len=max_piece_len, lowercase=lowercase)
        expected = _reference_tokenize(text, max_piece_len, lowercase)
        assert tokenizer.tokenize(text) == expected
        assert tokenizer.count(text) == len(expected)
        assert tokenizer.words(text) == _reference_words(text, lowercase)
