"""Tests for the deterministic tokenizer."""

from __future__ import annotations

import random
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.simulated import SimulatedLLM
from repro.mqo.compression import PromptCompressor
from repro.mqo.prefix_sharing import (
    analyze_prefix_sharing,
    plan_prefix_batches,
    shared_prefix_tokens,
)
from repro.prompts.builder import NeighborEntry, PromptBuilder
from repro.text.tokenizer import _COUNT_MEMO_SIZE, Tokenizer, tokenize


class TestTokenize:
    def test_simple_words(self):
        assert Tokenizer().tokenize("graph mining") == ["graph", "mining"]

    def test_punctuation_is_tokenized(self):
        tokens = Tokenizer().tokenize("hello, world.")
        assert tokens == ["hello", ",", "world", "."]

    def test_long_words_are_split(self):
        tokens = Tokenizer().tokenize("abcdefghijklm")
        assert tokens == ["abcdef", "ghijkl", "m"]

    def test_lowercasing(self):
        assert Tokenizer().tokenize("Graph") == ["graph"]

    def test_empty_text(self):
        assert Tokenizer().tokenize("") == []

    def test_prefix_analyses_build_no_tokenizer(self, monkeypatch):
        """The prefix planner and analyzers split with the stateless
        ``tokenize``; a throwaway ``Tokenizer`` would build an unused memo."""
        built = []
        init = Tokenizer.__init__

        def spy_init(tokenizer):
            built.append(tokenizer)
            init(tokenizer)

        monkeypatch.setattr(Tokenizer, "__init__", spy_init)
        prompts = ["Paper: graph mining.", "Paper: graph neural nets.", "Other"]
        assert plan_prefix_batches(prompts, max_batch_size=2).report.total_tokens > 0
        assert analyze_prefix_sharing(prompts).shared_tokens > 0
        assert shared_prefix_tokens(prompts[0], prompts[1]) == 3
        assert built == []


class TestWords:
    def test_words_keep_whole_tokens(self):
        words = Tokenizer().words("abcdefghijklm again")
        assert words == ["abcdefghijklm", "again"]

    def test_words_skip_punctuation(self):
        assert Tokenizer().words("a, b!") == ["a", "b"]


class TestCount:
    def test_count_matches_tokenize(self):
        t = Tokenizer()
        text = "multi-query optimization for LLMs, 2025."
        assert t.count(text) == len(t.tokenize(text))

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
    @given(st.lists(st.one_of(st.text(), _TRICKY), max_size=8).map("".join))
    def test_matches_finditer_loop(self, text):
        tokenizer = Tokenizer()
        expected = _reference_tokenize(text, 6, True)
        assert tokenizer.tokenize(text) == expected
        assert tokenize(text) == expected
        assert tokenizer.count(text) == len(expected)
        assert tokenizer.words(text) == _reference_words(text, True)


class TestCountMemo:
    """``count`` is memoised per instance; the memo must equal its oracle."""

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("word_len", range(1, 11))
    @settings(max_examples=8, deadline=None)
    @given(
        pool=st.lists(st.one_of(st.text(max_size=40), _TRICKY), min_size=1, max_size=6),
        order=st.randoms(use_true_random=False),
    )
    def test_memoised_count_equals_tokenize(self, word_len, upper, pool, order):
        tokenizer = Tokenizer()
        # Every text carries a word shorter than, as long as, or longer
        # than a piece, in either case, so the memo sees texts that split
        # and lower-case differently.
        word = ("Graphmining" if upper else "graphmining")[:word_len]
        # More distinct texts than the memo holds, counted, then counted
        # again in a shuffled order (evicted and resident entries alike),
        # then a run of immediate repeats.
        texts = [f"{pool[i % len(pool)]} {word} {i}" for i in range(_COUNT_MEMO_SIZE + 40)]
        again = texts[:]
        order.shuffle(again)
        for text in texts + again + again[:20] * 2:
            assert tokenizer.count(text) == len(tokenizer.tokenize(text))

    def test_threads_get_the_serial_answers(self):
        rng = random.Random(7)
        words = ["graph", "neighbor", "Token", "budget", "x", "Σß", "2025", "!"]
        texts = [" ".join(rng.choices(words, k=rng.randint(0, 12))) for _ in range(400)]
        serial = [Tokenizer().count(text) for text in texts]
        shared = Tokenizer()

        def worker(offset: int) -> list[int]:
            # Each worker walks the same texts from its own offset, so the
            # four overlap on every text and race on misses and evictions.
            n = len(texts)
            return [shared.count(texts[(offset + i) % n]) for i in range(3 * n)]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, [0, 100, 200, 300]))
        for offset, counts in zip([0, 100, 200, 300], results):
            n = len(texts)
            assert counts == [serial[(offset + i) % n] for i in range(3 * n)]

    def test_each_tokenizer_starts_empty(self, monkeypatch):
        calls = []
        original = Tokenizer.tokenize

        def spy(self, text):
            calls.append((id(self), text))
            return original(self, text)

        monkeypatch.setattr(Tokenizer, "tokenize", spy)
        first, second = Tokenizer(), Tokenizer()
        assert first.count("graph mining") == first.count("graph mining") == 2
        assert second.count("graph mining") == 2
        assert calls == [(id(first), "graph mining"), (id(second), "graph mining")]


# ------------------------------------------------ one definition of a token

#: Prompt words: sub-word splits, mixed case, punctuation and the tricky
#: characters, plus random newline-free text (a newline inside a title
#: would unmake the target section the simulated model parses).
_PROMPT_WORDS = st.one_of(
    st.sampled_from(
        ["Graph", "neural", "multi-query", "Optimization", "LLMs,", "2025.", "(tau=0.2)"]
    ),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"), max_size=12),
    _TRICKY,
)
_PHRASES = st.lists(_PROMPT_WORDS, max_size=8).map(" ".join)
_NEIGHBORS = st.lists(
    st.builds(
        NeighborEntry,
        title=_PHRASES,
        abstract=st.none() | _PHRASES,
        label_name=st.none() | st.sampled_from(["Alpha", "Delta", "Omega"]),
    ),
    max_size=4,
)


class TestOneDefinitionOfAToken:
    """The LLM's billed usage, the compressor's budget and both prefix
    analyses count every prompt as the reference tokenizer does."""

    @settings(max_examples=60, deadline=None)
    @given(
        title=_PHRASES,
        abstract=_PHRASES,
        neighbors=_NEIGHBORS,
        shared_first=st.booleans(),
    )
    def test_every_part_counts_the_same_tokens(
        self, tiny_tag, title, abstract, neighbors, shared_first
    ):
        builder = PromptBuilder(list(tiny_tag.graph.class_names), shared_first=shared_first)
        prompt = builder.with_neighbors(title, abstract, neighbors)
        expected = len(_reference_tokenize(prompt, 6, True))
        llm = SimulatedLLM(tiny_tag.vocabulary, seed=5)
        assert llm.complete(prompt).prompt_tokens == expected
        compressed = PromptCompressor(target_ratio=1.0).compress(prompt)
        assert compressed.original_tokens == expected
        assert plan_prefix_batches([prompt]).report.total_tokens == expected
        assert analyze_prefix_sharing([prompt]).total_tokens == expected
