"""Deterministic tokenizer used for all token accounting.

The paper budgets queries in GPT BPE tokens.  We cannot ship tiktoken in an
offline build, so this module implements a small deterministic tokenizer with
the same coarse behaviour: words are split on whitespace/punctuation,
punctuation marks count as their own tokens, and long words are broken into
sub-word pieces (real BPE splits rare long words into several tokens).  On
English-like text this averages roughly four characters per token, matching
the rule of thumb used for GPT models.

Like a tiktoken encoding, the tokenizer has no settings: text is lower-cased
and alphanumeric runs are cut into pieces of at most :data:`_MAX_PIECE_LEN`
characters, so every :class:`Tokenizer` counts the same tokens and the
budget gate, the compressor and the billed ``prompt_tokens`` agree by
construction.

:meth:`Tokenizer.count` is memoised per instance: a bounded map from text to
count that lives exactly as long as the tokenizer (one LLM, engine or
compressor, so one run).  :meth:`Tokenizer.tokenize` and
:meth:`Tokenizer.words` are not: they return fresh lists the caller owns.
"""

from __future__ import annotations

import re
from functools import lru_cache

#: Maximum characters per sub-word piece.  Words longer than this are split
#: into consecutive chunks, mimicking byte-pair encodings of rare words.
_MAX_PIECE_LEN = 6

#: Tokens: a greedy ``{1,n}`` run splits a long alphanumeric word into
#: consecutive n-character chunks; every other non-space character is a
#: token of its own.
_TOKENS_RE = re.compile(rf"[A-Za-z0-9]{{1,{_MAX_PIECE_LEN}}}|[^\sA-Za-z0-9]")

#: Whole words: ASCII alphanumeric runs, plus single non-ASCII characters
#: that ``str.isalnum()`` accepts (``[^\W_]`` is exactly that class).
_WORDS_RE = re.compile(r"[A-Za-z0-9]+|[^\W_A-Za-z0-9]")

#: Distinct texts whose counts one tokenizer remembers.  A serve pass prices,
#: previews, compresses and bills the same few hundred prompts repeatedly;
#: 256 entries catch most of those repeats.
_COUNT_MEMO_SIZE = 256


class Tokenizer:
    """Lower-casing word/sub-word tokenizer with deterministic output.

    Lower-casing matches the simulated LLM's case-insensitive class-keyword
    matching.  Each instance owns its :meth:`count` memo.
    """

    def __init__(self):
        # Built per instance, not as a class-level ``lru_cache`` (which would
        # key on ``self`` and keep every tokenizer alive for the process).
        # ``count`` stays the class method every call goes through.
        self._count_memo = lru_cache(maxsize=_COUNT_MEMO_SIZE)(self._count_uncached)

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into tokens (sub-word pieces and punctuation)."""
        return _TOKENS_RE.findall(text.lower())

    def words(self, text: str) -> list[str]:
        """Split ``text`` into whole alphanumeric words (no sub-word pieces).

        Used by the simulated LLM for vocabulary matching, where splitting a
        keyword into pieces would destroy the match.
        """
        return _WORDS_RE.findall(text.lower())

    def count(self, text: str) -> int:
        """Number of tokens in ``text`` (memoised per instance)."""
        return self._count_memo(text)

    def _count_uncached(self, text: str) -> int:
        return len(self.tokenize(text))
