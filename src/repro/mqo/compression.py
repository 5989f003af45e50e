"""Deterministic prompt compression — the rung between full and pruned.

The degradation ladder used to jump straight from the full neighbor-bearing
prompt to the zero-shot form, discarding *all* neighbor evidence the moment
a budget or an overload watermark bit.  This module adds the intermediate
rung the paper's token-economy argument implies: keep the neighbor blocks
that carry signal for the target, drop the rest, and meet an explicit token
budget.

* :class:`ContextAnalyzer` segments a rendered prompt into its neighbor
  text blocks (the template-structured ``Neighbor Paper0: {{ ... }}``
  sections) and scores each block's relevance to the target text — lexical
  overlap plus a bonus for blocks that carry a ``Category:`` label cue,
  with an infinitesimal seeded jitter as the deterministic tie-break.
* :class:`PromptCompressor` drops the lowest-scoring blocks until the
  prompt fits a target token budget (an absolute count or a ratio of the
  original).  Block boundaries are newline-aligned, so removing a block
  shrinks the token count by exactly the block's own tokens.  When even
  the block-free skeleton overflows the budget the default is to stop
  there — the structural frame (target section, task, category list) is
  what the models parse, so it is never broken; ``preserve_structure=
  False`` instead applies a hard token-level truncation that guarantees
  the budget at the cost of the frame.

Everything here is a pure function of (prompt text, seed): the same prompt
compresses to the same bytes in the serve gate's cost estimate, the
engine's execution, and a crash/resume replay.  A compressor therefore
memoises its results per instance, keyed by ``(prompt, target_tokens)``:
the gate's previews, the prefix planner and execution compress each
distinct prompt once.  Token counts come from one
:class:`~repro.text.tokenizer.Tokenizer`, which has no settings, so the
budget a compressor meets is counted exactly as the LLM bills the prompt.
A compressor owns one until an engine hands it its LLM's
(:meth:`PromptCompressor.count_with`), so a prompt the compressor counts and
the LLM bills is tokenized once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from repro.text.tokenizer import Tokenizer
from repro.utils.rng import spawn_rng

#: One rendered neighbor block, e.g. ``Neighbor Paper0: {{\n...\n}}\n``.
_NEIGHBOR_BLOCK_RE = re.compile(r"Neighbor \w+\d+: \{\{\n.*?\}\}\n", re.DOTALL)

#: Weight of the pseudo-label cue: a block whose neighbor carries a
#: ``Category:`` line contributes label evidence no lexical overlap measures.
_LABEL_BONUS = 0.25

#: Distinct ``(prompt, target_tokens)`` results one compressor remembers.
_COMPRESS_MEMO_SIZE = 128

#: Jitter magnitude — far below any score difference that could matter, so
#: it only breaks exact ties, deterministically per (seed, block text).
_JITTER = 1e-9


@dataclass(frozen=True)
class ScoredSegment:
    """One neighbor block with its span in the prompt and relevance score."""

    start: int
    end: int
    text: str
    tokens: int
    score: float


class ContextAnalyzer:
    """Segment a rendered prompt and score its neighbor blocks.

    Scores are lexical: the Jaccard overlap between a block's words and the
    target section's words (the prompt text outside the neighbor blocks),
    plus :data:`_LABEL_BONUS` when the block carries a neighbor
    label line.  A seeded jitter below any meaningful score difference
    makes the induced ranking total and deterministic.  The analyzer owns
    the :class:`~repro.text.tokenizer.Tokenizer` that counts block tokens.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.tokenizer = Tokenizer()

    def segments(self, prompt: str) -> list[ScoredSegment]:
        """Scored neighbor blocks in prompt order (empty for zero-shot)."""
        matches = list(_NEIGHBOR_BLOCK_RE.finditer(prompt))
        if not matches:
            return []
        # Target words come from everything *outside* the neighbor blocks
        # (target section plus task/header boilerplate), which works for both
        # the default target-first layout and the shared-first layout.
        outside = []
        cursor = 0
        for match in matches:
            outside.append(prompt[cursor : match.start()])
            cursor = match.end()
        outside.append(prompt[cursor:])
        target_words = set(self.tokenizer.words("".join(outside)))
        segments = []
        for match in matches:
            text = match.group(0)
            segments.append(
                ScoredSegment(
                    start=match.start(),
                    end=match.end(),
                    text=text,
                    tokens=self.tokenizer.count(text),
                    score=self._score(text, target_words),
                )
            )
        return segments

    def _score(self, block: str, target_words: set[str]) -> float:
        block_words = set(self.tokenizer.words(block))
        union = block_words | target_words
        overlap = len(block_words & target_words) / len(union) if union else 0.0
        bonus = _LABEL_BONUS if "\ncategory:" in block.lower() else 0.0
        jitter = spawn_rng(self.seed, "compress-jitter", block).random() * _JITTER
        return overlap + bonus + jitter


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing one prompt."""

    text: str
    original_tokens: int
    compressed_tokens: int
    num_blocks: int
    dropped_blocks: int
    truncated: bool = False

    @property
    def changed(self) -> bool:
        """Whether compression actually removed anything."""
        return self.compressed_tokens < self.original_tokens

    @property
    def savings_fraction(self) -> float:
        if self.original_tokens == 0:
            return 0.0
        return 1.0 - self.compressed_tokens / self.original_tokens


class PromptCompressor:
    """Drop low-relevance neighbor blocks until a prompt meets a budget.

    Prompts and blocks are counted by one tokenizer (the analyzer's); an
    engine replaces it with its LLM's (:meth:`count_with`), so that prompts
    share one count memo.  The result memo lives as long as the compressor.

    Parameters
    ----------
    target_ratio:
        Budget as a fraction of the original token count (e.g. ``0.5``
        halves the prompt); resolved per prompt as ``ceil(ratio * tokens)``.
    target_tokens:
        Absolute token budget; takes precedence over ``target_ratio``.
        At least one of the two must be set (or passed to :meth:`compress`).
    seed:
        Seed for the analyzer's tie-break jitter.  Compression is a pure
        function of (prompt, seed): identical inputs give identical bytes.
    preserve_structure:
        When ``True`` (default) compression never goes below the block-free
        skeleton, keeping the prompt parseable; the budget is then met
        whenever the skeleton fits it.  ``False`` adds a hard token-level
        truncation so the budget always holds exactly.
    """

    def __init__(
        self,
        target_ratio: float | None = None,
        target_tokens: int | None = None,
        seed: int = 0,
        preserve_structure: bool = True,
    ):
        if target_ratio is not None and not 0.0 < target_ratio <= 1.0:
            raise ValueError(f"target_ratio must be in (0, 1], got {target_ratio}")
        if target_tokens is not None and target_tokens < 1:
            raise ValueError(f"target_tokens must be >= 1, got {target_tokens}")
        self.target_ratio = target_ratio
        self.target_tokens = target_tokens
        self.seed = seed
        self.preserve_structure = preserve_structure
        self.analyzer = ContextAnalyzer(seed=seed)
        self.tokenizer = self.analyzer.tokenizer
        # Per instance, like the tokenizer's count memo: the settings above
        # never change after construction, so a hit is what a fresh call
        # would return, and ``compress`` stays the class method every call
        # goes through.
        self._compress_memo = lru_cache(maxsize=_COMPRESS_MEMO_SIZE)(
            self._compress_uncached
        )

    def count_with(self, tokenizer: Tokenizer) -> None:
        """Count prompts and blocks with ``tokenizer`` from now on.

        Every :class:`Tokenizer` counts alike, so results, memoised or not,
        are unchanged; only the owner of the count memo changes.
        """
        self.tokenizer = self.analyzer.tokenizer = tokenizer

    def budget_for(self, original_tokens: int, target_tokens: int | None = None) -> int:
        """Resolve the token budget for a prompt of ``original_tokens``."""
        if target_tokens is not None:
            budget = target_tokens
        elif self.target_tokens is not None:
            budget = self.target_tokens
        elif self.target_ratio is not None:
            budget = math.ceil(self.target_ratio * original_tokens)
        else:
            raise ValueError(
                "no token budget: set target_ratio/target_tokens on the "
                "compressor or pass target_tokens to compress()"
            )
        if budget < 1:
            raise ValueError(f"target_tokens must be >= 1, got {budget}")
        return budget

    def compress(self, prompt: str, target_tokens: int | None = None) -> CompressionResult:
        """Compress ``prompt`` to at most the resolved token budget."""
        return self._compress_memo(prompt, target_tokens)

    def _compress_uncached(
        self, prompt: str, target_tokens: int | None
    ) -> CompressionResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        original = self.tokenizer.count(prompt)
        budget = self.budget_for(original, target_tokens)
        segments = self.analyzer.segments(prompt)
        if original <= budget:
            return CompressionResult(
                text=prompt,
                original_tokens=original,
                compressed_tokens=original,
                num_blocks=len(segments),
                dropped_blocks=0,
            )
        # Drop lowest-scoring blocks first.  Blocks are newline-bounded, so
        # removing one shrinks the count by exactly its own tokens.
        by_score = sorted(segments, key=lambda s: (s.score, s.start))
        current = original
        dropped: list[ScoredSegment] = []
        for segment in by_score:
            if current <= budget:
                break
            dropped.append(segment)
            current -= segment.tokens
        text = self._remove(prompt, dropped)
        current = self.tokenizer.count(text)
        truncated = False
        if current > budget and not self.preserve_structure:
            # Even the block-free prompt overflows: hard token truncation.
            # Every emitted piece re-tokenizes to itself, so the rebuilt
            # text counts exactly ``budget`` tokens.
            text = " ".join(self.tokenizer.tokenize(text)[:budget])
            current = self.tokenizer.count(text)
            truncated = True
        return CompressionResult(
            text=text,
            original_tokens=original,
            compressed_tokens=current,
            num_blocks=len(segments),
            dropped_blocks=len(dropped),
            truncated=truncated,
        )

    @staticmethod
    def _remove(prompt: str, dropped: list[ScoredSegment]) -> str:
        if not dropped:
            return prompt
        parts = []
        cursor = 0
        for segment in sorted(dropped, key=lambda s: s.start):
            parts.append(prompt[cursor : segment.start])
            cursor = segment.end
        parts.append(prompt[cursor:])
        return "".join(parts)
