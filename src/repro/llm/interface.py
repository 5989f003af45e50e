"""Black-box LLM client interface with token-usage accounting.

Every model in this package implements :class:`LLMClient`: a prompt string
goes in, an :class:`LLMResponse` comes out, and the client's
:class:`UsageTracker` accumulates token counts so the MQO engine can enforce
budgets and report costs (paper Eq. 2's ``Tokens(π ∘ v_i)``).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

from repro.text.tokenizer import Tokenizer


@dataclass(frozen=True)
class LLMResponse:
    """One model completion.

    ``confidence`` is the model's self-reported probability of its answer
    (top-token probability, as real APIs expose via logprobs); ``None`` when
    the backend does not provide one.
    """

    text: str
    prompt_tokens: int
    completion_tokens: int
    confidence: float | None = None

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass
class UsageTracker:
    """Cumulative token/query accounting for one client.

    Updates are lock-guarded so a client shared across the batched
    scheduler's dispatcher threads never loses a count.
    """

    num_queries: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, response: LLMResponse) -> None:
        with self._lock:
            self.num_queries += 1
            self.prompt_tokens += response.prompt_tokens
            self.completion_tokens += response.completion_tokens

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def reset(self) -> None:
        with self._lock:
            self.num_queries = 0
            self.prompt_tokens = 0
            self.completion_tokens = 0

    def snapshot(self) -> "UsageTracker":
        """Copy of the current counters (for before/after deltas)."""
        return UsageTracker(self.num_queries, self.prompt_tokens, self.completion_tokens)


class LLMClient(abc.ABC):
    """Abstract black-box LLM.

    Subclasses implement :meth:`_complete`; the public :meth:`complete`
    wraps it with token counting so usage is tracked uniformly.  A client
    owns a fresh :class:`~repro.text.tokenizer.Tokenizer` unless one is
    passed: wrappers pass their inner client's, so a stack shares one
    count memo.
    """

    def __init__(self, name: str, tokenizer: Tokenizer | None = None):
        self.name = name
        self.tokenizer = tokenizer or Tokenizer()
        self.usage = UsageTracker()

    @abc.abstractmethod
    def _complete(self, prompt: str) -> str:
        """Produce the raw completion text for ``prompt``."""

    def _complete_with_confidence(self, prompt: str) -> tuple[str, float | None]:
        """Completion text plus optional self-reported confidence.

        Backends with logprob access override this; the default adapts
        plain ``_complete`` implementations.
        """
        return self._complete(prompt), None

    def complete(self, prompt: str) -> LLMResponse:
        """Run one query, recording token usage."""
        if not prompt:
            raise ValueError("prompt must be non-empty")
        text, confidence = self._complete_with_confidence(prompt)
        response = LLMResponse(
            text=text,
            prompt_tokens=self.tokenizer.count(prompt),
            completion_tokens=self.tokenizer.count(text),
            confidence=confidence,
        )
        self.usage.record(response)
        return response
