"""Token pricing for cost reporting (paper Sec. I's cost motivation).

Prices are USD per 1,000 tokens, matching the figures the paper quotes
(GPT-3.5 at $0.0005/1k input tokens) plus the public list prices of the
other models it references.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ModelPrice:
    """Input/output price per 1,000 tokens, in USD.

    ``cached_input_per_1k`` is the discounted rate charged for prompt
    tokens served from a provider prompt cache (every major vendor bills
    cache hits at half the input rate, which is also the default when the
    field is left ``None``).
    """

    input_per_1k: float
    output_per_1k: float
    cached_input_per_1k: float | None = None

    @property
    def cached_rate(self) -> float:
        """Effective cached-input price (half the input rate by default)."""
        if self.cached_input_per_1k is not None:
            return self.cached_input_per_1k
        return self.input_per_1k / 2.0


PRICES_PER_1K_TOKENS: dict[str, ModelPrice] = {
    "gpt-3.5": ModelPrice(
        input_per_1k=0.0005, output_per_1k=0.0015, cached_input_per_1k=0.00025
    ),
    "gpt-4o-mini": ModelPrice(
        input_per_1k=0.00015, output_per_1k=0.0006, cached_input_per_1k=0.000075
    ),
    "gpt-4": ModelPrice(
        input_per_1k=0.03, output_per_1k=0.06, cached_input_per_1k=0.015
    ),
}


class UnknownModelError(KeyError):
    """Raised for a model string with no price entry.

    Subclasses ``KeyError`` so existing ``except KeyError`` callers keep
    working; the message always names every known model so a typo is
    diagnosable from the error alone.
    """

    def __init__(self, model: str):
        self.model = model
        super().__init__(
            f"no price for model {model!r}; known models: "
            + ", ".join(known_models())
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


def known_models() -> tuple[str, ...]:
    """The model names :func:`cost_usd` can price, sorted."""
    return tuple(sorted(PRICES_PER_1K_TOKENS))


def cost_usd(model: str, prompt_tokens: int, completion_tokens: int = 0) -> float:
    """Dollar cost of a query (or aggregate usage) for ``model``.

    Unknown models raise :class:`UnknownModelError` (a ``KeyError``) naming
    every priceable model, so silent mispricing cannot happen.
    """
    if prompt_tokens < 0 or completion_tokens < 0:
        raise ValueError("token counts must be non-negative")
    key = model.lower()
    if key not in PRICES_PER_1K_TOKENS:
        raise UnknownModelError(model)
    price = PRICES_PER_1K_TOKENS[key]
    return prompt_tokens / 1000.0 * price.input_per_1k + completion_tokens / 1000.0 * price.output_per_1k


def cache_discount_usd(model: str, cached_prompt_tokens: int) -> float:
    """Dollars saved by serving ``cached_prompt_tokens`` from the cache."""
    if cached_prompt_tokens < 0:
        raise ValueError("cached_prompt_tokens must be non-negative")
    key = model.lower()
    if key not in PRICES_PER_1K_TOKENS:
        raise UnknownModelError(model)
    price = PRICES_PER_1K_TOKENS[key]
    return cached_prompt_tokens / 1000.0 * (price.input_per_1k - price.cached_rate)
