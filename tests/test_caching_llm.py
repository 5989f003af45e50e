"""Tests for the exact-prompt response cache."""

from __future__ import annotations

import pytest

from repro.llm.caching import CachingLLM
from repro.llm.simulated import SimulatedLLM
from repro.prompts.builder import PromptBuilder
from repro.text.vocabulary import ClassVocabulary


@pytest.fixture()
def setup():
    vocab = ClassVocabulary.build(["A", "B"], seed=0)
    inner = SimulatedLLM(vocab, seed=1)
    builder = PromptBuilder(["A", "B"])
    prompt = builder.zero_shot("title", " ".join(vocab.class_words[0][:10]))
    return inner, CachingLLM(inner), prompt


class TestCachingLLM:
    def test_hit_returns_same_text(self, setup):
        inner, cached, prompt = setup
        first = cached.complete(prompt)
        second = cached.complete(prompt)
        assert first.text == second.text
        assert cached.hits == 1 and cached.misses == 1

    def test_hits_cost_zero_tokens(self, setup):
        _, cached, prompt = setup
        miss = cached.complete(prompt)
        hit = cached.complete(prompt)
        assert miss.total_tokens > 0
        assert hit.total_tokens == 0
        assert cached.usage.total_tokens == miss.total_tokens

    def test_inner_called_once(self, setup):
        inner, cached, prompt = setup
        cached.complete(prompt)
        cached.complete(prompt)
        assert inner.usage.num_queries == 1

    def test_hit_rate(self, setup):
        _, cached, prompt = setup
        assert cached.hit_rate == 0.0
        cached.complete(prompt)
        cached.complete(prompt)
        cached.complete(prompt)
        assert cached.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction(self, setup):
        inner, _, _ = setup
        cached = CachingLLM(inner, max_entries=2)
        builder = PromptBuilder(["A", "B"])
        prompts = [builder.zero_shot(f"t{i}", "abc def") for i in range(3)]
        for p in prompts:
            cached.complete(p)
        cached.complete(prompts[0])  # evicted by prompts[2]; must miss
        assert cached.misses == 4
        cached.complete(prompts[2])  # still resident
        assert cached.hits == 1

    def test_clear_drops_entries_but_keeps_stats(self, setup):
        _, cached, prompt = setup
        cached.complete(prompt)
        cached.clear()
        cached.complete(prompt)  # must miss again: the entry is gone
        assert cached.misses == 2 and cached.hits == 0
        assert cached.stats()["entries"] == 1

    def test_stats_dict(self, setup):
        inner, _, _ = setup
        cached = CachingLLM(inner, max_entries=2)
        builder = PromptBuilder(["A", "B"])
        prompts = [builder.zero_shot(f"t{i}", "abc def") for i in range(3)]
        for p in prompts:
            cached.complete(p)
        cached.complete(prompts[2])
        stats = cached.stats()
        assert stats == {
            "hits": 1,
            "misses": 3,
            "hit_rate": 0.25,
            "evictions": 1,
            "coalesced": 0,
            "entries": 2,
        }

    def test_invalid_capacity(self, setup):
        inner, _, _ = setup
        with pytest.raises(ValueError):
            CachingLLM(inner, max_entries=0)

    def test_empty_prompt(self, setup):
        _, cached, _ = setup
        with pytest.raises(ValueError):
            cached.complete("")
