"""Each distinct prompt is counted and compressed once per run.

A serve run handles one compressed request several times: the gate prices
the full and compressed rungs, the prefix planner previews the prompt, the
engine renders and compresses it again to execute, and the LLM stack
counts it for billing — and a stream requests each node more than once.
:meth:`Tokenizer.count` and :meth:`PromptCompressor.compress` memoise per
instance, so every repeat after the first is a hit.  These tests run a
small cora serve stream and count the bodies that actually ran.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.runtime.scheduler as scheduler_module
from repro.experiments.common import load_setup
from repro.llm.caching import CachingLLM
from repro.llm.reliability import SimulatedClock
from repro.mqo.compression import _COMPRESS_MEMO_SIZE, PromptCompressor
from repro.runtime.fallback import DegradationLadder
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import AdmissionPolicy, ServingLayer, TenantSpec, synthetic_stream
from repro.text.tokenizer import _COUNT_MEMO_SIZE, Tokenizer

NUM_QUERIES = 12
NUM_REQUESTS = 40


@pytest.fixture(scope="module")
def cora():
    return load_setup("cora", num_queries=NUM_QUERIES, scale=0.15)


class _Spies:
    """Class-level spies on the compress body, on ``Tokenizer.tokenize`` and
    on the prefix planner.

    The planner splits prompts with the module-level ``tokenize``, so every
    call the ``Tokenizer.tokenize`` spy sees comes from a tokenizer's count.
    """

    def __init__(self, monkeypatch):
        self.bodies: Counter = Counter()
        self.tokenized: Counter = Counter()
        self.plans = 0
        compress_body = PromptCompressor._compress_uncached
        tokenize = Tokenizer.tokenize
        plan = scheduler_module.plan_prefix_batches

        def spy_body(compressor, prompt, target_tokens):
            self.bodies[id(compressor), prompt, target_tokens] += 1
            return compress_body(compressor, prompt, target_tokens)

        def spy_tokenize(tokenizer, text):
            self.tokenized[id(tokenizer), text] += 1
            return tokenize(tokenizer, text)

        def spy_plan(*args, **kwargs):
            self.plans += 1
            return plan(*args, **kwargs)

        monkeypatch.setattr(PromptCompressor, "_compress_uncached", spy_body)
        monkeypatch.setattr(Tokenizer, "tokenize", spy_tokenize)
        monkeypatch.setattr(scheduler_module, "plan_prefix_batches", spy_plan)


def _serve(cora, compressor):
    """A 40-request stream over 12 nodes: every node is asked ~3 times."""
    clock = SimulatedClock()
    engine = cora.make_engine(
        "1-hop",
        llm=CachingLLM(cora.make_llm()),
        clock=clock,
        scheduler=QueryScheduler(max_batch_size=4, prefix_sharing=True),
        ladder=DegradationLadder(),
        compressor=compressor,
        shared_first=True,
    )
    tenants = [TenantSpec("a", weight=2, max_queue_depth=64), TenantSpec("b")]
    layer = ServingLayer(
        engine, tenants, policy=AdmissionPolicy(compress_watermark=8, wave_quota=3)
    )
    report = layer.replay(synthetic_stream(tenants, cora.queries, NUM_REQUESTS, seed=3))
    return engine, report


def test_each_distinct_prompt_is_compressed_and_counted_once(cora, monkeypatch):
    spies = _Spies(monkeypatch)
    compress_calls = []
    compress = PromptCompressor.compress

    def count_calls(compressor, prompt, target_tokens=None):
        compress_calls.append(prompt)
        return compress(compressor, prompt, target_tokens)

    monkeypatch.setattr(PromptCompressor, "compress", count_calls)
    compressor = PromptCompressor(target_ratio=0.5)
    engine, report = _serve(cora, compressor)
    # Both LLM rungs carry traffic, so the gate prices full prompts too.
    assert report.tier_counts["ok"] > 0 and report.tier_counts["degraded_compressed"] > 0
    assert spies.plans > 0, "the prefix planner never ran"

    # The stream repeats work; each distinct (prompt, target_tokens) ran
    # its body once, and every other call was a memo hit.
    assert len(compress_calls) > len(spies.bodies)
    assert len(spies.bodies) <= _COMPRESS_MEMO_SIZE
    assert set(spies.bodies.values()) == {1}
    assert {key[0] for key in spies.bodies} == {id(compressor)}

    # Within capacity, each tokenizer tokenizes each distinct text at most
    # once, though the run counts texts many times over.
    llm_tokenizer = engine.llm.tokenizer
    for tokenizer in (llm_tokenizer, compressor.tokenizer):
        texts = [n for (owner, _), n in spies.tokenized.items() if owner == id(tokenizer)]
        assert 0 < len(texts) <= _COUNT_MEMO_SIZE
        assert set(texts) == {1}


def test_a_new_compressor_or_tokenizer_starts_empty(cora, monkeypatch):
    spies = _Spies(monkeypatch)
    first, second = PromptCompressor(target_ratio=0.5), PromptCompressor(target_ratio=0.5)
    _serve(cora, first)
    _serve(cora, second)
    # The second run's compressor ran every body again, once: nothing the
    # first run memoised was served to it.
    by_owner = {
        owner: {key[1:]: n for key, n in spies.bodies.items() if key[0] == id(owner)}
        for owner in (first, second)
    }
    assert by_owner[first] and by_owner[first] == by_owner[second]
    assert set(by_owner[second].values()) == {1}

    # Likewise a fresh tokenizer tokenizes a text the first one memoised.
    (_, text), _ = next(
        item for item in spies.tokenized.items() if item[0][0] == id(first.tokenizer)
    )
    fresh = Tokenizer()
    assert fresh.count(text) == first.tokenizer.count(text)
    assert spies.tokenized[id(first.tokenizer), text] == 1
    assert spies.tokenized[id(fresh), text] == 1
