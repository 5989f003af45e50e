"""Property suite for the MQO tier: compression and prefix-sharing laws.

Hypothesis-driven invariants over real rendered prompts (drawn from the
tiny graph) and synthetic prompt batches:

Compression (:mod:`repro.mqo.compression`)
    - never grows a prompt: ``compressed_tokens <= original_tokens``;
    - with ``preserve_structure=False`` the budget is a hard ceiling:
      ``compressed_tokens <= budget`` for every (prompt, budget);
    - with the default ``preserve_structure=True`` the result is never
      smaller than the block-free skeleton and the prompt frame stays
      parseable by the simulated models;
    - pure function of (prompt, seed): byte-identical across repeat calls
      and across fresh compressor instances;
    - ``savings_fraction`` is non-negative and consistent with the token
      counts;
    - the per-instance result memo is invisible: one compressor called
      repeatedly, across more distinct prompts than the memo holds,
      returns what a fresh compressor returns.

Prefix sharing (:mod:`repro.mqo.prefix_sharing`)
    - the plan's ``order`` is a permutation of the input positions and its
      ``batches`` partition that order with sizes ``<= max_batch_size``;
    - token accounting balances exactly:
      ``paid_tokens + shared_tokens == total_tokens`` with
      ``0 <= shared_tokens <= total_tokens``;
    - the first prompt of every batch pays its prefix in full
      (``shared_by_prompt`` is 0 there) and per-prompt shares sum to the
      report's total;
    - planning is deterministic: same prompts, same plan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.simulated import SimulatedLLM, parse_prompt
from repro.mqo.compression import (
    _COMPRESS_MEMO_SIZE,
    ContextAnalyzer,
    PromptCompressor,
)
from repro.mqo.prefix_sharing import (
    analyze_prefix_sharing,
    plan_prefix_batches,
    shared_prefix_tokens,
)
from repro.prompts.builder import NeighborEntry, PromptBuilder
from repro.text.tokenizer import Tokenizer

MAX_EXAMPLES = 25


@pytest.fixture(scope="module")
def prompts(tiny_tag, tiny_split, tiny_builder):
    """Real rendered 1-hop prompts off the tiny graph, one per query node."""
    from repro.runtime.engine import MultiQueryEngine
    from repro.selection.registry import make_selector

    engine = MultiQueryEngine(
        graph=tiny_tag.graph,
        llm=SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
        selector=make_selector("1-hop"),
        builder=tiny_builder,
        labeled=tiny_split.labeled,
        max_neighbors=4,
        seed=9,
    )
    return [
        engine.build_prompt(int(node), include_neighbors=True)[0]
        for node in tiny_split.queries[:40]
    ]


# ------------------------------------------------------------- compression


@given(index=st.integers(min_value=0, max_value=39), ratio=st.floats(0.2, 1.0))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_compression_never_grows_and_stays_parseable(prompts, index, ratio):
    prompt = prompts[index]
    result = PromptCompressor(target_ratio=ratio).compress(prompt)
    assert result.compressed_tokens <= result.original_tokens
    assert result.dropped_blocks <= result.num_blocks
    assert 0.0 <= result.savings_fraction <= 1.0
    # The default preserves the structural frame: the simulated parser must
    # still find the target section.
    parsed = parse_prompt(result.text)
    assert parsed.target_title, "compression destroyed the target section"


@given(
    index=st.integers(min_value=0, max_value=39),
    budget=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_hard_budget_holds_without_structure_preservation(prompts, index, budget):
    compressor = PromptCompressor(target_tokens=budget, preserve_structure=False)
    result = compressor.compress(prompts[index])
    assert result.compressed_tokens <= budget
    assert result.compressed_tokens <= result.original_tokens


@given(index=st.integers(min_value=0, max_value=39), budget=st.integers(1, 120))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_structure_preservation_floors_at_skeleton(prompts, index, budget):
    """Default mode never drops below the block-free skeleton, and meets the
    budget whenever the skeleton itself fits it."""
    prompt = prompts[index]
    tokenizer = Tokenizer()
    compressor = PromptCompressor(target_tokens=budget)
    result = compressor.compress(prompt)
    assert not result.truncated
    segments = compressor.analyzer.segments(prompt)
    skeleton = tokenizer.count(prompt) - sum(s.tokens for s in segments)
    assert result.compressed_tokens >= skeleton
    if skeleton <= budget:
        # Dropping blocks alone can always reach the budget here, and the
        # drop loop runs until it does.
        assert result.compressed_tokens <= budget
    else:
        # Budget unreachable without breaking the frame: all blocks dropped,
        # skeleton returned as-is.
        assert result.dropped_blocks == result.num_blocks
        assert result.compressed_tokens == skeleton


@given(
    index=st.integers(min_value=0, max_value=39),
    ratio=st.floats(0.2, 0.9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_compression_is_deterministic_per_seed(prompts, index, ratio, seed):
    prompt = prompts[index]
    first = PromptCompressor(target_ratio=ratio, seed=seed).compress(prompt)
    second = PromptCompressor(target_ratio=ratio, seed=seed).compress(prompt)
    assert first == second, "same (prompt, seed) produced different bytes"
    # And repeat calls on one instance agree with a fresh instance.
    shared = PromptCompressor(target_ratio=ratio, seed=seed)
    assert shared.compress(prompt) == shared.compress(prompt) == first


#: Few words, so neighbor blocks overlap the target and each other and the
#: relevance ranking has ties for the jitter to break.
PROMPT_WORDS = ("graph", "neural", "boosting", "tokens", "query", "Σ", "2025", "cora")
CLASSES = ["Alpha", "Beta", "Gamma"]

phrases = st.lists(st.sampled_from(PROMPT_WORDS), min_size=1, max_size=10).map(" ".join)
neighbor_lists = st.lists(
    st.builds(
        NeighborEntry,
        title=phrases,
        abstract=st.none() | phrases,
        label_name=st.none() | st.sampled_from(CLASSES),
    ),
    max_size=6,
)
#: Constructor budget: a ratio, an absolute count, or none (then every call
#: passes its own ``target_tokens``).
constructor_budgets = st.one_of(
    st.none(),
    st.builds(dict, target_ratio=st.floats(0.1, 1.0)),
    st.builds(dict, target_tokens=st.integers(1, 150)),
)


@given(
    title=phrases,
    abstract=phrases,
    neighbors=neighbor_lists,
    shared_first=st.booleans(),
    budget=constructor_budgets,
    call_targets=st.lists(st.none() | st.integers(1, 150), min_size=1, max_size=3),
    preserve_structure=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_memoised_compress_equals_a_fresh_compressor(
    title,
    abstract,
    neighbors,
    shared_first,
    budget,
    call_targets,
    preserve_structure,
    seed,
    order,
):
    builder = PromptBuilder(CLASSES, shared_first=shared_first)
    config = dict(budget or {}, seed=seed, preserve_structure=preserve_structure)
    if budget is None:
        call_targets = [40 if t is None else t for t in call_targets]
    # More distinct prompts than the memo holds; prompt 0 is also asked at
    # every call-time budget, so one prompt lives under several keys.
    prompts = [
        builder.with_neighbors(f"{title} {i}", abstract, neighbors)
        for i in range(_COMPRESS_MEMO_SIZE + 20)
    ]
    keys = [(p, call_targets[i % len(call_targets)]) for i, p in enumerate(prompts)]
    keys += [(prompts[0], t) for t in call_targets]
    expected = {key: PromptCompressor(**config).compress(*key) for key in keys}
    shared = PromptCompressor(**config)
    again = keys[:]
    order.shuffle(again)
    for key in keys + again + again[:10] * 2:
        assert shared.compress(*key) == expected[key]


@given(index=st.integers(min_value=0, max_value=39))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
def test_analyzer_scores_are_deterministic_and_ordered(prompts, index):
    analyzer = ContextAnalyzer(seed=7)
    first = analyzer.segments(prompts[index])
    second = ContextAnalyzer(seed=7).segments(prompts[index])
    assert first == second
    # Segments arrive in prompt order with disjoint spans.
    for before, after in zip(first, first[1:]):
        assert before.end <= after.start


# ---------------------------------------------------------- prefix sharing

#: Synthetic prompt alphabet: few distinct words so drawn batches actually
#: share prefixes (and ties exercise the deterministic tie-breaks).
WORDS = ("alpha", "beta", "gamma", "delta")

prompt_strategy = st.lists(st.sampled_from(WORDS), min_size=0, max_size=8).map(
    " ".join
)
batch_strategy = st.lists(prompt_strategy, min_size=0, max_size=12)


@given(prompts=batch_strategy, max_batch=st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_plan_is_permutation_partition_and_balances(prompts, max_batch):
    plan = plan_prefix_batches(prompts, max_batch_size=max_batch)
    n = len(prompts)
    assert sorted(plan.order) == list(range(n))
    flattened = [i for batch in plan.batches for i in batch]
    assert flattened == list(plan.order), "batches must partition the order"
    assert all(1 <= len(batch) <= max_batch for batch in plan.batches)
    report = plan.report
    assert report.paid_tokens + report.shared_tokens == report.total_tokens
    assert 0 <= report.shared_tokens <= report.total_tokens
    assert report.savings_fraction >= 0.0
    # Per-prompt credits: first of each batch pays in full, the rest share
    # at most their own token count, and the credits sum to the report.
    assert len(plan.shared_by_prompt) == n
    tokenizer = Tokenizer()
    for batch in plan.batches:
        assert plan.shared_by_prompt[batch[0]] == 0
        for position in batch:
            assert 0 <= plan.shared_by_prompt[position] <= tokenizer.count(
                prompts[position]
            )
    assert sum(plan.shared_by_prompt) == report.shared_tokens


@given(prompts=batch_strategy, max_batch=st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_planning_is_deterministic(prompts, max_batch):
    assert plan_prefix_batches(prompts, max_batch_size=max_batch) == plan_prefix_batches(
        prompts, max_batch_size=max_batch
    )


@given(prompts=batch_strategy)
@settings(max_examples=50, deadline=None)
def test_analyzer_savings_nonnegative_and_reorder_never_hurts(prompts):
    as_issued = analyze_prefix_sharing(prompts, reorder=False)
    reordered = analyze_prefix_sharing(prompts, reorder=True)
    for report in (as_issued, reordered):
        assert report.shared_tokens >= 0
        assert report.paid_tokens + report.shared_tokens == report.total_tokens
    assert reordered.shared_tokens >= as_issued.shared_tokens


@given(a=prompt_strategy, b=prompt_strategy)
@settings(max_examples=50, deadline=None)
def test_shared_prefix_tokens_is_symmetric_and_bounded(a, b):
    tokenizer = Tokenizer()
    shared = shared_prefix_tokens(a, b)
    assert shared == shared_prefix_tokens(b, a)
    assert 0 <= shared <= min(tokenizer.count(a), tokenizer.count(b))
    assert shared_prefix_tokens(a, a) == tokenizer.count(a)


def test_real_prompt_batch_balances_on_the_tiny_graph(prompts):
    """The synthetic-alphabet laws hold on real rendered prompts too."""
    plan = plan_prefix_batches(prompts, max_batch_size=8)
    assert sorted(plan.order) == list(range(len(prompts)))
    assert plan.report.paid_tokens + plan.report.shared_tokens == plan.report.total_tokens
    assert sum(plan.shared_by_prompt) == plan.report.shared_tokens
