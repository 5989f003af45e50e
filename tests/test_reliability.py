"""Tests for failure injection, retry, circuit breaking, and the clock."""

from __future__ import annotations

import pytest

from repro.llm.caching import CachingLLM
from repro.llm.reliability import (
    CircuitBreaker,
    CircuitBreakerLLM,
    CircuitOpenError,
    FlakyLLM,
    RetryingLLM,
    SimulatedClock,
    TransientLLMError,
    resilient,
)
from repro.llm.simulated import SimulatedLLM
from repro.prompts.builder import PromptBuilder
from repro.text.vocabulary import ClassVocabulary


@pytest.fixture()
def prompt_and_inner():
    vocab = ClassVocabulary.build(["A", "B"], seed=0)
    inner = SimulatedLLM(vocab, seed=1)
    prompt = PromptBuilder(["A", "B"]).zero_shot("t", " ".join(vocab.class_words[0][:8]))
    return prompt, inner


class TestFlakyLLM:
    def test_deterministic_failures(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        outcomes = []
        flaky = FlakyLLM(inner, failure_rate=0.5, seed=3)
        for _ in range(20):
            try:
                flaky.complete(prompt)
                outcomes.append(True)
            except TransientLLMError:
                outcomes.append(False)
        flaky2 = FlakyLLM(SimulatedLLM(inner.vocabulary, seed=1), failure_rate=0.5, seed=3)
        outcomes2 = []
        for _ in range(20):
            try:
                flaky2.complete(prompt)
                outcomes2.append(True)
            except TransientLLMError:
                outcomes2.append(False)
        assert outcomes == outcomes2
        assert not all(outcomes) and any(outcomes)

    def test_zero_rate_never_fails(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.0)
        for _ in range(5):
            flaky.complete(prompt)
        assert flaky.failures == 0

    def test_failed_calls_cost_nothing(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.99, seed=0)
        with pytest.raises(TransientLLMError):
            for _ in range(50):
                flaky.complete(prompt)
        assert inner.usage.total_tokens == flaky.usage.total_tokens

    def test_invalid_rate(self, prompt_and_inner):
        _, inner = prompt_and_inner
        with pytest.raises(ValueError):
            FlakyLLM(inner, failure_rate=1.0)

    def test_invalid_key(self, prompt_and_inner):
        _, inner = prompt_and_inner
        with pytest.raises(ValueError):
            FlakyLLM(inner, key="node")

    def test_charged_failures_accumulate_waste(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.5, seed=3, charge_failed_prompts=True)
        for _ in range(20):
            try:
                flaky.complete(prompt)
            except TransientLLMError:
                pass
        assert flaky.failures > 0
        assert flaky.wasted_prompt_tokens == flaky.failures * flaky.tokenizer.count(prompt)

    def test_prompt_key_failures_independent_of_call_order(self, prompt_and_inner):
        """``key="prompt"`` draws failures from (prompt, attempt), so skipping
        other prompts — as a resumed checkpoint does — cannot shift them."""
        prompt, inner = prompt_and_inner
        other = prompt + " other"

        def outcomes_for(flaky, p, tries):
            out = []
            for _ in range(tries):
                try:
                    flaky.complete(p)
                    out.append(True)
                except TransientLLMError:
                    out.append(False)
            return out

        flaky_a = FlakyLLM(inner, failure_rate=0.5, seed=3, key="prompt")
        interleaved = outcomes_for(flaky_a, other, 7)
        pattern_a = outcomes_for(flaky_a, prompt, 10)

        flaky_b = FlakyLLM(SimulatedLLM(inner.vocabulary, seed=1), 0.5, seed=3, key="prompt")
        pattern_b = outcomes_for(flaky_b, prompt, 10)
        assert pattern_a == pattern_b
        assert not all(interleaved) or not all(pattern_a)


class TestRetryingLLM:
    def test_recovers_from_transient_failures(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.4, seed=7)
        retrying = RetryingLLM(flaky, max_attempts=6)
        for _ in range(20):
            response = retrying.complete(prompt)
            assert response.text
        assert retrying.retries > 0

    def test_gives_up_after_max_attempts(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        always_down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        retrying = RetryingLLM(always_down, max_attempts=3)
        with pytest.raises(TransientLLMError, match="gave up after 3 attempts"):
            retrying.complete(prompt)

    def test_backoff_schedule_capped(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        always_down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        retrying = RetryingLLM(always_down, max_attempts=5, base_delay=1.0, max_delay=3.0)
        with pytest.raises(TransientLLMError):
            retrying.complete(prompt)
        # Waits: 1, 2, 3(cap), 3(cap) = 9 simulated seconds.
        assert retrying.simulated_wait_seconds == pytest.approx(9.0)

    def test_usage_tracks_only_successes(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.4, seed=7)
        retrying = RetryingLLM(flaky, max_attempts=6)
        for _ in range(10):
            retrying.complete(prompt)
        assert retrying.usage.num_queries == 10

    def test_composes_with_cache(self, prompt_and_inner):
        """Realistic production stack: retry(flaky) under a cache."""
        prompt, inner = prompt_and_inner
        stack = CachingLLM(RetryingLLM(FlakyLLM(inner, failure_rate=0.3, seed=2), max_attempts=8))
        first = stack.complete(prompt)
        second = stack.complete(prompt)
        assert first.text == second.text
        assert stack.hits == 1

    def test_invalid_params(self, prompt_and_inner):
        _, inner = prompt_and_inner
        with pytest.raises(ValueError):
            RetryingLLM(inner, max_attempts=0)
        with pytest.raises(ValueError):
            RetryingLLM(inner, base_delay=5.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryingLLM(inner, jitter=1.5)
        with pytest.raises(ValueError):
            RetryingLLM(inner, deadline_seconds=0.0)

    def test_jitter_shortens_waits_deterministically(self, prompt_and_inner):
        prompt, inner = prompt_and_inner

        def total_wait(jitter):
            down = FlakyLLM(SimulatedLLM(inner.vocabulary, seed=1), 0.999, seed=1)
            retrying = RetryingLLM(
                down, max_attempts=5, base_delay=1.0, max_delay=3.0, jitter=jitter, seed=4
            )
            with pytest.raises(TransientLLMError):
                retrying.complete(prompt)
            return retrying.simulated_wait_seconds

        unjittered = total_wait(0.0)
        assert unjittered == pytest.approx(9.0)
        jittered = total_wait(0.5)
        assert 0.5 * unjittered <= jittered < unjittered
        assert jittered == pytest.approx(total_wait(0.5))  # same seed, same waits

    def test_deadline_gives_up_before_sleeping_past_budget(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        retrying = RetryingLLM(
            down, max_attempts=10, base_delay=1.0, max_delay=8.0, deadline_seconds=4.0
        )
        with pytest.raises(TransientLLMError, match="deadline of 4.0s exhausted"):
            retrying.complete(prompt)
        # Waits 1 + 2 = 3s fit the budget; the next 4s wait would not.
        assert retrying.simulated_wait_seconds == pytest.approx(3.0)
        assert retrying.deadline_give_ups == 1

    def test_waits_advance_shared_clock(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        clock = SimulatedClock()
        down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        retrying = RetryingLLM(down, max_attempts=3, base_delay=1.0, clock=clock)
        with pytest.raises(TransientLLMError):
            retrying.complete(prompt)
        assert clock.now == pytest.approx(retrying.simulated_wait_seconds)


class TestSimulatedClock:
    def test_advances_monotonically(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock(start=-1.0)
        with pytest.raises(ValueError):
            SimulatedClock().advance(-0.1)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.rejected_calls == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_recovers_through_half_open(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=10.0, half_open_successes=2, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_seconds=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.times_opened == 2


class TestCircuitBreakerLLM:
    def test_open_circuit_fails_fast(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        breaker = CircuitBreaker(failure_threshold=2)
        guarded = CircuitBreakerLLM(down, breaker=breaker)
        for _ in range(2):
            with pytest.raises(TransientLLMError):
                guarded.complete(prompt)
        calls_before = down.calls
        with pytest.raises(CircuitOpenError):
            guarded.complete(prompt)
        assert down.calls == calls_before  # rejected without touching the backend

    def test_circuit_open_error_is_not_retried(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        breaker = CircuitBreaker(failure_threshold=1)
        retrying = RetryingLLM(CircuitBreakerLLM(down, breaker=breaker), max_attempts=5)
        with pytest.raises(TransientLLMError):
            retrying.complete(prompt)
        with pytest.raises(CircuitOpenError):
            retrying.complete(prompt)
        assert retrying.simulated_wait_seconds < 5 * 8.0  # no waiting out an open circuit

    def test_advance_per_call_lets_breaker_recover(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        clock = SimulatedClock()
        healthy = FlakyLLM(inner, failure_rate=0.0)
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_seconds=5.0, half_open_successes=1, clock=clock
        )
        guarded = CircuitBreakerLLM(healthy, breaker=breaker, advance_per_call=2.0)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            guarded.complete(prompt)
        with pytest.raises(CircuitOpenError):
            guarded.complete(prompt)
        # Third call advances the clock past recovery; the probe succeeds.
        assert guarded.complete(prompt).text
        assert breaker.state == "closed"


class TestResilientStack:
    def test_absorbs_transient_failures(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        flaky = FlakyLLM(inner, failure_rate=0.4, seed=7)
        stack = resilient(flaky, max_attempts=6)
        for _ in range(20):
            assert stack.complete(prompt).text
        assert stack.breaker.times_opened == 0
        assert stack.inner.retries > 0

    def test_sustained_outage_trips_breaker(self, prompt_and_inner):
        prompt, inner = prompt_and_inner
        down = FlakyLLM(inner, failure_rate=0.999, seed=1)
        stack = resilient(down, max_attempts=2, failure_threshold=3)
        for _ in range(10):
            with pytest.raises(TransientLLMError):
                stack.complete(prompt)
        assert stack.breaker.times_opened >= 1
        assert stack.breaker.rejected_calls > 0
