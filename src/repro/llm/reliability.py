"""Reliability wrappers: failure injection, retry with backoff, circuit breaking.

Production deployments of the "LLMs as predictors" paradigm issue thousands
of API calls; rate limits and transient 5xx errors are routine.  This module
provides the fault-tolerance substrate the execution engine builds on:

* :class:`FlakyLLM` — failure-injecting client for tests and resilience
  experiments, with optional accounting of tokens wasted on failed requests.
* :class:`RetryingLLM` — capped exponential backoff with optional
  deterministic jitter and a per-query deadline budget.
* :class:`CircuitBreaker` / :class:`CircuitBreakerLLM` — the classic
  closed → open → half-open state machine, so a persistently failing backend
  fails fast instead of burning retry waits (and the token ledger) on every
  query.
* :class:`LatencyLLM` — simulated per-call service latency on the shared
  clock, the substrate the batched scheduler's overlap accounting measures.
* :func:`resilient` — the standard composition ``breaker(retry(inner))``
  sharing one clock.

All waiting is *simulated*: waits accumulate on a :class:`SimulatedClock`
(never slept), so tests and experiments stay fast and fully deterministic.

Every wrapper here is **concurrency-safe**: counters, the breaker state
machine, and the flaky client's failure scripts are guarded by locks so the
batched scheduler's thread dispatcher can issue calls from a pool without
losing updates.  Under the serial and simulated-dispatch paths the locks are
uncontended and behaviour is byte-identical to the unguarded code.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.llm.interface import LLMClient, LLMResponse
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:
    from repro.obs.hooks import RunObserver


class TransientLLMError(RuntimeError):
    """A retryable failure (rate limit, transient server error)."""


class InjectedFaultError(TransientLLMError):
    """A transient provider failure injected by the chaos subsystem.

    Subclasses :class:`TransientLLMError` so the production retry/breaker/
    degradation machinery handles it exactly like a real brownout — chaos
    runs exercise the same code paths an incident would.
    """


class CircuitOpenError(TransientLLMError):
    """Fail-fast rejection from an open circuit breaker.

    Subclasses :class:`TransientLLMError` so degradation ladders catch it,
    but :class:`RetryingLLM` re-raises it immediately — waiting out an open
    circuit inside a retry loop would defeat the point of failing fast.
    """


# --------------------------------------------------------- per-call tallies

_TALLIES = threading.local()


class RetryTally:
    """Mutable retry count for one tracked ``complete`` call."""

    __slots__ = ("retries",)

    def __init__(self) -> None:
        self.retries = 0


@contextmanager
def track_call_retries():
    """Count the retries any :class:`RetryingLLM` performs on *this thread*
    for the duration of the block.

    Unlike diffing the wrappers' shared ``retries`` counters before and
    after a call — which double-counts retries from concurrent queries —
    the tally is thread-local, so the engine can tag a record ``retried``
    correctly whether the call ran serially or on a dispatcher thread.
    """
    stack = getattr(_TALLIES, "stack", None)
    if stack is None:
        stack = _TALLIES.stack = []
    tally = RetryTally()
    stack.append(tally)
    try:
        yield tally
    finally:
        stack.pop()


def _note_retry() -> None:
    for tally in getattr(_TALLIES, "stack", ()):
        tally.retries += 1


class SimulatedClock:
    """Deterministic monotonic clock, advanced by simulated waits only.

    Sharing one clock between a :class:`RetryingLLM` and a
    :class:`CircuitBreaker` gives the breaker a consistent notion of elapsed
    time without any wall-clock dependence: backoff waits advance it, and
    recovery timeouts are measured against it.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError("start must be >= 0")
        self._now = float(start)
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulatedClock(now={self._now:.3f})"


class FlakyLLM(LLMClient):
    """Failure-injecting wrapper: raises :class:`TransientLLMError` randomly.

    Deterministic per (seed, call index), so a test can assert exactly which
    calls fail; ``key="prompt"`` keys failures by (seed, prompt, per-prompt
    attempt) instead, making the injected pattern *resume-stable* — a
    checkpointed run that skips already-executed calls sees exactly the
    failures the uninterrupted run saw, because skipping calls no longer
    shifts later draws.

    By default failed calls consume no tokens (like a refused HTTP call);
    with ``charge_failed_prompts=True`` the prompt tokens of every failed
    call accumulate in :attr:`wasted_prompt_tokens` — the cost model of a
    request that errors server-side after the prompt was paid for, which
    the resilience experiment reports as waste.
    """

    def __init__(
        self,
        inner: LLMClient,
        failure_rate: float = 0.2,
        seed: int = 0,
        charge_failed_prompts: bool = False,
        key: str = "call",
        observer: "RunObserver | None" = None,
    ):
        if not 0.0 <= failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        if key not in ("call", "prompt"):
            raise ValueError(f"key must be 'call' or 'prompt', got {key!r}")
        super().__init__(name=f"flaky({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.failure_rate = failure_rate
        self.seed = seed
        self.charge_failed_prompts = charge_failed_prompts
        self.key = key
        self.observer = observer
        self.calls = 0
        self.failures = 0
        self.wasted_prompt_tokens = 0
        self._prompt_attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        with self._lock:
            self.calls += 1
            call_index = self.calls
            if self.key == "prompt":
                attempt = self._prompt_attempts.get(prompt, 0)
                self._prompt_attempts[prompt] = attempt + 1
                rng = spawn_rng(self.seed, "flaky-prompt", prompt, attempt)
            else:
                rng = spawn_rng(self.seed, "flaky", call_index)
            fail = rng.random() < self.failure_rate
            wasted = 0
            if fail:
                self.failures += 1
                wasted = self.tokenizer.count(prompt) if self.charge_failed_prompts else 0
                self.wasted_prompt_tokens += wasted
        if fail:
            if self.observer is not None:
                self.observer.on_injected_failure(wasted)
            raise TransientLLMError(f"simulated transient failure on call {call_index}")
        response = self.inner.complete(prompt)
        self.usage.record(response)
        return response


class RetryingLLM(LLMClient):
    """Capped exponential backoff around a client that may raise
    :class:`TransientLLMError`.

    Parameters
    ----------
    inner:
        The wrapped client.
    max_attempts:
        Total attempts per prompt (first try + retries).
    base_delay, max_delay:
        Backoff schedule in (simulated) seconds: ``base * 2^attempt`` capped
        at ``max_delay``; accumulated in :attr:`simulated_wait_seconds`.
    jitter:
        Fraction of each delay randomized away, in ``[0, 1]``: the wait is
        ``delay * (1 - jitter * u)`` with ``u`` uniform in ``[0, 1)``, drawn
        deterministically from ``seed`` and the global retry counter.  ``0``
        (the default) reproduces the exact unjittered schedule; ``1`` is
        full jitter.  Jitter decorrelates retry storms when many queries hit
        the same rate limit together.
    deadline_seconds:
        Per-query wait budget: once the waits spent on one ``complete`` call
        would exceed this, the wrapper gives up immediately instead of
        sleeping past the deadline.  ``None`` disables the budget.
    seed:
        Seed for the jitter stream.
    clock:
        Optional shared :class:`SimulatedClock`; every backoff wait advances
        it, which is how a co-wired :class:`CircuitBreaker` observes time.
    observer:
        Optional run observer; each retry reports ``on_retry(attempt,
        wait)`` and each expired deadline ``on_deadline_give_up``.
    """

    def __init__(
        self,
        inner: LLMClient,
        max_attempts: int = 4,
        base_delay: float = 0.5,
        max_delay: float = 8.0,
        jitter: float = 0.0,
        deadline_seconds: float | None = None,
        seed: int = 0,
        clock: SimulatedClock | None = None,
        observer: "RunObserver | None" = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        super().__init__(name=f"retry({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline_seconds = deadline_seconds
        self.seed = seed
        self.clock = clock
        self.observer = observer
        self.retries = 0
        self.deadline_give_ups = 0
        self.simulated_wait_seconds = 0.0
        self._lock = threading.Lock()

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def _next_wait(self, attempt: int, jitter_index: int) -> float:
        delay = min(self.base_delay * 2**attempt, self.max_delay)
        if self.jitter > 0.0:
            u = spawn_rng(self.seed, "retry-jitter", jitter_index).random()
            delay *= 1.0 - self.jitter * u
        return delay

    def complete(self, prompt: str) -> LLMResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        last_error: TransientLLMError | None = None
        waited_this_query = 0.0
        for attempt in range(self.max_attempts):
            try:
                response = self.inner.complete(prompt)
                self.usage.record(response)
                return response
            except CircuitOpenError:
                raise  # never wait out an open circuit
            except TransientLLMError as error:
                last_error = error
                if attempt + 1 >= self.max_attempts:
                    break
                with self._lock:
                    wait = self._next_wait(attempt, self.retries)
                    expired = (
                        self.deadline_seconds is not None
                        and waited_this_query + wait > self.deadline_seconds
                    )
                    if expired:
                        self.deadline_give_ups += 1
                    else:
                        self.retries += 1
                        waited_this_query += wait
                        self.simulated_wait_seconds += wait
                if expired:
                    if self.observer is not None:
                        self.observer.on_deadline_give_up(attempt + 1)
                    raise TransientLLMError(
                        f"deadline of {self.deadline_seconds}s exhausted after "
                        f"{attempt + 1} attempts: {last_error}"
                    ) from last_error
                _note_retry()
                if self.observer is not None:
                    self.observer.on_retry(attempt, wait)
                if self.clock is not None:
                    self.clock.advance(wait)
        raise TransientLLMError(
            f"gave up after {self.max_attempts} attempts: {last_error}"
        ) from last_error


class CircuitBreaker:
    """Closed → open → half-open state machine over a simulated clock.

    * **closed** — calls flow; ``failure_threshold`` *consecutive* failures
      trip the breaker open.
    * **open** — calls are rejected instantly until ``recovery_seconds`` of
      simulated time elapse, then the breaker moves to half-open.
    * **half-open** — probe calls are admitted; ``half_open_successes``
      consecutive successes close the breaker, any failure re-opens it.

    The breaker is a pure state machine (no client coupling) so it can also
    guard non-LLM resources; :class:`CircuitBreakerLLM` adapts it to the
    :class:`LLMClient` interface.  An attached ``observer`` receives
    ``on_breaker_transition(old, new, at)`` for every state change — the
    elapsed open → half-open move included — stamped with the clock time at
    which the transition was *observed*.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        half_open_successes: int = 2,
        clock: SimulatedClock | None = None,
        observer: "RunObserver | None" = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_seconds <= 0:
            raise ValueError("recovery_seconds must be positive")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.half_open_successes = half_open_successes
        self.clock = clock or SimulatedClock()
        self.observer = observer
        self._state = "closed"
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.times_opened = 0
        self.rejected_calls = 0
        # Reentrant: allow()/record_*() resolve elapsed transitions via the
        # ``state`` property while already holding the lock.
        self._lock = threading.RLock()

    def _transition(self, new: str) -> None:
        old = self._state
        self._state = new
        if self.observer is not None and old != new:
            self.observer.on_breaker_transition(old, new, self.clock.now)

    @property
    def state(self) -> str:
        """Current state, resolving an elapsed open → half-open transition."""
        with self._lock:
            if self._state == "open" and self.clock.now - self._opened_at >= self.recovery_seconds:
                self._transition("half_open")
                self._probe_successes = 0
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now; counts rejections."""
        with self._lock:
            if self.state == "open":
                self.rejected_calls += 1
                if self.observer is not None:
                    self.observer.on_breaker_rejection()
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            if self.state == "half_open":
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self._transition("closed")
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            state = self.state
            if state == "half_open":
                self._trip()
            elif state == "closed":
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.failure_threshold:
                    self._trip()

    def _trip(self) -> None:
        self._transition("open")
        self._opened_at = self.clock.now
        self._consecutive_failures = 0
        self._probe_successes = 0
        self.times_opened += 1


class CircuitBreakerLLM(LLMClient):
    """Breaker-guarded client: rejected calls raise :class:`CircuitOpenError`.

    Parameters
    ----------
    inner:
        The wrapped client (typically a :class:`RetryingLLM`, so the breaker
        counts post-retry failures — a trip means the backend stayed down
        through a whole backoff schedule, repeatedly).
    breaker:
        The state machine; defaults to a fresh one on a fresh clock.
    advance_per_call:
        Simulated seconds the clock advances at the start of every call,
        modeling inter-query think time; this is what lets an open breaker
        reach its recovery timeout in workloads whose retry waits alone
        would freeze the clock.
    """

    def __init__(
        self,
        inner: LLMClient,
        breaker: CircuitBreaker | None = None,
        advance_per_call: float = 0.0,
    ):
        if advance_per_call < 0:
            raise ValueError("advance_per_call must be >= 0")
        super().__init__(name=f"breaker({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.breaker = breaker or CircuitBreaker()
        self.advance_per_call = advance_per_call

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        if self.advance_per_call:
            self.breaker.clock.advance(self.advance_per_call)
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open for {self.inner.name}; failing fast"
            )
        try:
            response = self.inner.complete(prompt)
        except TransientLLMError:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        self.usage.record(response)
        return response


class LatencyLLM(LLMClient):
    """Simulated per-call service latency on a shared :class:`SimulatedClock`.

    Real API calls take hundreds of milliseconds; the simulated models answer
    instantly.  This wrapper restores a latency profile to the timeline —
    ``seconds_per_call`` base cost plus ``seconds_per_1k_tokens`` per token
    transferred — which is exactly what the batched scheduler's overlap
    accounting measures and overlaps across virtual workers.  Failed inner
    calls advance the clock by the base cost alone (the request round-trip
    happened; the tokens never flowed).
    """

    def __init__(
        self,
        inner: LLMClient,
        clock: SimulatedClock,
        seconds_per_call: float = 1.0,
        seconds_per_1k_tokens: float = 0.0,
    ):
        if seconds_per_call < 0 or seconds_per_1k_tokens < 0:
            raise ValueError("latency parameters must be >= 0")
        super().__init__(name=f"latency({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.clock = clock
        self.seconds_per_call = seconds_per_call
        self.seconds_per_1k_tokens = seconds_per_1k_tokens

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def complete(self, prompt: str) -> LLMResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        try:
            response = self.inner.complete(prompt)
        except TransientLLMError:
            self.clock.advance(self.seconds_per_call)
            raise
        self.clock.advance(
            self.seconds_per_call
            + self.seconds_per_1k_tokens * response.total_tokens / 1000.0
        )
        self.usage.record(response)
        return response


def resilient(
    inner: LLMClient,
    max_attempts: int = 4,
    base_delay: float = 0.5,
    max_delay: float = 8.0,
    jitter: float = 0.5,
    deadline_seconds: float | None = 60.0,
    failure_threshold: int = 5,
    recovery_seconds: float = 30.0,
    half_open_successes: int = 2,
    advance_per_call: float = 1.0,
    seed: int = 0,
    clock: SimulatedClock | None = None,
) -> CircuitBreakerLLM:
    """Standard production stack: ``breaker(retry(inner))`` on one clock.

    The retrier handles blips; the breaker sees only retry-exhausted
    failures and protects against sustained outages.  Returns the outermost
    wrapper; the retrier is reachable as ``.inner`` for its counters.
    """
    clock = clock or SimulatedClock()
    retrying = RetryingLLM(
        inner,
        max_attempts=max_attempts,
        base_delay=base_delay,
        max_delay=max_delay,
        jitter=jitter,
        deadline_seconds=deadline_seconds,
        seed=seed,
        clock=clock,
    )
    breaker = CircuitBreaker(
        failure_threshold=failure_threshold,
        recovery_seconds=recovery_seconds,
        half_open_successes=half_open_successes,
        clock=clock,
    )
    return CircuitBreakerLLM(retrying, breaker=breaker, advance_per_call=advance_per_call)
