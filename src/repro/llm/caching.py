"""Response caching for repeated prompts — classical MQO result reuse.

Traditional multi-query optimization reuses shared intermediate results
across queries (paper Sec. II-C: common subexpression elimination).  For
LLM workloads the direct analogue is an exact-match response cache: two
identical prompts need only one completion.  Within the paper's paradigm
this matters whenever query sets overlap across runs or methods re-issue
the same zero-shot calibration prompts.

:class:`CachingLLM` wraps any :class:`~repro.llm.interface.LLMClient`; hits
cost zero tokens and are tracked separately from the inner client's usage.

The cache is **concurrency-safe with single-flight misses**: when the
batched scheduler's thread dispatcher issues the same prompt from several
workers at once, exactly one of them (the *leader*) pays for the inner
call; the rest wait on its result and account as hits — the same number of
inner calls a serial execution would have issued.  A leader whose inner
call fails releases the waiters, and the first to re-check becomes the new
leader, again matching serial retry-by-reissue semantics.

Storage is pluggable.  By default each wrapper owns a private in-process
:class:`MemoryCacheStore` (an ``OrderedDict`` LRU — the historical
behaviour).  The sharded cluster runtime instead hands every worker's
wrapper the *same* store (usually a :class:`repro.io.cachedb.
SQLiteCacheStore`) and the same :class:`SharedFlight`, which extends the
single-flight guarantee across workers: N workers racing on one prompt
still cost exactly one inner call, and the waiters count as *coalesced*
hits — the cluster's zero-duplicate-LLM-calls proof is built on these two
shared objects.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Protocol

from repro.llm.interface import LLMClient, LLMResponse

if TYPE_CHECKING:
    from repro.obs.hooks import RunObserver


class CacheStore(Protocol):
    """Storage contract behind :class:`CachingLLM`.

    Implementations must make each operation individually atomic and
    thread-safe; single-flight coordination is layered on top by
    :class:`SharedFlight` and is *not* the store's concern.
    """

    def get(self, prompt: str) -> tuple[str, float | None] | None:
        """Return ``(text, confidence)`` and refresh LRU recency, or None."""
        ...

    def put(self, prompt: str, text: str, confidence: float | None) -> int:
        """Insert an entry; return the number of entries evicted to fit."""
        ...

    def __len__(self) -> int: ...

    def clear(self) -> None: ...


class MemoryCacheStore:
    """In-process ``OrderedDict`` LRU — the default, ephemeral backend."""

    def __init__(self, max_entries: int | None = 10_000):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self._entries: OrderedDict[str, tuple[str, float | None]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, prompt: str) -> tuple[str, float | None] | None:
        with self._lock:
            entry = self._entries.get(prompt)
            if entry is not None:
                self._entries.move_to_end(prompt)
            return entry

    def put(self, prompt: str, text: str, confidence: float | None) -> int:
        with self._lock:
            self._entries[prompt] = (text, confidence)
            self._entries.move_to_end(prompt)
            evicted = 0
            while self.max_entries is not None and len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class SharedFlight:
    """Single-flight registry shared by every wrapper over one store.

    Holds the lock that serializes lookup decisions, the in-flight
    ``prompt -> Event`` map, and the lifetime count of *coalesced* calls —
    calls that would have duplicated an inner completion but instead waited
    for another caller's leader.  One instance per shared store: wrappers
    that share a store without sharing a flight lose the cross-wrapper
    de-duplication guarantee.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.inflight: dict[str, threading.Event] = {}
        self.coalesced = 0


class CachingLLM(LLMClient):
    """Exact-prompt LRU response cache around an inner client.

    Parameters
    ----------
    inner:
        The client that pays for misses.
    max_entries:
        LRU capacity of the default in-memory store; ``None`` means
        unbounded.  Ignored when an explicit ``store`` is passed (capacity
        then belongs to the store).
    observer:
        Optional run observer; hits, misses, coalesced waits and LRU
        evictions report to it.
    corruptor:
        Optional hook applied to the *text of cache hits* only (never to a
        freshly paid response): the chaos subsystem's cache-read-corruption
        injection point (:meth:`repro.runtime.chaos.ChaosController.
        attach_cache`).  ``None`` — the default and the production setting —
        means hits return exactly the stored bytes.
    store:
        Storage backend; defaults to a private :class:`MemoryCacheStore`.
        Cluster runs pass one shared (usually disk-backed) store to every
        worker's wrapper.
    flight:
        Single-flight registry; defaults to a private :class:`SharedFlight`.
        Must be shared exactly when ``store`` is shared.
    """

    def __init__(
        self,
        inner: LLMClient,
        max_entries: int | None = 10_000,
        observer: "RunObserver | None" = None,
        corruptor=None,
        store: CacheStore | None = None,
        flight: SharedFlight | None = None,
    ):
        super().__init__(name=f"cached({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.observer = observer
        self.corruptor = corruptor
        self.store: CacheStore = MemoryCacheStore(max_entries) if store is None else store
        self.flight = SharedFlight() if flight is None else flight
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0

    def _complete(self, prompt: str) -> str:
        return self._lookup(prompt)[0][0]

    def _lookup(self, prompt: str) -> tuple[tuple[str, float | None], bool]:
        """Resolve ``prompt`` to a ``(entry, paid)`` pair.

        ``paid`` is True only when *this* caller was the single-flight
        leader that issued the inner call; hits and waiters served by
        another leader's result cost nothing.
        """
        waited = False
        while True:
            with self.flight.lock:
                cached = self.store.get(prompt)
                if cached is not None:
                    self.hits += 1
                    if waited:
                        self.coalesced += 1
                        self.flight.coalesced += 1
                else:
                    event = self.flight.inflight.get(prompt)
                    if event is None:
                        event = self.flight.inflight[prompt] = threading.Event()
                        self.misses += 1
                        leader = True
                    else:
                        leader = False
            if cached is not None:
                if self.observer is not None:
                    self.observer.on_cache_hit()
                    if waited:
                        self.observer.on_cache_coalesced()
                return cached, False
            if not leader:
                # Another worker is completing this prompt; wait and re-check
                # (its failure leaves the cache empty, making us the leader).
                waited = True
                event.wait()
                continue
            if self.observer is not None:
                self.observer.on_cache_miss()
            try:
                response = self.inner.complete(prompt)
            except BaseException:
                with self.flight.lock:
                    self.flight.inflight.pop(prompt, None)
                event.set()
                raise
            entry = (response.text, response.confidence)
            with self.flight.lock:
                evicted = self.store.put(prompt, *entry)
                self.evictions += evicted
                self.flight.inflight.pop(prompt, None)
            event.set()
            if self.observer is not None:
                for _ in range(evicted):
                    self.observer.on_cache_eviction()
            return entry, True

    def complete(self, prompt: str) -> LLMResponse:
        """Serve from cache when possible; hits cost zero tokens.

        The wrapper's own usage tracker records only *paid* tokens (misses),
        so ``usage.total_tokens`` reflects actual spend.
        """
        if not prompt:
            raise ValueError("prompt must be non-empty")
        (text, confidence), paid = self._lookup(prompt)
        if not paid and self.corruptor is not None:
            text = self.corruptor(text)
        if paid:
            response = LLMResponse(
                text=text,
                prompt_tokens=self.tokenizer.count(prompt),
                completion_tokens=self.tokenizer.count(text),
                confidence=confidence,
            )
        else:
            response = LLMResponse(
                text=text, prompt_tokens=0, completion_tokens=0, confidence=confidence
            )
        self.usage.record(response)
        return response

    @property
    def max_entries(self) -> int | None:
        """Capacity of the underlying store, when it advertises one."""
        return getattr(self.store, "max_entries", None)

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from cache (0 when never called)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        """Lifetime cache statistics as one dict (the reporting surface).

        Counters are *lifetime*: :meth:`clear` drops cached entries but not
        these, so metrics built on them never silently rewind.  ``entries``
        reflects the (possibly shared) store; the other counters are this
        wrapper's own traffic.
        """
        with self.flight.lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "evictions": self.evictions,
                "coalesced": self.coalesced,
                "entries": len(self.store),
            }

    def clear(self) -> None:
        """Drop every cached entry; lifetime stats are preserved."""
        with self.flight.lock:
            self.store.clear()
