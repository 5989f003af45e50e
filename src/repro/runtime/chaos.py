"""Deterministic chaos injection: seeded fault plans over the whole stack.

PR 1's retry/breaker/degradation ladder and the serving layer's guarantees
(ledgers never overdrawn, no starvation, every request settles) had only
ever been exercised by :class:`~repro.llm.reliability.FlakyLLM`'s i.i.d.
coin flips.  Real incidents are *correlated*: a provider browns out for a
window, a region's latency triples, a cache returns bit-rotted entries, a
worker dies mid-wave, the process is killed between a checkpoint's tmp
write and its rename.  This module makes those incidents first-class,
declarative and — because everything is keyed off the shared
:class:`~repro.llm.reliability.SimulatedClock` and seeded RNG streams —
exactly reproducible.

The pieces:

* **Fault DSL** — small frozen dataclasses (:class:`ErrorBurst`,
  :class:`LatencyStorm`, :class:`MalformedPayload`, :class:`CacheCorruption`,
  :class:`EvictionStorm`, :class:`WorkerStall`, :class:`WorkerCrash`,
  :class:`CheckpointCrash`, :class:`TenantFlood`) collected in a
  :class:`FaultPlan`.  Windowed faults are active on a clock interval and
  can be scoped per model and per tenant — strictly more expressive than a
  flat failure rate.  Plans serialize to/from JSON so fault scenarios can be
  committed and replayed (``FaultPlan.from_json``), and :func:`preset` names
  the standard ones.
* **Injectors** — :class:`ChaosController` wires a plan into a stack:
  :meth:`~ChaosController.wrap_llm` puts a :class:`ChaosLLM` in front of any
  client (error bursts, latency storms, malformed payloads);
  :meth:`~ChaosController.attach_cache` installs cache read corruption and
  eviction storms on a :class:`~repro.llm.caching.CachingLLM`;
  :meth:`~ChaosController.scheduler_injector` kills/stalls threads-mode
  workers; :meth:`~ChaosController.checkpoint_crash_hook` dies mid-flush
  of a checkpoint (between a compaction's tmp write and rename, or with a
  delta line torn on disk); :meth:`~ChaosController.apply_floods`
  swells a serve request stream with a tenant's burst traffic.
* **Transparency contract** — with an empty plan (or outside every fault
  window) the injectors are exact pass-throughs: no extra RNG draw, no clock
  advance, no payload touch.  ``tests/equivalence.py`` pins this with
  chaos-wrapped scenarios that must stay bit-identical to the bare baseline.
* **Verification** — :class:`ChaosInvariantChecker` observes a run and then
  asserts the serving invariants plus ledger/checkpoint/trace consistency;
  any violation raises :class:`ChaosInvariantViolation` listing all of them.

See ``docs/chaos.md`` for the full DSL reference and recovery semantics.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.llm.interface import LLMClient, LLMResponse
from repro.llm.reliability import InjectedFaultError, SimulatedClock
from repro.obs.hooks import RunObserver
from repro.runtime.results import OUTCOME_TIERS
from repro.runtime.scheduler import WorkerCrashError
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:
    from repro.core.budget import LedgerBook
    from repro.io.runs import CheckpointState
    from repro.llm.caching import CachingLLM
    from repro.runtime.results import RunResult
    from repro.runtime.serve import ServeReport, ServeRequest

#: Payload-mutation modes for :class:`MalformedPayload` / :class:`CacheCorruption`.
MUTATION_MODES = ("truncate", "mojibake", "empty", "garbage")


class SimulatedCrash(RuntimeError):
    """The chaos subsystem "killed the process" at an injected crash point.

    Raised out of the checkpoint crash hook; tests and the chaos CLI catch
    it where a real deployment would restart, then prove recovery.
    """


def _tear_last_line(path) -> None:
    """Cut ``path``'s last line in half: what a crash mid-append leaves."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    with open(path, "rb+") as handle:
        handle.truncate(start + (len(data) - start) // 2)


def mutate_text(text: str, mode: str, rng) -> str:
    """Deterministically corrupt ``text`` the way broken transports do."""
    if mode == "empty":
        return ""
    if mode == "truncate":
        if not text:
            return text
        return text[: int(rng.integers(0, len(text)))]
    if mode == "mojibake":
        data = bytearray(text.encode("utf-8"))
        if not data:
            return text
        for _ in range(max(1, len(data) // 8)):
            data[int(rng.integers(0, len(data)))] = int(rng.integers(128, 256))
        return data.decode("utf-8", errors="replace")
    if mode == "garbage":
        length = int(rng.integers(1, 40))
        return "".join(chr(int(rng.integers(33, 127))) for _ in range(length))
    raise ValueError(f"unknown mutation mode {mode!r}; known: {MUTATION_MODES}")


# ------------------------------------------------------------------ fault DSL


def _check_window(start: float, end: float) -> None:
    if start < 0 or end <= start:
        raise ValueError(f"need 0 <= start < end, got [{start}, {end})")


@dataclass(frozen=True)
class ErrorBurst:
    """Provider brownout: calls in ``[start, end)`` fail (scoped, windowed).

    ``model``/``tenant`` of ``None`` match everything; a model string
    matches by substring so wrapped client names (``retry(gpt-3.5)``) scope
    naturally.  Failures raise :class:`~repro.llm.reliability.
    InjectedFaultError`, driving the *production* retry/breaker/degradation
    machinery, and are drawn per (prompt, attempt) so checkpoint/journal
    resumes see the identical burst.
    """

    kind: ClassVar[str] = "error_burst"
    start: float
    end: float
    failure_rate: float = 1.0
    model: str | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not 0.0 < self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in (0, 1]")

    def matches(self, now: float, model: str, tenant: str | None) -> bool:
        return (
            self.start <= now < self.end
            and (self.model is None or self.model in model)
            and (self.tenant is None or self.tenant == tenant)
        )


@dataclass(frozen=True)
class LatencyStorm:
    """Service-time inflation: every call in the window costs extra seconds."""

    kind: ClassVar[str] = "latency_storm"
    start: float
    end: float
    extra_seconds: float = 1.0
    model: str | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if self.extra_seconds <= 0:
            raise ValueError("extra_seconds must be positive")

    def matches(self, now: float, model: str, tenant: str | None) -> bool:
        return (
            self.start <= now < self.end
            and (self.model is None or self.model in model)
            and (self.tenant is None or self.tenant == tenant)
        )


@dataclass(frozen=True)
class MalformedPayload:
    """Corrupted completions: response text mutated before parsing.

    Exercises the :mod:`repro.llm.responses` parser's never-raise contract:
    a mutated completion must yield a parse or an explicit abstention.
    Token accounting keeps the provider's original counts — the bill
    reflects what was generated, not what survived the wire.
    """

    kind: ClassVar[str] = "malformed_payload"
    start: float
    end: float
    rate: float = 1.0
    modes: tuple[str, ...] = MUTATION_MODES
    model: str | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if not self.modes:
            raise ValueError("modes must be non-empty")
        for mode in self.modes:
            if mode not in MUTATION_MODES:
                raise ValueError(f"unknown mode {mode!r}; known: {MUTATION_MODES}")

    def matches(self, now: float, model: str, tenant: str | None) -> bool:
        return (
            self.start <= now < self.end
            and (self.model is None or self.model in model)
            and (self.tenant is None or self.tenant == tenant)
        )


@dataclass(frozen=True)
class CacheCorruption:
    """Cache read corruption: hits in the window return mutated text."""

    kind: ClassVar[str] = "cache_corruption"
    start: float
    end: float
    rate: float = 1.0
    modes: tuple[str, ...] = ("garbage", "truncate")

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        for mode in self.modes:
            if mode not in MUTATION_MODES:
                raise ValueError(f"unknown mode {mode!r}; known: {MUTATION_MODES}")


@dataclass(frozen=True)
class EvictionStorm:
    """Cold-cache events: the whole response cache is dropped at each time."""

    kind: ClassVar[str] = "eviction_storm"
    times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.times:
            raise ValueError("an eviction storm needs at least one time")
        if any(t < 0 for t in self.times):
            raise ValueError("eviction times must be >= 0")


@dataclass(frozen=True)
class WorkerStall:
    """A threads-mode dispatch worker hangs before its call (``None`` = any)."""

    kind: ClassVar[str] = "worker_stall"
    wave_index: int | None = None
    item_index: int | None = None
    stall_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.stall_seconds <= 0:
            raise ValueError("stall_seconds must be positive")

    def matches(self, wave_index: int, item_index: int) -> bool:
        return (self.wave_index is None or self.wave_index == wave_index) and (
            self.item_index is None or self.item_index == item_index
        )


@dataclass(frozen=True)
class WorkerCrash:
    """A threads-mode dispatch worker dies before its call (``None`` = any).

    The merge phase recovers crashed items by serial re-execution; because
    the crash fires before the LLM call, recovery duplicates nothing.
    """

    kind: ClassVar[str] = "worker_crash"
    wave_index: int | None = None
    item_index: int | None = None

    def matches(self, wave_index: int, item_index: int) -> bool:
        return (self.wave_index is None or self.wave_index == wave_index) and (
            self.item_index is None or self.item_index == item_index
        )


@dataclass(frozen=True)
class CheckpointCrash:
    """The process "dies" in the middle of a checkpoint flush.

    Fires on the ``flush_index``-th flush (0-based, counted per
    controller).  A compacting flush dies between its tmp write and the
    rename, after the previous generation was rotated to ``.bak``, so
    recovery must fall back to ``.bak``.  A delta flush dies with its
    appended line torn halfway, so recovery must drop the torn tail and
    resume from the previous flush.
    """

    kind: ClassVar[str] = "checkpoint_crash"
    flush_index: int = 0

    def __post_init__(self) -> None:
        if self.flush_index < 0:
            raise ValueError("flush_index must be >= 0")


@dataclass(frozen=True)
class TenantFlood:
    """One tenant bursts ``count`` extra requests starting at ``start``."""

    kind: ClassVar[str] = "tenant_flood"
    tenant: str = ""
    start: float = 0.0
    count: int = 1
    spacing: float = 0.0
    include_neighbors: bool = False

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("a tenant flood needs a tenant name")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.start < 0 or self.spacing < 0:
            raise ValueError("start and spacing must be >= 0")


FAULT_TYPES = (
    ErrorBurst,
    LatencyStorm,
    MalformedPayload,
    CacheCorruption,
    EvictionStorm,
    WorkerStall,
    WorkerCrash,
    CheckpointCrash,
    TenantFlood,
)
_FAULT_BY_KIND = {cls.kind: cls for cls in FAULT_TYPES}
_PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults — one chaos scenario, fully declarative.

    ``seed`` feeds every stochastic decision (which call of a burst fails,
    how a payload is mutated, which nodes a flood requests), so the same
    plan over the same workload reproduces the same incident bit-for-bit.
    """

    faults: tuple = ()
    seed: int = 0
    name: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FAULT_TYPES):
                raise TypeError(f"not a fault: {fault!r}")

    def of_type(self, *types) -> tuple:
        return tuple(f for f in self.faults if isinstance(f, types))

    @property
    def empty(self) -> bool:
        return not self.faults

    @property
    def has_tenant_scoped_faults(self) -> bool:
        """Whether any LLM fault is tenant-scoped (forces serial serve waves)."""
        return any(
            getattr(f, "tenant", None) is not None
            for f in self.of_type(ErrorBurst, LatencyStorm, MalformedPayload)
        )

    def to_json(self) -> str:
        payload = {
            "format_version": _PLAN_FORMAT_VERSION,
            "name": self.name,
            "seed": self.seed,
            "faults": [{"kind": f.kind, **asdict(f)} for f in self.faults],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        version = payload.get("format_version")
        if version != _PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported fault-plan format version {version!r}")
        faults = []
        for spec in payload.get("faults", []):
            spec = dict(spec)
            kind = spec.pop("kind", None)
            fault_cls = _FAULT_BY_KIND.get(kind)
            if fault_cls is None:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {sorted(_FAULT_BY_KIND)}"
                )
            allowed = {f.name for f in fields(fault_cls)}
            extra = set(spec) - allowed
            if extra:
                raise ValueError(f"unknown {kind} fields {sorted(extra)}")
            coerced = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in spec.items()
            }
            faults.append(fault_cls(**coerced))
        return cls(
            faults=tuple(faults),
            seed=int(payload.get("seed", 0)),
            name=str(payload.get("name", "custom")),
        )


#: The committed chaos scenarios: every fault family, alone and combined.
PRESET_NAMES = (
    "none",
    "error-burst",
    "latency-storm",
    "malformed-payload",
    "cache-chaos",
    "worker-crash",
    "checkpoint-crash",
    "tenant-flood",
    "everything",
)


def preset(name: str, seed: int = 0, tenant: str = "acme") -> FaultPlan:
    """A named standard fault plan (see :data:`PRESET_NAMES`).

    ``tenant`` names the victim of tenant-scoped presets; it must exist in
    the serve roster the plan runs against.
    """
    builders: dict[str, tuple] = {
        "none": (),
        "error-burst": (ErrorBurst(start=0.0, end=40.0, failure_rate=0.6),),
        "latency-storm": (LatencyStorm(start=0.0, end=60.0, extra_seconds=2.5),),
        "malformed-payload": (MalformedPayload(start=0.0, end=40.0, rate=0.5),),
        "cache-chaos": (
            CacheCorruption(start=0.0, end=60.0, rate=0.5),
            EvictionStorm(times=(5.0, 25.0)),
        ),
        "worker-crash": (
            WorkerCrash(wave_index=0, item_index=1),
            WorkerStall(wave_index=1, stall_seconds=0.01),
        ),
        "checkpoint-crash": (CheckpointCrash(flush_index=2),),
        "tenant-flood": (TenantFlood(tenant=tenant, start=0.0, count=24, spacing=0.1),),
        "everything": (
            ErrorBurst(start=5.0, end=25.0, failure_rate=0.5),
            LatencyStorm(start=10.0, end=30.0, extra_seconds=1.5),
            MalformedPayload(start=0.0, end=20.0, rate=0.3),
            CacheCorruption(start=0.0, end=40.0, rate=0.3),
            EvictionStorm(times=(15.0,)),
            TenantFlood(tenant=tenant, start=2.0, count=12, spacing=0.2),
        ),
    }
    if name not in builders:
        raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    return FaultPlan(faults=builders[name], seed=seed, name=name)


# ------------------------------------------------------------------ injectors


class ChaosLLM(LLMClient):
    """Fault-plan-driven wrapper: bursts, storms, malformed payloads.

    Fully transparent outside fault windows — no RNG draw, no clock
    advance, no payload touch — so a run under an empty plan is
    bit-identical to the unwrapped stack.  Stochastic decisions are keyed
    by (prompt, per-prompt attempt), the same resume-stability idiom as
    ``FlakyLLM(key="prompt")``: replayed work never shifts later draws.
    """

    def __init__(
        self,
        inner: LLMClient,
        controller: "ChaosController",
        model: str | None = None,
    ):
        super().__init__(name=f"chaos({inner.name})", tokenizer=inner.tokenizer)
        self.inner = inner
        self.controller = controller
        self.model = model if model is not None else inner.name
        self.injected_errors = 0
        self.mutated_payloads = 0
        self.storm_seconds = 0.0
        self._attempts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def _complete(self, prompt: str) -> str:
        raise AssertionError("unreachable: complete() is overridden")

    def _attempt(self, category: str, prompt: str) -> int:
        with self._lock:
            key = (category, prompt)
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            return attempt

    def complete(self, prompt: str) -> LLMResponse:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        controller = self.controller
        plan = controller.plan
        now = controller.now
        tenant = controller.current_tenant
        bursts = [
            f
            for f in plan.of_type(ErrorBurst)
            if f.matches(now, self.model, tenant)
        ]
        if bursts:
            rate = max(f.failure_rate for f in bursts)
            rng = spawn_rng(plan.seed, "chaos-error", prompt, self._attempt("error", prompt))
            if rng.random() < rate:
                self.injected_errors += 1
                controller.note(
                    "error_burst", "llm", f"t={now:.3f} model={self.model} tenant={tenant}"
                )
                raise InjectedFaultError(
                    f"chaos error burst at t={now:.3f} (rate={rate})"
                )
        response = self.inner.complete(prompt)
        storms = [
            f
            for f in plan.of_type(LatencyStorm)
            if f.matches(now, self.model, tenant)
        ]
        if storms:
            extra = max(f.extra_seconds for f in storms)
            if controller.clock is not None:
                controller.clock.advance(extra)
            self.storm_seconds += extra
            controller.note("latency_storm", "llm", f"t={now:.3f} extra={extra}")
        malformed = [
            f
            for f in plan.of_type(MalformedPayload)
            if f.matches(now, self.model, tenant)
        ]
        if malformed:
            fault = malformed[0]
            rng = spawn_rng(
                plan.seed, "chaos-malform", prompt, self._attempt("malform", prompt)
            )
            if rng.random() < fault.rate:
                mode = fault.modes[int(rng.integers(0, len(fault.modes)))]
                mutated = mutate_text(response.text, mode, rng)
                self.mutated_payloads += 1
                controller.note("malformed_payload", "llm", f"t={now:.3f} mode={mode}")
                # Keep the provider's token counts: the bill reflects what
                # was generated, not what survived the wire.
                response = LLMResponse(
                    text=mutated,
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens,
                    confidence=response.confidence,
                )
        self.usage.record(response)
        return response


class CacheChaosAgent:
    """Per-cache injector: read corruption (as the cache's ``corruptor``
    hook) plus eviction storms (driven by :meth:`ChaosController.poll`)."""

    def __init__(self, controller: "ChaosController", cache: "CachingLLM"):
        self.controller = controller
        self.cache = cache
        self.corrupted_reads = 0
        self.evictions_fired = 0
        self._draws = 0
        self._lock = threading.Lock()

    def corrupt(self, text: str) -> str:
        """The :class:`~repro.llm.caching.CachingLLM` hit hook."""
        controller = self.controller
        now = controller.now
        active = [
            f
            for f in controller.plan.of_type(CacheCorruption)
            if f.start <= now < f.end
        ]
        if not active:
            return text
        fault = active[0]
        with self._lock:
            self._draws += 1
            draw = self._draws
        rng = spawn_rng(controller.plan.seed, "chaos-cache", draw)
        if rng.random() >= fault.rate:
            return text
        mode = fault.modes[int(rng.integers(0, len(fault.modes)))]
        self.corrupted_reads += 1
        controller.note("cache_corruption", "cache", f"t={now:.3f} mode={mode}")
        return mutate_text(text, mode, rng)

    def poll(self, last: float, now: float) -> None:
        """Fire every eviction storm whose time fell in ``(last, now]``."""
        for storm in self.controller.plan.of_type(EvictionStorm):
            for when in storm.times:
                if last < when <= now:
                    self.cache.clear()
                    self.evictions_fired += 1
                    self.controller.note("eviction_storm", "cache", f"t={when:.3f}")


class SchedulerFaultInjector:
    """Threads-mode worker faults, consulted by ``QueryScheduler._phase1``."""

    def __init__(self, controller: "ChaosController"):
        self.controller = controller
        self.stalls = 0
        self.crashes = 0
        self._lock = threading.Lock()

    def before_item(self, wave_index: int, item_index: int) -> None:
        plan = self.controller.plan
        for fault in plan.of_type(WorkerStall):
            if fault.matches(wave_index, item_index):
                with self._lock:
                    self.stalls += 1
                self.controller.note(
                    "worker_stall", "scheduler", f"wave={wave_index} item={item_index}"
                )
                # Real (bounded) sleep: the point is wall-clock reordering
                # pressure on the pool, not simulated time.
                time.sleep(min(fault.stall_seconds, 0.05))
        for fault in plan.of_type(WorkerCrash):
            if fault.matches(wave_index, item_index):
                with self._lock:
                    self.crashes += 1
                self.controller.note(
                    "worker_crash", "scheduler", f"wave={wave_index} item={item_index}"
                )
                raise WorkerCrashError(
                    f"chaos killed worker on wave {wave_index}, item {item_index}"
                )


class ChaosController:
    """One chaos run's wiring hub: plan + clock + fault log + injectors.

    Construct it once per run, then attach the layers the plan targets::

        chaos = ChaosController(preset("error-burst"), clock=clock, observer=obs)
        llm = chaos.wrap_llm(resilient(backend, clock=clock))
        chaos.attach_cache(cache)
        scheduler = QueryScheduler(mode="threads", fault_injector=chaos.scheduler_injector())
        checkpointer = RunCheckpointer(path, crash_hook=chaos.checkpoint_crash_hook())

    Every injected fault lands in :attr:`fault_log` and (when an observer is
    wired) in ``on_chaos_fault`` — the audit trail the invariant checker and
    the chaos experiment read back.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock: SimulatedClock | None = None,
        observer: "RunObserver | None" = None,
    ):
        self.plan = plan
        self.clock = clock
        self.observer = observer
        self.current_tenant: str | None = None
        self.fault_log: list[tuple[str, str, str]] = []
        self._cache_agents: list[CacheChaosAgent] = []
        self._flush_count = 0
        self._last_poll = float("-inf")
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        return float(self.clock.now) if self.clock is not None else 0.0

    def note(self, kind: str, target: str, detail: str) -> None:
        with self._lock:
            self.fault_log.append((kind, target, detail))
        if self.observer is not None:
            self.observer.on_chaos_fault(kind, target, detail)

    def fault_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for kind, _, _ in self.fault_log:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # ----------------------------------------------------------- attachments

    def wrap_llm(self, inner: LLMClient, model: str | None = None) -> ChaosLLM:
        """Put the plan's LLM faults in front of ``inner``."""
        return ChaosLLM(inner, self, model=model)

    def attach_cache(self, cache: "CachingLLM") -> CacheChaosAgent:
        """Install read corruption + eviction storms on ``cache``."""
        agent = CacheChaosAgent(self, cache)
        cache.corruptor = agent.corrupt
        self._cache_agents.append(agent)
        return agent

    def scheduler_injector(self) -> SchedulerFaultInjector:
        """Worker stall/crash injector for ``QueryScheduler(fault_injector=...)``."""
        return SchedulerFaultInjector(self)

    def checkpoint_crash_hook(self) -> Callable:
        """``RunCheckpointer(crash_hook=...)`` hook dying on planned flushes.

        The checkpointer calls it with a compaction's tmp file (rename still
        pending) or with the log a delta line was just appended to; in the
        second case the hook tears that line before dying.
        """
        crashes = self.plan.of_type(CheckpointCrash)

        def hook(path) -> None:
            with self._lock:
                flush_index = self._flush_count
                self._flush_count += 1
            for fault in crashes:
                if fault.flush_index == flush_index:
                    self.note("checkpoint_crash", "checkpoint", f"flush={flush_index}")
                    if path.name.endswith(".tmp"):
                        window = "tmp written, rename pending"
                    else:
                        _tear_last_line(path)
                        window = "delta line torn"
                    raise SimulatedCrash(
                        f"chaos killed the process during checkpoint flush "
                        f"{flush_index} ({window})"
                    )

        return hook

    def apply_floods(
        self, requests: "list[ServeRequest]", nodes: "list[int] | None" = None
    ) -> "list[ServeRequest]":
        """Swell a request stream with every planned tenant flood.

        Flood nodes are drawn (seeded) from ``nodes``, defaulting to the
        distinct nodes of the base stream; arrivals step by ``spacing``
        from ``start``.  Returns a new list — the base stream is untouched.
        """
        floods = self.plan.of_type(TenantFlood)
        if not floods:
            return list(requests)
        from repro.runtime.serve import ServeRequest

        pool = sorted(nodes if nodes is not None else {r.node for r in requests})
        if not pool:
            raise ValueError("tenant floods need a node pool to draw from")
        merged = list(requests)
        for index, flood in enumerate(floods):
            rng = spawn_rng(self.plan.seed, "chaos-flood", index)
            # Distinct nodes while the pool allows: duplicate prompts would
            # warm the response cache, and that warmth is run-scoped state a
            # crash/resume legitimately loses — keeping floods collision-free
            # keeps crash resumes bit-exact (see docs/chaos.md).
            draws = rng.choice(
                len(pool), size=flood.count, replace=flood.count > len(pool)
            )
            for k, draw in enumerate(draws):
                merged.append(
                    ServeRequest(
                        tenant=flood.tenant,
                        node=int(pool[int(draw)]),
                        arrival=flood.start + flood.spacing * k,
                        include_neighbors=flood.include_neighbors,
                    )
                )
            self.note(
                "tenant_flood",
                "serve",
                f"tenant={flood.tenant} count={flood.count} start={flood.start}",
            )
        return merged

    def poll(self, now: float | None = None) -> None:
        """Advance time-triggered faults (eviction storms) to ``now``.

        The serving layer calls this each dispatch cycle; standalone runs
        call it manually between waves.
        """
        if now is None:
            now = self.now
        last = self._last_poll
        self._last_poll = max(last, now)
        for agent in self._cache_agents:
            agent.poll(last, now)


# --------------------------------------------------------------- verification


class ChaosInvariantViolation(AssertionError):
    """One or more invariants failed after a chaos run."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n- " + "\n- ".join(violations)
        )


class ChaosInvariantChecker(RunObserver):
    """Observer + post-run auditor for the serving invariants under faults.

    Attach as the serving layer's observer, run the (chaotic) workload,
    then call :meth:`verify` with whatever artifacts exist — the serve
    report, the ledger book, a checkpoint state, a run result.  Checks:

    * every admitted request settles (admissions vs completions);
    * every outcome carries a valid status and an explicit, valid tier;
    * per-outcome chronology (queued ≤ dispatched ≤ completed, ≥ arrival);
    * no tenant or global ledger is overdrawn, and charged tokens equal the
      records' token totals (spend conservation);
    * checkpoint-vs-result consistency (checkpointed records are a subset
      of the result, byte-equal on shared nodes);
    * trace lines (when instrumentation is supplied) are well-formed.

    Inherits the no-op :class:`~repro.obs.hooks.RunObserver` surface, so it
    can sit anywhere an observer is accepted.
    """

    def __init__(self) -> None:
        self.admissions: list[tuple[str, str, int]] = []
        self.completions: list[tuple[str, str, str, float]] = []
        self.cycles: list[tuple[int, int, int]] = []
        self.chaos_faults: list[tuple[str, str, str]] = []
        self.checkpoint_flushes = 0
        self.checkpoint_recoveries: list[tuple[int, str]] = []
        self._lock = threading.Lock()

    # -- observed events (the RunObserver surface this checker implements) --

    def on_serve_admission(self, tenant: str, decision: str, depth: int) -> None:
        with self._lock:
            self.admissions.append((tenant, decision, depth))

    def on_serve_cycle(self, cycle_index: int, queued: int, planned: int) -> None:
        with self._lock:
            self.cycles.append((cycle_index, queued, planned))

    def on_serve_complete(self, tenant: str, status: str, tier: str, latency: float) -> None:
        with self._lock:
            self.completions.append((tenant, status, tier, latency))

    def on_chaos_fault(self, kind: str, target: str, detail: str) -> None:
        with self._lock:
            self.chaos_faults.append((kind, target, detail))

    def on_checkpoint_flush(self, num_records: int) -> None:
        with self._lock:
            self.checkpoint_flushes += 1

    def on_checkpoint_recovered(self, num_records: int, reason: str) -> None:
        with self._lock:
            self.checkpoint_recoveries.append((num_records, reason))

    # ------------------------------------------------------------- the audit

    def check(
        self,
        report: "ServeReport | None" = None,
        book: "LedgerBook | None" = None,
        num_submitted: int | None = None,
        checkpoint: "CheckpointState | None" = None,
        result: "RunResult | None" = None,
        instrumentation=None,
    ) -> list[str]:
        """Run every applicable invariant; return the violations found."""
        violations: list[str] = []
        violations += self._check_events()
        if report is not None:
            violations += self._check_report(report, num_submitted)
        if book is not None:
            violations += self._check_ledgers(book, report)
        if checkpoint is not None and result is not None:
            violations += self._check_checkpoint(checkpoint, result)
        if instrumentation is not None:
            violations += self._check_trace(instrumentation)
        return violations

    def verify(self, **kwargs) -> None:
        """:meth:`check`, raising :class:`ChaosInvariantViolation` on failure."""
        violations = self.check(**kwargs)
        if violations:
            raise ChaosInvariantViolation(violations)

    def _check_events(self) -> list[str]:
        violations = []
        admitted = sum(
            1 for _, decision, _ in self.admissions if decision.startswith("admitted")
        )
        if admitted != len(self.completions):
            violations.append(
                f"{admitted} requests admitted but {len(self.completions)} "
                "completed: an admitted request never settled"
            )
        from repro.runtime.serve import ADMISSION_DECISIONS, SERVE_STATUSES

        for tenant, decision, depth in self.admissions:
            if decision not in ADMISSION_DECISIONS:
                violations.append(f"unknown admission decision {decision!r} ({tenant})")
            if depth < 0:
                violations.append(f"negative queue depth {depth} for {tenant}")
        for tenant, status, tier, latency in self.completions:
            if status not in SERVE_STATUSES:
                violations.append(f"unknown completion status {status!r} ({tenant})")
            if latency < 0:
                violations.append(f"negative completion latency {latency} ({tenant})")
        return violations

    @staticmethod
    def _valid_tier(status: str, tier: str) -> bool:
        from repro.runtime.serve import ADMISSION_DECISIONS

        if status == "rejected":
            return tier in ADMISSION_DECISIONS and tier.startswith("rejected")
        return tier in OUTCOME_TIERS or tier == "degraded_pruned"

    def _check_report(self, report, num_submitted: int | None) -> list[str]:
        from repro.runtime.serve import SERVE_STATUSES

        violations = []
        if num_submitted is not None and len(report.outcomes) != num_submitted:
            violations.append(
                f"{num_submitted} requests submitted but {len(report.outcomes)} "
                "outcomes produced: a request was lost or duplicated"
            )
        for outcome in report.outcomes:
            label = f"{outcome.request.tenant}/{outcome.request.node}"
            if outcome.status not in SERVE_STATUSES:
                violations.append(f"{label}: unknown status {outcome.status!r}")
            if not self._valid_tier(outcome.status, outcome.tier):
                violations.append(
                    f"{label}: tier {outcome.tier!r} invalid for status {outcome.status!r}"
                )
            if outcome.status != "rejected" and outcome.record is None:
                violations.append(f"{label}: served/degraded outcome without a record")
            arrival = outcome.request.arrival
            if outcome.completed_at + 1e-9 < arrival:
                violations.append(f"{label}: completed before it arrived")
            if outcome.queued_at is not None and outcome.queued_at + 1e-9 < arrival:
                violations.append(f"{label}: queued before it arrived")
            if (
                outcome.dispatched_at is not None
                and outcome.queued_at is not None
                and outcome.dispatched_at + 1e-9 < outcome.queued_at
            ):
                violations.append(f"{label}: dispatched before it queued")
            if (
                outcome.dispatched_at is not None
                and outcome.completed_at + 1e-9 < outcome.dispatched_at
            ):
                violations.append(f"{label}: completed before it dispatched")
            record = outcome.record
            if record is not None and (
                record.prompt_tokens < 0 or record.completion_tokens < 0
            ):
                violations.append(f"{label}: negative token counts on its record")
        return violations

    def _check_ledgers(self, book, report) -> list[str]:
        violations = []
        charged: dict[str, int] = {}
        if report is not None:
            for outcome in report.outcomes:
                if outcome.record is not None:
                    tenant = outcome.request.tenant
                    charged[tenant] = charged.get(tenant, 0) + outcome.record.total_tokens
        total_spent = 0
        for name, ledger in sorted(book.tenants.items()):
            total_spent += ledger.spent
            if ledger.budget is not None and ledger.spent > ledger.budget:
                violations.append(
                    f"tenant {name} overdrawn: spent {ledger.spent} of "
                    f"budget {ledger.budget}"
                )
            if (
                ledger.cost_budget_usd is not None
                and ledger.spent_usd > ledger.cost_budget_usd + 1e-9
            ):
                violations.append(
                    f"tenant {name} overdrawn in dollars: spent {ledger.spent_usd:.6f} "
                    f"of {ledger.cost_budget_usd:.6f}"
                )
            if report is not None and ledger.spent != charged.get(name, 0):
                violations.append(
                    f"tenant {name} ledger ({ledger.spent} tokens) disagrees with "
                    f"its records ({charged.get(name, 0)} tokens)"
                )
        g = book.global_ledger
        if g is not None:
            if g.budget is not None and g.spent > g.budget:
                violations.append(
                    f"global ledger overdrawn: spent {g.spent} of budget {g.budget}"
                )
            if g.spent != total_spent:
                violations.append(
                    f"global ledger ({g.spent} tokens) disagrees with the tenant "
                    f"ledgers ({total_spent} tokens)"
                )
        return violations

    @staticmethod
    def _check_checkpoint(checkpoint, result) -> list[str]:
        violations = []
        by_node = {r.node: r for r in result.records}
        for record in checkpoint.records:
            final = by_node.get(record.node)
            if final is None:
                violations.append(
                    f"checkpoint carries node {record.node} absent from the result"
                )
            elif final != record:
                violations.append(
                    f"checkpoint record for node {record.node} disagrees with the result"
                )
        return violations

    @staticmethod
    def _check_trace(instrumentation) -> list[str]:
        violations = []
        for index, line in enumerate(instrumentation.trace_lines()):
            if not isinstance(line, dict) or "kind" not in line:
                violations.append(f"trace line {index} is malformed: {line!r}")
        return violations
