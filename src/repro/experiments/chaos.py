"""Chaos sweep — fault intensity vs accuracy, goodput and recovery time.

An extension beyond the paper's evaluation: Sec. V buys classification
accuracy with a token budget under *healthy* infrastructure.  This
experiment measures what the same serving stack delivers while the
infrastructure is actively failing — provider error bursts, latency
storms and corrupted completion payloads injected by the deterministic
chaos subsystem (:mod:`repro.runtime.chaos`) at swept intensities — and
how fast it recovers from a process crash mid-run.

Each cell serves the same recorded request stream three times:

1. **chaotic run** with a write-ahead :class:`~repro.runtime.serve.
   ServeJournal`, invariants audited by the
   :class:`~repro.runtime.chaos.ChaosInvariantChecker`;
2. **full-journal resume** on a fresh stack — must replay bit-identical
   outcomes while issuing **zero** LLM calls (the duplicate-call column);
3. **crash resume**: the journal truncated to half its cycles (the state
   a mid-run crash leaves), resumed on a fresh stack — recovery time is
   the simulated seconds the resume needs to finish the remaining work.

Expected shapes: accuracy and full-fidelity service decay gracefully with
intensity (retries and the degradation ladder absorb bursts; malformed
payloads become abstentions, never crashes); every cell's invariants hold;
duplicate calls stay 0 and resumes stay replay-exact at every intensity.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.common import ExperimentSetup, load_setup
from repro.experiments.report import render_table
from repro.experiments.table4 import fit_scorer
from repro.llm.reliability import LatencyLLM, SimulatedClock, resilient
from repro.runtime.chaos import (
    CacheCorruption,
    ChaosController,
    ChaosInvariantChecker,
    ErrorBurst,
    EvictionStorm,
    FaultPlan,
    LatencyStorm,
    MalformedPayload,
    WorkerCrash,
    WorkerStall,
)
from repro.runtime.fallback import DegradationLadder
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import (
    AdmissionPolicy,
    ServeJournal,
    ServeReport,
    ServeRequest,
    ServingLayer,
    TenantSpec,
)

#: Swept fault intensities; 0 is the fault-free baseline cell.
INTENSITIES = (0.0, 0.25, 0.5, 1.0)

#: Per-request simulated service latency (the LatencyLLM profile).
SECONDS_PER_CALL = 0.5

PLAN_SEED = 31


def scaled_plan(intensity: float, seed: int = PLAN_SEED) -> FaultPlan:
    """A correlated incident whose severity scales with ``intensity``.

    At 0 the plan is empty (the transparency-contract baseline); above 0
    an error burst, a latency storm and a malformed-payload window overlap
    over the first half of the run, rates/inflation proportional to
    ``intensity``.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must be in [0, 1]")
    if intensity == 0.0:
        return FaultPlan(name="baseline", seed=seed)
    return FaultPlan(
        faults=(
            ErrorBurst(start=0.0, end=30.0, failure_rate=min(1.0, 0.7 * intensity)),
            LatencyStorm(start=5.0, end=35.0, extra_seconds=2.0 * intensity),
            MalformedPayload(start=0.0, end=30.0, rate=min(1.0, 0.5 * intensity)),
        ),
        seed=seed,
        name=f"incident@{intensity:g}",
    )


@dataclass(frozen=True)
class ChaosCell:
    """One operating point of the fault-intensity sweep."""

    intensity: float
    offered: int
    goodput: int
    accuracy: float
    served_full: int
    degraded: int
    rejected: int
    p99_seconds: float
    makespan_seconds: float
    injected_faults: int
    journaled_cycles: int
    duplicate_calls: int
    recovery_seconds: float
    replay_exact: bool
    violations: tuple[str, ...]


@dataclass
class ChaosResult:
    dataset: str
    cells: list[ChaosCell]

    def cell(self, intensity: float) -> ChaosCell:
        for cell in self.cells:
            if cell.intensity == intensity:
                return cell
        raise KeyError(f"no cell at intensity {intensity}")


def default_tenants() -> list[TenantSpec]:
    return [
        TenantSpec("alpha", weight=2, max_queue_depth=48),
        TenantSpec("beta", weight=1, max_queue_depth=32),
        TenantSpec("gamma", weight=1, max_queue_depth=32),
    ]


def make_stream(
    tenants: list[TenantSpec], setup: ExperimentSetup, offered: int,
    arrival_window: float,
) -> list[ServeRequest]:
    """Round-robin stream over *distinct* query nodes.

    Distinct nodes keep prompts unique, so the per-(prompt, attempt) chaos
    draws make crash resumes exactly replay-stable (a prompt repeated
    across the crash point would legitimately re-draw its faults).
    """
    if offered > len(setup.queries):
        raise ValueError("offered exceeds the distinct query pool")
    step = arrival_window / offered if offered else 0.0
    return [
        ServeRequest(
            tenant=tenants[i % len(tenants)].name,
            node=int(setup.queries[i]),
            arrival=i * step,
            include_neighbors=True,
        )
        for i in range(offered)
    ]


@dataclass
class ChaosStack:
    """One fully wired chaotic serving stack (fresh per run/resume)."""

    layer: ServingLayer
    chaos: ChaosController
    checker: ChaosInvariantChecker
    base_llm: object  # the innermost client; its usage counts real LLM calls
    cache: object | None = None  # the CachingLLM, when the plan targets one


def build_stack(
    setup: ExperimentSetup,
    plan: FaultPlan,
    surrogate=None,
    tenants: list[TenantSpec] | None = None,
    policy: AdmissionPolicy | None = None,
    model: str = "gpt-3.5",
    workers: int | None = None,
) -> ChaosStack:
    """Wire chaos → latency → retry/breaker → engine → serving layer.

    The :class:`~repro.runtime.chaos.ChaosLLM` sits *inside* the resilient
    wrapper so injected error bursts drive the production retry/breaker
    machinery, re-drawn per attempt; latency sits inside chaos so storms
    inflate on top of the base service time.  A response cache (with the
    plan's corruption/eviction agents attached) and a threads-mode batched
    scheduler (with the worker fault injector) are wired in exactly when
    the plan carries faults targeting them; ``workers`` overrides the
    scheduler concurrency (``None``: 4 when worker faults are planned).
    """
    clock = SimulatedClock()
    checker = ChaosInvariantChecker()
    chaos = ChaosController(plan, clock=clock, observer=checker)
    base = setup.make_llm(model)
    llm = LatencyLLM(base, clock=clock, seconds_per_call=SECONDS_PER_CALL)
    llm = chaos.wrap_llm(llm, model=model)
    cache = None
    if plan.of_type(CacheCorruption, EvictionStorm):
        from repro.llm.caching import CachingLLM

        cache = CachingLLM(llm)
        chaos.attach_cache(cache)
        llm = cache
    # Resume-stable resilience: zero jitter and a disabled breaker keep every
    # stochastic decision keyed per (prompt, attempt) — the ChaosLLM's own
    # idiom — so a crash/resume replays the exact fault pattern.  A breaker
    # (cross-call state a restarted process would not have) or jittered
    # backoff (draws keyed by global call order) would make the resumed
    # timeline legitimately diverge from the uninterrupted one.
    llm = resilient(
        llm,
        max_attempts=4,
        jitter=0.0,
        failure_threshold=10**9,
        seed=17,
        clock=clock,
    )
    scheduler = None
    if workers is None:
        workers = 4 if plan.of_type(WorkerStall, WorkerCrash) else 0
    if workers:
        scheduler = QueryScheduler(
            max_concurrency=workers,
            mode="threads",
            fault_injector=chaos.scheduler_injector(),
        )
    engine = setup.make_engine(
        "1-hop",
        llm=llm,
        clock=clock,
        scheduler=scheduler,
        ladder=DegradationLadder(surrogate=surrogate),
    )
    layer = ServingLayer(
        engine,
        tenants if tenants is not None else default_tenants(),
        policy=policy
        or AdmissionPolicy(degrade_watermark=24, shed_watermark=64, wave_quota=8),
        price_model=model,
        observer=checker,
        chaos=chaos,
    )
    return ChaosStack(
        layer=layer, chaos=chaos, checker=checker, base_llm=base, cache=cache
    )


def outcome_signature(report: ServeReport) -> list[tuple]:
    """Bit-level identity of a serve run, for replay-exactness checks."""
    return [
        (
            o.request.tenant,
            o.request.node,
            o.status,
            o.tier,
            o.completed_at,
            None if o.record is None else o.record.total_tokens,
            None if o.record is None else o.record.predicted_label,
        )
        for o in report.outcomes
    ]


def run_cell(
    setup: ExperimentSetup,
    intensity: float,
    stream: list[ServeRequest],
    surrogate=None,
    journal_dir: str | Path | None = None,
) -> ChaosCell:
    """Run one sweep cell: chaotic run + full resume + crash resume."""
    with tempfile.TemporaryDirectory() as fallback:
        base_dir = Path(journal_dir) if journal_dir is not None else Path(fallback)
        path = base_dir / f"chaos-{intensity:g}.journal"
        if path.exists():
            path.unlink()

        plan = scaled_plan(intensity)
        stack = build_stack(setup, plan, surrogate=surrogate)
        report = stack.layer.replay(stream, journal=ServeJournal(path))
        violations = stack.checker.check(
            report=report, book=stack.layer.book, num_submitted=len(stream)
        )
        signature = outcome_signature(report)
        answered = [o.record for o in report.outcomes if o.answered]
        accuracy = (
            sum(r.correct for r in answered) / len(answered) if answered else 0.0
        )
        statuses = report.status_counts

        # Full-journal resume: every cycle replays from disk — zero calls.
        full = build_stack(setup, plan, surrogate=surrogate)
        full_report = full.layer.replay(stream, journal=ServeJournal(path))
        duplicate_calls = full.base_llm.usage.num_queries
        replay_exact = outcome_signature(full_report) == signature

        # Crash resume: half the cycles survive; measure time-to-finish.
        half_journal = ServeJournal(path)
        keep = len(half_journal.cycles) // 2
        half_journal.truncate(keep)
        crash_now = (
            float(half_journal.cycles[-1]["now_after"]) if half_journal.cycles else 0.0
        )
        resumed = build_stack(setup, plan, surrogate=surrogate)
        resumed_report = resumed.layer.replay(stream, journal=half_journal)
        violations += resumed.checker.check(
            report=resumed_report, book=resumed.layer.book, num_submitted=len(stream)
        )
        replay_exact = replay_exact and outcome_signature(resumed_report) == signature
        recovery_seconds = max(0.0, resumed.layer.now - crash_now)

        return ChaosCell(
            intensity=intensity,
            offered=report.num_requests,
            goodput=report.goodput,
            accuracy=accuracy,
            served_full=statuses["served"],
            degraded=statuses["degraded"],
            rejected=statuses["rejected"],
            p99_seconds=report.latency_percentile(99),
            makespan_seconds=report.makespan_seconds,
            injected_faults=len(stack.chaos.fault_log),
            journaled_cycles=report.cycles,
            duplicate_calls=duplicate_calls,
            recovery_seconds=recovery_seconds,
            replay_exact=replay_exact,
            violations=tuple(violations),
        )


def run_chaos(
    dataset: str = "cora",
    num_queries: int = 120,
    offered: int = 36,
    intensities: tuple[float, ...] = INTENSITIES,
    use_surrogate: bool = True,
    scale: float | None = None,
) -> ChaosResult:
    """Sweep fault intensity over the same recorded request stream."""
    setup = load_setup(dataset, num_queries=num_queries, scale=scale)
    surrogate = fit_scorer(setup) if use_surrogate else None
    tenants = default_tenants()
    stream = make_stream(
        tenants, setup, offered, arrival_window=offered * SECONDS_PER_CALL
    )
    cells = [
        run_cell(setup, intensity, stream, surrogate=surrogate)
        for intensity in intensities
    ]
    return ChaosResult(dataset=dataset, cells=cells)


@dataclass(frozen=True)
class CheckpointDemo:
    """Outcome of one checkpoint crash/recovery demonstration."""

    crashed: bool
    records_at_crash: int
    recovered_records: int
    recovery_reason: str | None
    duplicate_calls: int
    identical: bool


def run_checkpoint_demo(
    setup: ExperimentSetup,
    plan: FaultPlan,
    path: str | Path,
    num_nodes: int = 12,
    model: str = "gpt-3.5",
) -> CheckpointDemo:
    """Crash a checkpointed run at the plan's :class:`~repro.runtime.chaos.
    CheckpointCrash` point, then recover.

    Proves the durability story end-to-end: a crash mid-append leaves a torn
    delta line that recovery drops (a crash mid-compaction leaves the
    ``.bak`` generation that recovery restores), the resumed run re-issues
    LLM calls only for *unflushed* work, and the final records are
    byte-identical to an uninterrupted baseline.
    """
    from repro.io.runs import RunCheckpointer
    from repro.runtime.chaos import SimulatedCrash

    nodes = [int(v) for v in setup.queries[:num_nodes]]
    baseline = setup.make_engine("1-hop", model=model).run(nodes)

    chaos = ChaosController(plan)
    crash_llm = setup.make_llm(model)
    crash_engine = setup.make_engine("1-hop", llm=crash_llm)
    crasher = RunCheckpointer(
        path, flush_every=1, crash_hook=chaos.checkpoint_crash_hook()
    )
    crashed = False
    try:
        crash_engine.run(nodes, checkpointer=crasher)
    except SimulatedCrash:
        crashed = True
    records_at_crash = crash_llm.usage.num_queries

    checker = ChaosInvariantChecker()
    recoverer = RunCheckpointer(path, flush_every=1, observer=checker)
    resumed_llm = setup.make_llm(model)
    result = setup.make_engine("1-hop", llm=resumed_llm).run(
        nodes, checkpointer=recoverer
    )
    recovered = recoverer.resumed_records
    reason = checker.checkpoint_recoveries[0][1] if checker.checkpoint_recoveries else None
    duplicate_calls = resumed_llm.usage.num_queries - (len(nodes) - recovered)
    return CheckpointDemo(
        crashed=crashed,
        records_at_crash=records_at_crash,
        recovered_records=recovered,
        recovery_reason=reason,
        duplicate_calls=duplicate_calls,
        identical=result.records == baseline.records,
    )


def format_chaos(result: ChaosResult) -> str:
    rows = []
    for cell in result.cells:
        rows.append(
            (
                f"{cell.intensity:g}",
                cell.offered,
                cell.goodput,
                f"{cell.accuracy:.1%}",
                cell.served_full,
                cell.degraded,
                cell.rejected,
                f"{cell.p99_seconds:.1f}",
                cell.injected_faults,
                f"{cell.recovery_seconds:.1f}",
                cell.duplicate_calls,
                "yes" if cell.replay_exact else "NO",
                len(cell.violations) or "-",
            )
        )
    table = render_table(
        [
            "Intensity",
            "Offered",
            "Goodput",
            "Acc",
            "Full",
            "Degraded",
            "Rejected",
            "p99 (s)",
            "Faults",
            "Recovery (s)",
            "Dup calls",
            "Replay exact",
            "Violations",
        ],
        rows,
        title=(
            f"Chaos sweep on {result.dataset} (fault intensity vs "
            "accuracy / goodput / crash-recovery time)"
        ),
    )
    broken = [c for c in result.cells if c.violations]
    if broken:
        lines = [table, "", "INVARIANT VIOLATIONS:"]
        for cell in broken:
            for violation in cell.violations:
                lines.append(f"  intensity {cell.intensity:g}: {violation}")
        return "\n".join(lines)
    return table


def main() -> None:
    print(format_chaos(run_chaos()))


if __name__ == "__main__":
    main()
