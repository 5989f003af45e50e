"""Critical-path analysis of scheduler waves from a trace (or bench artifact).

ROADMAP item 1 blames the wave barrier for the scheduler's speedup ceiling;
this module turns that hunch into numbers.  From a trace it reconstructs the
dependency waves (each boosting ``round`` span is one wave, top-level query
runs form ``plain`` waves), replays each wave's measured per-query latencies
through the greedy next-free-worker packing the scheduler's simulated
dispatch runs (:func:`repro.runtime.scheduler.greedy_pack`), and
decomposes every wave's makespan into compute vs barrier-stall idle:

``stall = concurrency × makespan − Σ latencies``

i.e. the worker-seconds spent parked at batch/wave barriers while one
straggler finishes.  Each wave also names its **blocking query** — the
query whose completion sets the dominant batch's makespan — and the report
ends with a *what-if-barrier-removed* lower bound: the makespan a
barrier-free dispatcher could reach, ``max(Σ latency / c, longest single
query)``, which bounds the attainable speedup from above.

The same decomposition also runs directly on a committed
``BENCH_scheduler.json`` artifact (wave aggregates only — no per-query
blocking attribution there, the artifact never had per-query latencies).

Traces produced by the DAG dispatch plan's pipelined executor
(``repro.runtime.readiness``) additionally carry per-query readiness
attributes (``dag_ready`` / ``dag_dispatched`` / ``dag_settled`` /
``dag_blocked_by``, trace schema v3).  For those, *barrier*-stall blame
upgrades to *dependency*-stall blame: :func:`dependency_sections` names the
blocking edge of each wave — which producer's label the latest-ready query
waited on — and how far each round pipelined into its predecessor's tail.
Wave-dispatch traces carry no such attributes and produce no sections, so
barrier-era analyzer output stays byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.insight.bundle import RunBundle
from repro.obs.insight.report import Section, fmt_ratio, fmt_seconds
from repro.runtime.scheduler import _chunks, greedy_pack


@dataclass(frozen=True)
class WaveQuery:
    """One query of a reconstructed wave (canonical trace order)."""

    name: str
    latency: float


@dataclass(frozen=True)
class WavePath:
    """One wave's makespan decomposition under the virtual packing."""

    index: int
    label: str
    num_queries: int
    num_batches: int
    serial_seconds: float
    makespan_seconds: float
    stall_seconds: float
    utilization: float
    blocking_query: str | None
    longest_query_seconds: float
    worker_busy: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "num_queries": self.num_queries,
            "num_batches": self.num_batches,
            "serial_seconds": self.serial_seconds,
            "makespan_seconds": self.makespan_seconds,
            "stall_seconds": self.stall_seconds,
            "utilization": self.utilization,
            "blocking_query": self.blocking_query,
            "longest_query_seconds": self.longest_query_seconds,
            "worker_busy": list(self.worker_busy),
        }


@dataclass(frozen=True)
class CriticalPathReport:
    """Whole-run critical path: per-wave decomposition plus the what-if bound."""

    source: str  # "trace" | "bench"
    concurrency: int
    batch_size: int | None
    waves: tuple[WavePath, ...]

    @property
    def serial_seconds(self) -> float:
        return sum(w.serial_seconds for w in self.waves)

    @property
    def makespan_seconds(self) -> float:
        return sum(w.makespan_seconds for w in self.waves)

    @property
    def stall_seconds(self) -> float:
        return sum(w.stall_seconds for w in self.waves)

    @property
    def speedup(self) -> float:
        if self.makespan_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def what_if_no_barrier_seconds(self) -> float:
        """Lower-bound makespan with every barrier removed.

        A barrier-free dispatcher still cannot beat perfect work
        conservation (total work / workers) nor finish before its single
        longest query — per wave the bound is the max of the two; waves
        remain ordered (pseudo-label dependencies), so bounds sum.
        """
        total = 0.0
        for wave in self.waves:
            total += max(
                wave.serial_seconds / self.concurrency,
                wave.longest_query_seconds,
            )
        return total

    @property
    def what_if_speedup(self) -> float:
        bound = self.what_if_no_barrier_seconds
        if bound <= 0.0:
            return 1.0
        return self.serial_seconds / bound

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "concurrency": self.concurrency,
            "batch_size": self.batch_size,
            "serial_seconds": self.serial_seconds,
            "makespan_seconds": self.makespan_seconds,
            "stall_seconds": self.stall_seconds,
            "speedup": self.speedup,
            "what_if_no_barrier_seconds": self.what_if_no_barrier_seconds,
            "what_if_speedup": self.what_if_speedup,
            "waves": [w.to_dict() for w in self.waves],
        }


# ------------------------------------------------------------ wave packing


def _stall_and_utilization(
    serial: float, makespan: float, concurrency: int
) -> tuple[float, float]:
    """Barrier-stall worker-seconds and busy share of ``concurrency`` workers."""
    stall = max(0.0, concurrency * makespan - serial)
    utilization = serial / (concurrency * makespan) if makespan > 0 else 1.0
    return stall, utilization


def pack_wave(
    index: int,
    label: str,
    queries: Sequence[WaveQuery],
    concurrency: int,
    batch_size: int | None,
) -> WavePath:
    """Replay one wave's latencies through the scheduler's virtual packing.

    Packs each batch with :func:`repro.runtime.scheduler.greedy_pack`, the
    loop ``QueryScheduler._overlap`` runs, and additionally names the query
    that finishes each batch — the blocking query — and sums per-worker busy
    time for the utilization timeline.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1 or None")
    serial = sum(q.latency for q in queries)
    batches = _chunks(list(queries), batch_size)
    makespan = 0.0
    worker_busy = [0.0] * concurrency
    blocking: tuple[float, str] | None = None  # (batch makespan, query name)
    for batch in batches:
        workers, placed = greedy_pack([q.latency for q in batch], concurrency)
        batch_makespan = max(workers, default=0.0)
        batch_blocker = None
        for query, (slot, finish) in zip(batch, placed):
            worker_busy[slot] += query.latency
            if finish == batch_makespan:
                batch_blocker = query.name
        makespan += batch_makespan
        if batch_blocker is not None and (
            blocking is None or batch_makespan > blocking[0]
        ):
            blocking = (batch_makespan, batch_blocker)
    stall, utilization = _stall_and_utilization(serial, makespan, concurrency)
    longest = max((q.latency for q in queries), default=0.0)
    return WavePath(
        index=index,
        label=label,
        num_queries=len(queries),
        num_batches=len(batches),
        serial_seconds=serial,
        makespan_seconds=makespan,
        stall_seconds=stall,
        utilization=utilization,
        blocking_query=blocking[1] if blocking is not None else None,
        longest_query_seconds=longest,
        worker_busy=tuple(worker_busy),
    )


# ------------------------------------------------------- wave reconstruction


def waves_from_trace(bundle: RunBundle) -> list[tuple[str, list[WaveQuery]]]:
    """Reconstruct dependency waves from a trace, in execution order.

    Each boosting ``round`` span is one wave holding its child ``query``
    spans; contiguous top-level query spans (plain/pruned strategies, or the
    pruned phase of a joint run) form ``plain`` waves.  Replayed query spans
    ride along with zero latency — they took no simulated time.
    """
    round_ids = {
        s["span_id"]: int(s.get("attributes", {}).get("round_index", 0))
        for s in bundle.spans_named("round")
    }
    waves: list[tuple[str, list[WaveQuery]]] = []
    by_round: dict[str, list[WaveQuery]] = {}
    current_plain: list[WaveQuery] | None = None
    for span in bundle.query_spans():
        attrs = span.get("attributes", {})
        query = WaveQuery(
            name=f"node {attrs.get('node', '?')}",
            latency=0.0 if attrs.get("replayed") else float(span.get("duration", 0.0)),
        )
        parent = span.get("parent_id")
        if parent in round_ids:
            if parent not in by_round:
                by_round[parent] = []
                waves.append((f"round {round_ids[parent]}", by_round[parent]))
                current_plain = None
            by_round[parent].append(query)
        else:
            if current_plain is None:
                current_plain = []
                waves.append(("plain", current_plain))
            current_plain.append(query)
    return waves


def analyze_trace(
    bundle: RunBundle, concurrency: int = 4, batch_size: int | None = None
) -> CriticalPathReport:
    """Critical-path decomposition of one trace under a scheduler shape."""
    waves = [
        pack_wave(i, label, queries, concurrency, batch_size)
        for i, (label, queries) in enumerate(waves_from_trace(bundle))
    ]
    return CriticalPathReport(
        source="trace",
        concurrency=concurrency,
        batch_size=batch_size,
        waves=tuple(waves),
    )


def analyze_bench(payload: dict) -> CriticalPathReport:
    """Critical-path decomposition of a ``BENCH_scheduler.json`` artifact.

    The artifact records wave aggregates only, so blocking-query
    attribution is unavailable; the stall decomposition and what-if bound
    use the artifact's own concurrency/batch configuration.  The per-wave
    longest-query bound falls back to ``seconds_per_call`` (the bench's
    uniform latency profile) when present.
    """
    concurrency = int(payload.get("max_concurrency", 1))
    batch_size = payload.get("max_batch_size")
    per_call = float(payload.get("seconds_per_call", 0.0))
    waves = []
    for i, wave in enumerate(payload.get("waves", [])):
        serial = float(wave.get("serial_seconds", 0.0))
        makespan = float(wave.get("overlapped_seconds", 0.0))
        stall, utilization = _stall_and_utilization(serial, makespan, concurrency)
        waves.append(
            WavePath(
                index=i,
                label=f"wave {wave.get('wave_index', i)}",
                num_queries=int(wave.get("num_queries", 0)),
                num_batches=int(wave.get("num_batches", 0)),
                serial_seconds=serial,
                makespan_seconds=makespan,
                stall_seconds=stall,
                utilization=utilization,
                blocking_query=None,
                longest_query_seconds=per_call,
                worker_busy=(),
            )
        )
    return CriticalPathReport(
        source="bench",
        concurrency=concurrency,
        batch_size=batch_size if batch_size is None else int(batch_size),
        waves=tuple(waves),
    )


# ------------------------------------------------------------------ report


def sections(report: CriticalPathReport) -> list[Section]:
    rows = []
    for wave in report.waves:
        rows.append(
            (
                wave.label,
                wave.num_queries,
                wave.num_batches,
                fmt_seconds(wave.serial_seconds),
                fmt_seconds(wave.makespan_seconds),
                fmt_seconds(wave.stall_seconds),
                fmt_ratio(wave.utilization),
                wave.blocking_query or "n/a (aggregate)",
            )
        )
    batch = "wave" if report.batch_size is None else str(report.batch_size)
    wave_section = Section(
        title=(
            f"Per-wave makespan decomposition "
            f"(concurrency {report.concurrency}, batch {batch})"
        ),
        headers=[
            "Wave", "Queries", "Batches", "Compute", "Makespan",
            "Barrier stall", "Utilization", "Blocking query",
        ],
        rows=rows,
    )
    util_rows = []
    for wave in report.waves:
        if not wave.worker_busy:
            continue
        timeline = " ".join(
            f"w{slot}={busy:.2f}s" for slot, busy in enumerate(wave.worker_busy)
        )
        util_rows.append(f"{wave.label}: {timeline}")
    summary = Section(
        title="Critical path (wave barriers)",
        notes=[
            f"serial compute      : {fmt_seconds(report.serial_seconds)}",
            f"barriered makespan  : {fmt_seconds(report.makespan_seconds)} "
            f"({report.speedup:.2f}x speedup)",
            f"barrier-stall idle  : {fmt_seconds(report.stall_seconds)} "
            f"worker-seconds",
            f"what-if no barrier  : >= {fmt_seconds(report.what_if_no_barrier_seconds)} "
            f"(<= {report.what_if_speedup:.2f}x speedup bound)",
            *(
                ["virtual-worker busy timeline:"] + [f"  {row}" for row in util_rows]
                if util_rows
                else []
            ),
        ],
    )
    return [wave_section, summary]


# ----------------------------------------------- dependency-stall (DAG) blame


@dataclass(frozen=True)
class DependencyWave:
    """Readiness timeline of one pipelined wave (from v3 ``dag_*`` attrs)."""

    wave_index: int
    num_queries: int
    first_dispatch: float
    last_settle: float
    overlap_with_previous: float  # >0: this wave started inside the previous tail
    blocking_edge: str | None  # "label(node p) -> node q" for the latest-ready query
    max_ready: float

    def to_dict(self) -> dict:
        return {
            "wave_index": self.wave_index,
            "num_queries": self.num_queries,
            "first_dispatch": self.first_dispatch,
            "last_settle": self.last_settle,
            "overlap_with_previous": self.overlap_with_previous,
            "blocking_edge": self.blocking_edge,
            "max_ready": self.max_ready,
        }


def dependency_waves(bundle: RunBundle) -> list[DependencyWave]:
    """Extract pipelined waves' readiness timelines from a v3 trace.

    Returns ``[]`` for barrier-era traces (no ``dag_*`` attributes), which
    keeps the analyzer's output on wave-dispatch traces byte-stable.
    """
    pipelined_waves = [
        span
        for span in bundle.spans_named("wave")
        if span.get("attributes", {}).get("dag_pipelined")
    ]
    if not pipelined_waves:
        return []
    children: dict[str, list[dict]] = {}
    for span in bundle.query_spans():
        attrs = span.get("attributes", {})
        if "dag_dispatched" not in attrs:
            continue
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append(attrs)
    waves: list[DependencyWave] = []
    previous_settle: float | None = None
    for span in pipelined_waves:
        attrs = span.get("attributes", {})
        wave_index = int(attrs.get("wave_index", len(waves)))
        members = children.get(span.get("span_id"), [])
        if not members:
            continue
        first_dispatch = min(float(m["dag_dispatched"]) for m in members)
        last_settle = max(float(m["dag_settled"]) for m in members)
        blocker = max(members, key=lambda m: float(m.get("dag_ready", 0.0)))
        edge = None
        if blocker.get("dag_blocked_by") is not None:
            edge = (
                f"label(node {blocker['dag_blocked_by']}) -> "
                f"node {blocker.get('node', '?')}"
            )
        overlap = (
            max(0.0, previous_settle - first_dispatch)
            if previous_settle is not None
            else 0.0
        )
        waves.append(
            DependencyWave(
                wave_index=wave_index,
                num_queries=len(members),
                first_dispatch=first_dispatch,
                last_settle=last_settle,
                overlap_with_previous=overlap,
                blocking_edge=edge,
                max_ready=max(float(m.get("dag_ready", 0.0)) for m in members),
            )
        )
        previous_settle = last_settle
    return waves


def dependency_summary(bundle: RunBundle) -> dict | None:
    """JSON payload of the dependency-stall analysis (None without v3 attrs)."""
    waves = dependency_waves(bundle)
    if not waves:
        return None
    return {
        "num_pipelined_waves": len(waves),
        "num_overlapping_waves": sum(1 for w in waves if w.overlap_with_previous > 0),
        "waves": [w.to_dict() for w in waves],
    }


def dependency_sections(bundle: RunBundle) -> list[Section]:
    """Dependency-stall blame for DAG-dispatch (pipelined) traces.

    Where the barrier decomposition above can only say "the wave waited",
    the readiness attributes say *for whom*: each row names the blocking
    edge — the producer label the wave's latest-ready query read — and how
    far the wave's first dispatch reached into the previous wave's tail.
    Empty for traces without ``dag_*`` attributes.
    """
    waves = dependency_waves(bundle)
    if not waves:
        return []
    rows = []
    for wave in waves:
        rows.append(
            (
                f"wave {wave.wave_index}",
                wave.num_queries,
                fmt_seconds(wave.first_dispatch),
                fmt_seconds(wave.last_settle),
                fmt_seconds(wave.overlap_with_previous),
                wave.blocking_edge or "none (all ready at dispatch)",
            )
        )
    overlapping = sum(1 for w in waves if w.overlap_with_previous > 0)
    return [
        Section(
            title="Dependency stalls (DAG dispatch)",
            headers=[
                "Wave", "Queries", "First dispatch", "Last settle",
                "Overlap w/ previous", "Blocking edge",
            ],
            rows=rows,
            notes=[
                f"{overlapping}/{len(waves)} waves dispatched inside their "
                "predecessor's tail (dependency-driven, not barrier-gated)",
            ],
        )
    ]
