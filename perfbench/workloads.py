"""The benchmark's four workloads.

Each workload has a set-up (everything before the first query is issued:
replica generation, split, encoding, the D(t_i) fit, wiring), a timed pass
that settles the whole query set or request stream once on fresh per-pass
objects, and checks on what the pass produced.

The workload seed offsets the simulated LLM's seed, so it draws the
model's answers (and with them pseudo-labels, pruning scores and cache
traffic); the replica graphs, query splits and request stream stay the
repository's fixed ones, and seed 0 is the setting the experiments use.  A
different graph or split reshapes boosting: on the half-size pubmed replica
it takes 6 to 17 rounds depending on the split, which moves the work per
query by up to 2x and would swamp any run-to-run comparison.  A different
LLM seed barely moves it (pubmed: 6 rounds on each of six seeds tried;
cora: 20 to 22).

Each pass starts with the graph's k-hop/BFS memo empty, as a fresh
``repro classify`` process does: filling it counts in the pass, not in the
set-up.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path

from repro.core.boosting import QueryBoostingStrategy
from repro.core.joint import JointStrategy
from repro.core.pruning import TokenPruningStrategy
from repro.experiments.common import MODEL_SEED, load_setup
from repro.experiments.overload import STREAM_SEED, default_tenants, estimate_full_cost
from repro.experiments.table4 import fit_scorer
from repro.graph import datasets
from repro.io.runs import RunCheckpointer
from repro.llm.caching import CachingLLM
from repro.llm.reliability import FlakyLLM, LatencyLLM, SimulatedClock, resilient
from repro.mqo.compression import PromptCompressor
from repro.obs import Instrumentation
from repro.runtime.fallback import DegradationLadder
from repro.runtime.results import OUTCOME_TIERS
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import (
    ADMISSION_DECISIONS,
    AdmissionPolicy,
    ServeJournal,
    ServingLayer,
    synthetic_stream,
)

#: Share of queries the joint strategy prunes (the paper's setting).
TAU = 0.2

#: Workers per thread pool of the threads+dag workload: two, but at most
#: half the cores, because the pipelined executor runs the current round's
#: pool beside an eager pool for the next round.  The planner on the main
#: thread mostly waits on their futures.
WORKERS = max(1, min(2, (os.cpu_count() or 1) // 2))

FULL_FIDELITY = ("ok", "retried")


@dataclass
class PassResult:
    """One pass, reduced to the benchmark's counts.

    An operation is a query (engine workloads) or a request (serve).  It
    succeeded at full fidelity, was degraded (a cheaper rung, including an
    explicit admission rejection), or failed (no answer and no explicit
    decision: an abstention).
    """

    seconds: float
    ops: int
    succeeded: int
    degraded: int
    failed: int
    correct: int
    answered: int
    tokens: int
    paid_tokens: int
    llm_calls: int
    digest: str
    #: Per-layer figures the program reports about itself in this pass.
    layer: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def outputs(self) -> dict:
        """The deterministic outputs: equal on every pass of one seed."""
        return {
            "ops": self.ops,
            "succeeded": self.succeeded,
            "degraded": self.degraded,
            "failed": self.failed,
            "correct": self.correct,
            "tokens": self.tokens,
            "paid_tokens": self.paid_tokens,
            "llm_calls": self.llm_calls,
            "digest": self.digest,
        }


def records_digest(rows) -> str:
    """Short SHA-256 over the ``repr`` of every row, in order."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _engine_pass(seconds, records, llm_calls, shared_tokens=0, layer=None) -> PassResult:
    succeeded = sum(r.outcome in FULL_FIDELITY for r in records)
    failed = sum(r.outcome == "abstained" for r in records)
    tokens = sum(r.total_tokens for r in records)
    return PassResult(
        seconds=seconds,
        ops=len(records),
        succeeded=succeeded,
        degraded=len(records) - succeeded - failed,
        failed=failed,
        correct=sum(r.correct for r in records),
        answered=sum(r.predicted_label is not None for r in records),
        tokens=tokens,
        paid_tokens=tokens - shared_tokens,
        llm_calls=llm_calls,
        digest=records_digest(astuple(r) for r in records),
        layer=layer or {},
    )


def _model_calls(llm) -> int:
    """Calls that reached the simulated model at the bottom of a wrapper chain."""
    while getattr(llm, "inner", None) is not None:
        llm = llm.inner
    return llm.usage.num_queries


def _fresh_setup(dataset: str, num_queries: int, seed: int, scale: float | None = None):
    """The repository's replica and split, with every simulated LLM of the
    workload (scorer calibration included) drawing noise from ``seed``."""
    # load_dataset memoises replicas per process; a CLI run starts without.
    datasets._load_cached.cache_clear()
    setup = load_setup(dataset, num_queries=num_queries, scale=scale)
    make_llm, llm_seed = setup.make_llm, MODEL_SEED + seed
    setup.make_llm = lambda model="gpt-3.5": make_llm(model, seed=llm_seed)
    return setup


def _scheduler_figures(report) -> dict:
    """Prefix-sharing and batching figures of a scheduler's waves."""
    examined = report.prefix_prompt_tokens
    return {
        "mqo.prefix.shared_ratio": report.shared_prompt_tokens / examined if examined else 0.0,
        "runtime.scheduler.batch_mean": (
            report.num_queries / report.num_batches if report.num_batches else 0.0
        ),
    }


def _cold_graph(setup) -> None:
    setup.graph._khop_cache.clear()
    setup.graph._layers_cache.clear()


def _scratch_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / ".perfbench" / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


class Workload:
    """Set-up, timed pass and output checks of one workload."""

    name: str

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, state) -> PassResult:
        raise NotImplementedError

    def verify(self, state, first: PassResult) -> list[str]:
        """Checks that need more than one pass's outputs (run once per run)."""
        return []


class JointCora(Workload):
    """Cora, 1,000 queries, 1-hop, joint strategy at tau=0.2, serial engine."""

    name = "joint-cora"
    dataset = "cora"
    scale: float | None = None
    queries = 1000

    def setup(self, seed: int):
        setup = _fresh_setup(self.dataset, self.queries, seed, self.scale)
        return setup, fit_scorer(setup)

    def _joint(self, setup, scorer, scheduler=None, shared_first=False):
        _cold_graph(setup)
        started = time.perf_counter()
        engine = setup.make_engine("1-hop", scheduler=scheduler, shared_first=shared_first)
        joint = JointStrategy(TokenPruningStrategy(scorer), QueryBoostingStrategy())
        outcome = joint.execute(engine, setup.queries, tau=TAU)
        seconds = time.perf_counter() - started
        layer = {"core.boosting.rounds": len(outcome.boosting.rounds)}
        return seconds, engine, outcome, layer

    def run(self, state) -> PassResult:
        seconds, engine, outcome, layer = self._joint(*state)
        return _engine_pass(seconds, outcome.run.records, _model_calls(engine.llm), layer=layer)


class JointPubmedDag(JointCora):
    """The joint strategy on pubmed under threads+dag dispatch with prefix
    planning and the shared-first layout."""

    name = "joint-pubmed-dag"
    dataset = "pubmed"
    #: Half-size replica (9,858 nodes): full pubmed takes ~11 s to generate,
    #: which three set-ups per run cannot afford.  Boosting still settles in
    #: 6 rounds here (4 at full size, 22 on cora); at 0.3 scale it takes 22.
    scale = 0.5

    def run(self, state) -> PassResult:
        scheduler = QueryScheduler(
            mode="threads",
            dispatch="dag",
            max_concurrency=WORKERS,
            max_batch_size=8,
            prefix_sharing=True,
        )
        seconds, engine, outcome, layer = self._joint(*state, scheduler=scheduler, shared_first=True)
        layer.update(_scheduler_figures(scheduler.report))
        return _engine_pass(
            seconds,
            outcome.run.records,
            _model_calls(engine.llm),
            scheduler.report.shared_prompt_tokens,
            layer,
        )

    def verify(self, state, first: PassResult) -> list[str]:
        """The threads+dag records must equal a serial run's."""
        _, engine, outcome, _ = self._joint(*state, shared_first=True)
        serial = _engine_pass(0.0, outcome.run.records, _model_calls(engine.llm))
        if serial.digest != first.digest:
            return [f"threads+dag records {first.digest} differ from serial {serial.digest}"]
        return []


class ServeCoraOverload(Workload):
    """Multi-tenant serving of a 500-request open-loop stream over cora."""

    name = "serve-cora-overload"
    requests = 500
    #: Query nodes the stream draws from: each is requested about twice, so
    #: repeats reach the cache.
    population = 250
    #: Arrivals span this many simulated seconds (the open-loop rate).
    arrival_window = 550.0
    #: The three tenants' budgets together afford this many full requests.
    admissible = 212
    seconds_per_call = 0.5
    failure_rate = 0.05
    #: With the rate, budgets and latency above, every rung carries traffic
    #: on seed 0: about 21% ok, 32% compressed, 32% pruned, 11% surrogate
    #: and 4% rejected, with a quarter of cache lookups served as hits.
    policy = AdmissionPolicy(
        compress_watermark=4, degrade_watermark=12, shed_watermark=24, wave_quota=8
    )

    def setup(self, seed: int):
        setup = _fresh_setup("cora", self.population, seed)
        surrogate = fit_scorer(setup)
        tenants = default_tenants(self.admissible * estimate_full_cost(setup) / 4.0)
        stream = synthetic_stream(
            tenants,
            setup.queries,
            self.requests,
            arrival_window=self.arrival_window,
            seed=STREAM_SEED,
        )
        return setup, surrogate, tenants, stream

    def run(self, state) -> PassResult:
        setup, surrogate, tenants, stream = state
        _cold_graph(setup)
        with tempfile.TemporaryDirectory(dir=_scratch_dir()) as tmp:
            journal_path = Path(tmp) / "journal.jsonl"
            started = time.perf_counter()
            clock = SimulatedClock()
            model = LatencyLLM(setup.make_llm(), clock=clock, seconds_per_call=self.seconds_per_call)
            flaky = FlakyLLM(model, failure_rate=self.failure_rate, seed=13, key="prompt")
            cache = CachingLLM(resilient(flaky, seed=17, clock=clock))
            scheduler = QueryScheduler(max_batch_size=8, max_concurrency=4, prefix_sharing=True)
            engine = setup.make_engine(
                "1-hop",
                llm=cache,
                clock=clock,
                scheduler=scheduler,
                ladder=DegradationLadder(surrogate=surrogate),
                compressor=PromptCompressor(target_ratio=0.5),
                shared_first=True,
            )
            layer = ServingLayer(engine, tenants, policy=self.policy, price_model="gpt-3.5")
            report = layer.replay(stream, journal=ServeJournal(journal_path))
            seconds = time.perf_counter() - started
            journal_bytes = journal_path.stat().st_size
        return self._summarize(seconds, report, layer, cache, scheduler, journal_bytes, tenants)

    def _summarize(self, seconds, report, layer, cache, scheduler, journal_bytes, tenants):
        outcomes = report.outcomes
        errors = []
        if len(outcomes) != self.requests:
            errors.append(f"{len(outcomes)} outcomes for {self.requests} requests")
        rejections = {d for d in ADMISSION_DECISIONS if d.startswith("rejected")}
        unsettled = [o for o in outcomes if o.tier not in OUTCOME_TIERS and o.tier not in rejections]
        if unsettled:
            errors.append(f"{len(unsettled)} requests settled without an explicit tier")
        for spec in tenants:
            ledger = layer.book.ledger(spec.name)
            if spec.token_budget is not None and ledger.paid_tokens > spec.token_budget:
                errors.append(f"tenant {spec.name} overdrew {ledger.paid_tokens} > {spec.token_budget}")
        tiers = report.tier_counts
        ops = len(outcomes)
        share = lambda *names: sum(tiers.get(n, 0) for n in names) / ops
        return PassResult(
            seconds=seconds,
            ops=ops,
            succeeded=sum(o.status == "served" for o in outcomes),
            degraded=sum(o.status != "served" and o.tier != "abstained" for o in outcomes),
            failed=sum(o.tier == "abstained" for o in outcomes),
            correct=sum(o.record is not None and o.record.correct for o in outcomes),
            answered=report.goodput,
            tokens=sum(layer.book.ledger(s.name).spent for s in tenants),
            paid_tokens=sum(layer.book.ledger(s.name).paid_tokens for s in tenants),
            llm_calls=_model_calls(cache),
            digest=records_digest(
                (o.request, o.status, o.tier, astuple(o.record) if o.record else None,
                 o.queued_at, o.dispatched_at, o.completed_at, o.shared_prompt_tokens)
                for o in outcomes
            ),
            layer={
                "llm.cache.hit_ratio": cache.hit_rate,
                "runtime.serve.ok_share": share(*FULL_FIDELITY),
                "runtime.serve.compressed_share": share("degraded_compressed"),
                "runtime.serve.pruned_share": share("degraded_pruned"),
                "runtime.serve.surrogate_share": share("degraded_surrogate"),
                "runtime.serve.rejected_share": share(*rejections),
                "runtime.serve.sim_p50_s": report.latency_percentile(50),
                "runtime.serve.sim_p99_s": report.latency_percentile(99),
                "io.journal.bytes": journal_bytes,
                **_scheduler_figures(scheduler.report),
            },
            errors=errors,
        )


class BoostCoraDurable(Workload):
    """Cora, 200 queries, query boosting with a checkpoint flushed after every
    record and a trace-writing observer; a resume pass follows."""

    name = "boost-cora-durable"
    queries = 200

    def setup(self, seed: int):
        return _fresh_setup("cora", self.queries, seed)

    def _boost(self, setup, directory: Path):
        _cold_graph(setup)
        clock = SimulatedClock()
        observer = Instrumentation(run_id="perfbench", clock=clock)
        engine = setup.make_engine("1-hop", observer=observer, clock=clock)
        checkpointer = RunCheckpointer(directory / "run.ck", flush_every=1, observer=observer)
        boosted = QueryBoostingStrategy().execute(engine, setup.queries, checkpointer=checkpointer)
        observer.write_trace(directory / "trace.jsonl")
        return engine, boosted, observer

    def run(self, setup) -> PassResult:
        with tempfile.TemporaryDirectory(dir=_scratch_dir()) as tmp:
            directory = Path(tmp)
            started = time.perf_counter()
            engine, boosted, observer = self._boost(setup, directory)
            seconds = time.perf_counter() - started
            result = _engine_pass(
                seconds,
                boosted.run.records,
                _model_calls(engine.llm),
                layer={
                    "core.boosting.rounds": len(boosted.rounds),
                    "obs.spans": len(observer.tracer.spans),
                },
            )
            started = time.perf_counter()
            resumed_engine, resumed, _ = self._boost(setup, directory)
            resume_seconds = time.perf_counter() - started
        replayed = _engine_pass(0.0, resumed.run.records, _model_calls(resumed_engine.llm))
        if replayed.llm_calls:
            result.errors.append(f"resume issued {replayed.llm_calls} LLM calls")
        if replayed.digest != result.digest:
            result.errors.append(f"resumed records {replayed.digest} differ from {result.digest}")
        result.layer["resume_s"] = resume_seconds
        result.layer["io.checkpoint.resume_ratio"] = resume_seconds / seconds
        return result


WORKLOADS = {
    w.name: w for w in (JointCora(), JointPubmedDag(), ServeCoraOverload(), BoostCoraDurable())
}
