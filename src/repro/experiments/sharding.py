"""Sharding sweep — accuracy cost vs throughput gain of the cluster runtime.

The sharded cluster (:mod:`repro.runtime.cluster`) trades a little accuracy
(cross-shard neighbor cues arrive one round stale, via gossip) for modeled
throughput (shards execute their rounds overlapped).  This experiment
quantifies both sides of that trade on one dataset:

* per shard count, the boosting accuracy and its delta against the
  unsharded baseline (the ``shards=1`` row *is* the baseline — a one-shard
  cluster is bit-identical to the unsharded engine by construction);
* the modeled speedup (serial seconds / makespan seconds) of overlapping
  the shards, which must clear the acceptance floor of 1.5x at 4 workers;
* shared-cache health: hits, misses, coalesced waits, and the
  zero-duplicate proof — total inner LLM calls across all workers must
  equal the number of distinct prompts the shared store holds.

:func:`build_cluster` is the one place the full worker stack is assembled
(partition → per-shard engine with its own scheduler/ledger over a shared
clock and shared single-flight cache); the CLI (``repro cluster``), the
throughput benchmark and the smoke tests all reuse it.  The shards=1
contract lives here too, for ``repro cluster --verify`` and the throughput
benchmark alike: :func:`run_unsharded` boosts on the engine stack a worker
gets, outside any cluster, :func:`one_shard_mismatches` compares a one-shard
cluster run with it, and :func:`rerun_warm` re-runs a cluster over a warm
shared store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.boosting import BoostingResult, QueryBoostingStrategy
from repro.core.budget import BudgetLedger
from repro.experiments.common import ExperimentSetup, load_setup
from repro.experiments.report import render_table
from repro.graph.sampling import partition_graph
from repro.llm.caching import CachingLLM, MemoryCacheStore, SharedFlight
from repro.llm.reliability import LatencyLLM, SimulatedClock
from repro.runtime.cluster import ClusterResult, ClusterWorker, ShardedCluster, partition_queries
from repro.runtime.scheduler import QueryScheduler

DEFAULT_SHARD_COUNTS = (1, 2, 4)


def _worker_engine(
    setup: ExperimentSetup,
    clock: SimulatedClock,
    store,
    flight: SharedFlight | None,
    method: str = "sns",
    model: str = "gpt-3.5",
    seconds_per_call: float = 1.0,
    max_batch_size: int = 8,
    max_concurrency: int = 4,
    ledger: bool = True,
    observer=None,
):
    """One worker's engine: cached simulated LLM, batched simulated scheduler."""
    llm = CachingLLM(
        LatencyLLM(setup.make_llm(model), clock, seconds_per_call=seconds_per_call),
        observer=observer,
        store=store,
        flight=flight,
    )
    return setup.make_engine(
        method,
        llm=llm,
        clock=clock,
        scheduler=QueryScheduler(
            max_batch_size=max_batch_size,
            max_concurrency=max_concurrency,
            mode="simulated",
        ),
        ledger=BudgetLedger() if ledger else None,
        observer=observer,
    )


def build_cluster(
    setup: ExperimentSetup,
    num_shards: int,
    method: str = "sns",
    model: str = "gpt-3.5",
    seconds_per_call: float = 1.0,
    clock: SimulatedClock | None = None,
    store=None,
    flight: SharedFlight | None = None,
    max_batch_size: int = 8,
    max_concurrency: int = 4,
    balance_slack: float = 0.15,
    homophily_weight: float = 1.0,
    gossip: bool = True,
    observers=None,
    ledgers: bool = True,
) -> ShardedCluster:
    """Assemble the canonical cluster stack over ``setup``'s graph.

    Every shard worker gets its own engine, batched simulated scheduler and
    :class:`~repro.core.budget.BudgetLedger`; all workers share one
    simulated clock and — when ``store``/``flight`` are passed — one LLM
    cache with cross-worker single-flight.  Pass ``store=None`` for
    fully independent per-worker caches (the ablation without result
    sharing).  ``observers`` is an optional index-aligned list of per-worker
    run observers.  ``ledgers=False`` omits the per-worker ledgers — the
    serving layer requires that (tenant accounting lives in its
    :class:`~repro.core.budget.LedgerBook` instead).
    """
    if clock is None:
        clock = SimulatedClock()
    if store is not None and flight is None:
        flight = SharedFlight()
    partition = partition_graph(
        setup.graph,
        num_shards,
        balance_slack=balance_slack,
        homophily_weight=homophily_weight,
    )
    shard_queries = partition_queries(partition, setup.queries)
    if observers is None:
        observers = [None] * num_shards
    workers = []
    for index in range(num_shards):
        engine = _worker_engine(
            setup,
            clock,
            store,
            flight,
            method=method,
            model=model,
            seconds_per_call=seconds_per_call,
            max_batch_size=max_batch_size,
            max_concurrency=max_concurrency,
            ledger=ledgers,
            observer=observers[index],
        )
        workers.append(ClusterWorker(index=index, engine=engine, queries=shard_queries[index]))
    return ShardedCluster(workers, partition, gossip=gossip)


@dataclass(frozen=True)
class ShardingCell:
    """One shard count's accuracy/throughput/cache outcome."""

    shards: int
    accuracy: float
    accuracy_delta: float
    speedup: float
    makespan_seconds: float
    num_rounds: int
    cut_fraction: float
    gossiped_labels: int
    cache_hits: int
    cache_misses: int
    cache_coalesced: int
    inner_llm_calls: int
    distinct_prompts: int

    @property
    def duplicate_llm_calls(self) -> int:
        """Inner calls beyond one per distinct prompt (must be zero)."""
        return self.inner_llm_calls - self.distinct_prompts


@dataclass
class ShardingResult:
    dataset: str
    cells: list[ShardingCell]

    def cell(self, shards: int) -> ShardingCell:
        for c in self.cells:
            if c.shards == shards:
                return c
        raise KeyError(f"no cell for shards={shards}")


def cluster_cache_stats(cluster: ShardedCluster) -> dict[str, int]:
    """Aggregate cache traffic and inner spend across a cluster's workers.

    ``distinct_prompts`` reads the shared store once (every worker sees the
    same object); the zero-duplicate proof is
    ``inner_llm_calls == distinct_prompts``.
    """
    totals = {"hits": 0, "misses": 0, "coalesced": 0, "inner_llm_calls": 0}
    for engine in cluster.engines:
        llm = engine.llm
        totals["hits"] += llm.hits
        totals["misses"] += llm.misses
        totals["coalesced"] += llm.coalesced
        totals["inner_llm_calls"] += llm.inner.usage.num_queries
    totals["distinct_prompts"] = len(cluster.engines[0].llm.store)
    return totals


def unsharded_engine(setup: ExperimentSetup):
    """The engine a one-shard ``build_cluster(setup, 1, store=...)`` worker
    gets with default settings, outside any cluster: its own clock, ledger,
    unbounded cache store and single-flight."""
    return _worker_engine(
        setup, SimulatedClock(), MemoryCacheStore(max_entries=None), SharedFlight()
    )


def run_unsharded(setup: ExperimentSetup) -> tuple[BoostingResult, BudgetLedger]:
    """Boost ``setup``'s queries on :func:`unsharded_engine` through the
    plain strategy path: the reference a one-shard cluster run must equal."""
    engine = unsharded_engine(setup)
    return QueryBoostingStrategy().execute(engine, setup.queries), engine.ledger


def one_shard_mismatches(
    reference: tuple[BoostingResult, BudgetLedger],
    cluster: ShardedCluster,
    result: ClusterResult,
) -> list[str]:
    """How a one-shard cluster run differs from :func:`run_unsharded`'s.

    The shards=1 contract: combined records, round structure and the
    worker ledger's spend and charges all equal the unsharded run's.  An
    empty list means the contract holds.
    """
    serial, ledger = reference
    mismatches = []
    if result.combined.records != serial.run.records:
        mismatches.append("shards=1 combined records differ from the unsharded run")
    if [list(r) for r in result.worker_results[0].rounds] != [list(r) for r in serial.rounds]:
        mismatches.append("shards=1 round structure differs from the unsharded run")
    worker_ledger = cluster.engines[0].ledger
    if worker_ledger.spent != ledger.spent or worker_ledger.charges != ledger.charges:
        mismatches.append(
            "shards=1 ledger spend or charge count differs from the unsharded run"
        )
    return mismatches


def rerun_warm(
    setup: ExperimentSetup, num_shards: int, store, flight: SharedFlight
) -> dict[str, int]:
    """Boost again with a fresh ``num_shards`` cluster over an already-warm
    shared ``store``; return its :func:`cluster_cache_stats`.

    A store that persists results across runs serves every prompt, so
    ``inner_llm_calls`` must be zero.
    """
    cluster = build_cluster(setup, num_shards, store=store, flight=flight)
    cluster.run_boosting(QueryBoostingStrategy())
    return cluster_cache_stats(cluster)


def run_sharding(
    dataset: str = "cora",
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    num_queries: int = 1000,
    scale: float | None = None,
    seed: int = 0,
    seconds_per_call: float = 1.0,
    gossip: bool = True,
) -> ShardingResult:
    """Sweep shard counts on one dataset with a fresh shared cache per run.

    Each shard count rebuilds the whole stack (fresh cache, fresh clock,
    fresh engines) so runs don't contaminate each other; the ``shards=1``
    run doubles as the unsharded accuracy/makespan baseline.
    """
    if 1 not in shard_counts:
        shard_counts = (1,) + tuple(shard_counts)
    cells: list[ShardingCell] = []
    baseline_accuracy: float | None = None
    for shards in shard_counts:
        setup = load_setup(dataset, num_queries=num_queries, scale=scale, seed=seed)
        store = MemoryCacheStore(max_entries=None)
        cluster = build_cluster(
            setup,
            shards,
            seconds_per_call=seconds_per_call,
            store=store,
            gossip=gossip,
        )
        result: ClusterResult = cluster.run_boosting(QueryBoostingStrategy())
        accuracy = result.combined.accuracy
        if baseline_accuracy is None:
            baseline_accuracy = accuracy
        stats = cluster_cache_stats(cluster)
        cells.append(
            ShardingCell(
                shards=shards,
                accuracy=accuracy,
                accuracy_delta=accuracy - baseline_accuracy,
                speedup=result.speedup,
                makespan_seconds=result.makespan_seconds,
                num_rounds=result.num_rounds,
                cut_fraction=cluster.partition.cut_fraction,
                gossiped_labels=result.gossiped_labels,
                cache_hits=stats["hits"],
                cache_misses=stats["misses"],
                cache_coalesced=stats["coalesced"],
                inner_llm_calls=stats["inner_llm_calls"],
                distinct_prompts=stats["distinct_prompts"],
            )
        )
    return ShardingResult(dataset=dataset, cells=cells)


def format_sharding(result: ShardingResult) -> str:
    rows = [
        [
            c.shards,
            f"{c.accuracy:.3f}",
            f"{c.accuracy_delta:+.3f}",
            f"{c.speedup:.2f}x",
            f"{c.makespan_seconds:.1f}s",
            f"{c.cut_fraction:.3f}",
            c.gossiped_labels,
            f"{c.cache_hits}/{c.cache_misses}",
            c.duplicate_llm_calls,
        ]
        for c in result.cells
    ]
    return render_table(
        [
            "Shards",
            "Accuracy",
            "Δ vs 1",
            "Speedup",
            "Makespan",
            "Cut frac",
            "Gossiped",
            "Cache h/m",
            "Dup calls",
        ],
        rows,
        title=f"Sharding sweep — {result.dataset} (accuracy vs throughput)",
    )


def main() -> None:
    result = run_sharding("cora", num_queries=200, scale=0.3)
    print(format_sharding(result))


if __name__ == "__main__":
    main()
