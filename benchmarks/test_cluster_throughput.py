"""Benchmark — sharded cluster throughput with a shared single-flight cache.

Acceptance shape (ISSUE 10): on cora the sharded cluster must deliver a
modeled throughput gain **above 1.5x at 4 workers** while issuing **zero
duplicate LLM calls** through the shared cache's cross-worker single-flight,
and a one-shard cluster run must produce records, rounds and ledger spend
**bit-identical** to the unsharded engine.  A second cluster over the warm
shared store must re-issue zero inner calls — the cache actually persists
results across runs, it does not merely deduplicate within one.

The measured numbers land in ``BENCH_cluster.json`` next to the repo's
other benchmark artifacts; ``benchmarks/check_regression.py --suite
cluster`` re-measures this exact configuration against the committed
baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.boosting import QueryBoostingStrategy
from repro.experiments.common import load_setup
from repro.experiments.sharding import (
    build_cluster,
    cluster_cache_stats,
    one_shard_mismatches,
    rerun_warm,
    run_unsharded,
)
from repro.llm.caching import MemoryCacheStore, SharedFlight

DATASET = "cora"
NUM_QUERIES = 60
SCALE = 0.3
SHARD_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR = 1.5

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def _fresh_setup():
    return load_setup(DATASET, num_queries=NUM_QUERIES, scale=SCALE)


def measure_cluster() -> dict:
    """Run the cluster workload once; return headline numbers.

    Shared with ``benchmarks/check_regression.py`` so the CI gate
    re-measures exactly the committed configuration.
    """
    # Unsharded reference: the same engine stack a one-shard worker gets,
    # driven by the plain (non-cluster) strategy path.
    reference = run_unsharded(_fresh_setup())

    measured: dict = {
        "dataset": DATASET,
        "num_queries": NUM_QUERIES,
        "scale": SCALE,
        "speedup_floor": SPEEDUP_FLOOR,
        "duplicate_llm_calls": 0,
    }
    stores: dict[int, MemoryCacheStore] = {}
    flights: dict[int, SharedFlight] = {}
    for shards in SHARD_COUNTS:
        setup_n = _fresh_setup()
        stores[shards] = MemoryCacheStore(max_entries=None)
        flights[shards] = SharedFlight()
        cluster = build_cluster(
            setup_n, shards, store=stores[shards], flight=flights[shards]
        )
        result = cluster.run_boosting(QueryBoostingStrategy())
        stats = cluster_cache_stats(cluster)
        measured[f"speedup_{shards}"] = result.speedup
        measured[f"accuracy_{shards}"] = result.combined.accuracy
        measured[f"makespan_seconds_{shards}"] = result.makespan_seconds
        measured["duplicate_llm_calls"] += (
            stats["inner_llm_calls"] - stats["distinct_prompts"]
        )
        if shards == 1:
            # Records, rounds and ledger: the whole shards=1 contract.
            measured["records_equal"] = not one_shard_mismatches(
                reference, cluster, result
            )

    # Warm re-run over the largest run's store: every prompt must hit.
    warm_shards = SHARD_COUNTS[-1]
    warm = rerun_warm(
        _fresh_setup(), warm_shards, stores[warm_shards], flights[warm_shards]
    )
    measured["warm_inner_llm_calls"] = warm["inner_llm_calls"]
    measured["warm_hit_rate"] = (
        warm["hits"] / (warm["hits"] + warm["misses"])
        if warm["hits"] + warm["misses"]
        else 0.0
    )
    return measured


def test_cluster_throughput(run_once, bench_budget):
    with bench_budget(max_seconds=300.0):
        measured = run_once(measure_cluster)

    assert measured["records_equal"], (
        "one-shard cluster records differ from the unsharded engine"
    )
    assert measured["duplicate_llm_calls"] == 0, (
        f"shared cache let {measured['duplicate_llm_calls']} duplicate LLM "
        "calls through"
    )
    assert measured[f"speedup_{SHARD_COUNTS[-1]}"] > SPEEDUP_FLOOR, (
        f"{SHARD_COUNTS[-1]}-worker speedup "
        f"{measured[f'speedup_{SHARD_COUNTS[-1]}']:.2f}x below the "
        f"{SPEEDUP_FLOOR:.1f}x acceptance floor"
    )
    assert measured["warm_inner_llm_calls"] == 0, (
        "warm shared store still paid inner LLM calls"
    )
    assert measured["warm_hit_rate"] == 1.0

    BENCH_PATH.write_text(json.dumps(measured, indent=2) + "\n")
    print()
    print(
        f"cluster throughput: "
        f"{measured[f'speedup_{SHARD_COUNTS[-1]}']:.2f}x at "
        f"{SHARD_COUNTS[-1]} workers, zero duplicate calls, warm hit rate "
        f"{measured['warm_hit_rate']:.0%}, artifact at {BENCH_PATH.name}"
    )
