"""Tests for the sharded multi-worker cluster runtime.

The load-bearing contract is **one-shard transparency**: a ``shards=1``
simulated cluster run must be bit-identical to the unsharded engine —
records, rounds, ledger spend, checkpoint files.  On top of that: gossip
delivers settled pseudo-labels across shard boundaries with bounded
staleness, the modeled timings behave (makespan ≤ serial, speedup ≥ 1),
construction validates its invariants, and the serving layer routes
requests to the owning shard while keeping DRR fairness and the
LedgerBook global.
"""

from __future__ import annotations

import pytest

from repro.core.boosting import BoostingStepper, QueryBoostingStrategy
from repro.experiments.common import load_setup
from repro.experiments.sharding import (
    build_cluster,
    cluster_cache_stats,
    one_shard_mismatches,
    run_unsharded,
    unsharded_engine,
)
from repro.graph.sampling import partition_graph
from repro.io.runs import RunCheckpointer
from repro.llm.caching import MemoryCacheStore, SharedFlight
from repro.runtime.cluster import ClusterWorker, ShardedCluster, partition_queries
from repro.runtime.serve import ServeRequest, ServingLayer, TenantSpec


@pytest.fixture(scope="module")
def setup():
    return load_setup("cora", num_queries=40, scale=0.15)


def fresh_setup():
    return load_setup("cora", num_queries=40, scale=0.15)


class TestPartitionQueries:
    def test_splits_by_owner_preserving_order(self, setup):
        partition = partition_graph(setup.graph, 2)
        shards = partition_queries(partition, setup.queries)
        assert sum(len(s) for s in shards) == len(setup.queries)
        for part, nodes in enumerate(shards):
            assert (partition.assignment[nodes] == part).all()
            # order preserved: same relative order as the original array
            original = [n for n in setup.queries if partition.part_of(int(n)) == part]
            assert nodes.tolist() == original

    def test_one_part_is_identity(self, setup):
        partition = partition_graph(setup.graph, 1)
        (only,) = partition_queries(partition, setup.queries)
        assert only.tolist() == setup.queries.tolist()


class TestOneShardTransparency:
    def test_records_rounds_and_ledger_match_unsharded(self):
        serial_setup = fresh_setup()
        engine = unsharded_engine(serial_setup)
        serial = QueryBoostingStrategy().execute(engine, serial_setup.queries)

        cluster_setup = fresh_setup()
        cluster = build_cluster(cluster_setup, 1, store=MemoryCacheStore(max_entries=None))
        result = cluster.run_boosting(QueryBoostingStrategy())

        assert result.combined.records == serial.run.records
        assert [list(r) for r in result.worker_results[0].rounds] == [
            list(r) for r in serial.rounds
        ]
        assert cluster.engines[0].ledger.spent == engine.ledger.spent
        assert cluster.engines[0].ledger.charges == engine.ledger.charges
        assert result.gossiped_labels == 0 and result.gossip_deliveries == 0
        assert one_shard_mismatches((serial, engine.ledger), cluster, result) == []

    def test_mismatches_report_a_run_that_is_not_the_reference(self):
        """The shared contract check CLI and benchmark read must fail loudly."""
        reference = run_unsharded(fresh_setup())
        cluster = build_cluster(fresh_setup(), 2, store=MemoryCacheStore(max_entries=None))
        mismatches = one_shard_mismatches(
            reference, cluster, cluster.run_boosting(QueryBoostingStrategy())
        )
        assert "shards=1 round structure differs from the unsharded run" in mismatches
        assert any("ledger" in m for m in mismatches)

    def test_checkpoint_files_match_unsharded(self, tmp_path):
        serial_setup = fresh_setup()
        engine = unsharded_engine(serial_setup)
        serial_ckpt = RunCheckpointer(tmp_path / "serial.json")
        QueryBoostingStrategy().execute(
            engine, serial_setup.queries, checkpointer=serial_ckpt
        )

        cluster_setup = fresh_setup()
        cluster = build_cluster(cluster_setup, 1, store=MemoryCacheStore(max_entries=None))
        cluster_ckpt = RunCheckpointer(tmp_path / "cluster.json")
        cluster.run_boosting(QueryBoostingStrategy(), checkpointers=[cluster_ckpt])

        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "cluster.json"
        ).read_bytes()


class TestMultiShard:
    def test_two_shards_cover_all_queries_once(self):
        setup = fresh_setup()
        cluster = build_cluster(setup, 2, store=MemoryCacheStore(max_entries=None))
        result = cluster.run_boosting(QueryBoostingStrategy())
        assert sorted(r.node for r in result.combined.records) == sorted(
            setup.queries.tolist()
        )

    def test_gossip_delivers_cross_shard_labels(self):
        setup = fresh_setup()
        cluster = build_cluster(setup, 2, store=MemoryCacheStore(max_entries=None))
        result = cluster.run_boosting(QueryBoostingStrategy())
        assert result.gossiped_labels > 0
        assert result.gossip_deliveries >= result.gossiped_labels
        # Delivered labels are visible in the receiving engine's pseudo state.
        published = {
            node
            for stepper_result in result.worker_results
            for record in stepper_result.run.records
            for node in [record.node]
        }
        for worker in cluster.workers:
            remote = [
                n
                for n in worker.engine.pseudo_labeled
                if cluster.partition.part_of(int(n)) != worker.index
            ]
            for node in remote:
                assert node in published

    def test_gossip_off_isolates_shards(self):
        setup = fresh_setup()
        cluster = build_cluster(
            setup, 2, store=MemoryCacheStore(max_entries=None), gossip=False
        )
        result = cluster.run_boosting(QueryBoostingStrategy())
        assert result.gossiped_labels == 0
        for worker in cluster.workers:
            for node in worker.engine.pseudo_labeled:
                assert cluster.partition.part_of(int(node)) == worker.index

    def test_timing_bounds(self):
        setup = fresh_setup()
        cluster = build_cluster(setup, 4, store=MemoryCacheStore(max_entries=None))
        result = cluster.run_boosting(QueryBoostingStrategy())
        assert result.makespan_seconds <= result.serial_seconds
        assert result.speedup >= 1.0
        for timing in result.timings:
            assert timing.makespan_seconds <= timing.serial_seconds

    def test_shared_cache_sees_zero_duplicates(self):
        setup = fresh_setup()
        store = MemoryCacheStore(max_entries=None)
        cluster = build_cluster(setup, 4, store=store)
        result = cluster.run_boosting(QueryBoostingStrategy())
        stats = cluster_cache_stats(cluster)
        assert stats["inner_llm_calls"] == stats["distinct_prompts"]
        assert stats["inner_llm_calls"] == len(result.combined.records)

    def test_warm_shared_store_pays_nothing(self):
        store = MemoryCacheStore(max_entries=None)
        flight = SharedFlight()
        cold = build_cluster(fresh_setup(), 2, store=store, flight=flight)
        cold_result = cold.run_boosting(QueryBoostingStrategy())
        warm = build_cluster(fresh_setup(), 2, store=store, flight=flight)
        warm_result = warm.run_boosting(QueryBoostingStrategy())
        assert cluster_cache_stats(warm)["inner_llm_calls"] == 0
        # Hits cost zero tokens/latency, so token fields differ; the
        # *answers* must not.
        assert [
            (r.node, r.predicted_label, r.round_index)
            for r in warm_result.combined.records
        ] == [
            (r.node, r.predicted_label, r.round_index)
            for r in cold_result.combined.records
        ]

    def test_per_worker_ledgers_reconcile_with_records(self):
        setup = fresh_setup()
        cluster = build_cluster(setup, 2, store=MemoryCacheStore(max_entries=None))
        result = cluster.run_boosting(QueryBoostingStrategy())
        ledger_spend = sum(e.ledger.spent for e in cluster.engines)
        record_tokens = sum(
            r.prompt_tokens + r.completion_tokens for r in result.combined.records
        )
        assert ledger_spend == record_tokens


class TestConstructionValidation:
    def test_no_workers_rejected(self, setup):
        partition = partition_graph(setup.graph, 1)
        with pytest.raises(ValueError, match="at least one worker"):
            ShardedCluster([], partition)

    def test_worker_count_must_match_parts(self, setup):
        partition = partition_graph(setup.graph, 2)
        cluster = build_cluster(setup, 2)
        with pytest.raises(ValueError, match="workers"):
            ShardedCluster(cluster.workers[:1], partition)

    def test_misaligned_indices_rejected(self, setup):
        cluster = build_cluster(setup, 2)
        flipped = [
            ClusterWorker(index=1 - w.index, engine=w.engine, queries=w.queries)
            for w in cluster.workers
        ]
        with pytest.raises(ValueError, match="index-aligned"):
            ShardedCluster(flipped, cluster.partition)

    def test_foreign_queries_rejected(self, setup):
        cluster = build_cluster(setup, 2)
        workers = cluster.workers
        swapped = [
            ClusterWorker(index=0, engine=workers[0].engine, queries=workers[1].queries),
            ClusterWorker(index=1, engine=workers[1].engine, queries=workers[0].queries),
        ]
        with pytest.raises(ValueError, match="owned by"):
            ShardedCluster(swapped, cluster.partition)

    def test_checkpointer_slots_must_align(self, setup):
        cluster = build_cluster(setup, 2, store=MemoryCacheStore(max_entries=None))
        with pytest.raises(ValueError, match="checkpointer"):
            cluster.run_boosting(QueryBoostingStrategy(), checkpointers=[None])

    def test_engine_for_routes_by_partition(self, setup):
        cluster = build_cluster(setup, 2)
        for node in setup.queries[:10]:
            owner = cluster.partition.part_of(int(node))
            assert cluster.engine_for(int(node)) is cluster.engines[owner]


class TestStepperGuards:
    def test_step_after_done_raises(self, setup):
        cluster = build_cluster(setup, 1, store=MemoryCacheStore(max_entries=None))
        worker = cluster.workers[0]
        stepper = BoostingStepper(
            QueryBoostingStrategy(), worker.engine, worker.queries
        )
        while not stepper.done:
            stepper.step()
        with pytest.raises(RuntimeError):
            stepper.step()

    def test_finish_before_done_raises(self, setup):
        cluster = build_cluster(setup, 1, store=MemoryCacheStore(max_entries=None))
        worker = cluster.workers[0]
        stepper = BoostingStepper(
            QueryBoostingStrategy(), worker.engine, worker.queries
        )
        with pytest.raises(RuntimeError):
            stepper.finish()


class TestClusterServe:
    def make_requests(self, setup, tenants, count=24):
        nodes = setup.queries[:count]
        return [
            ServeRequest(tenants[i % len(tenants)].name, int(node), arrival=0.0)
            for i, node in enumerate(nodes)
        ]

    def test_one_shard_serve_matches_plain_layer(self):
        tenants = [TenantSpec("alpha", weight=2), TenantSpec("beta", weight=1)]

        plain_setup = fresh_setup()
        plain_engine = unsharded_engine(plain_setup)
        plain_engine.ledger = None
        plain = ServingLayer(plain_engine, tenants=tenants)
        plain_report = plain.replay(self.make_requests(plain_setup, tenants))

        cluster_setup = fresh_setup()
        cluster = build_cluster(
            cluster_setup, 1, store=MemoryCacheStore(max_entries=None), ledgers=False
        )
        layer = ServingLayer(tenants=tenants, cluster=cluster)
        report = layer.replay(self.make_requests(cluster_setup, tenants))

        plain_view = [
            (o.request.tenant, o.request.node, o.status, o.tier, o.completed_at)
            for o in plain_report.outcomes
        ]
        cluster_view = [
            (o.request.tenant, o.request.node, o.status, o.tier, o.completed_at)
            for o in report.outcomes
        ]
        assert cluster_view == plain_view
        assert report.book.snapshot() == plain_report.book.snapshot()

    def test_multi_shard_serve_keeps_fairness_and_accounting(self):
        setup = fresh_setup()
        cluster = build_cluster(
            setup, 2, store=MemoryCacheStore(max_entries=None), ledgers=False
        )
        tenants = [TenantSpec("alpha", weight=2), TenantSpec("beta", weight=1)]
        layer = ServingLayer(tenants=tenants, cluster=cluster)
        report = layer.replay(self.make_requests(setup, tenants))

        served = {t.name: 0 for t in tenants}
        for outcome in report.outcomes:
            assert outcome.answered
            served[outcome.request.tenant] += 1
        assert all(count > 0 for count in served.values())

        # Records were produced by the owning shard's engine, and charges
        # reconcile token-for-token on the tenant ledgers.
        charged = {t.name: 0 for t in tenants}
        for outcome in report.outcomes:
            if outcome.record is not None:
                charged[outcome.request.tenant] += outcome.record.total_tokens
        snapshot = report.book.snapshot()
        for name, tokens in charged.items():
            assert snapshot[name][0] == tokens

    def test_cluster_engines_with_ledgers_rejected(self):
        setup = fresh_setup()
        cluster = build_cluster(setup, 2, store=MemoryCacheStore(max_entries=None))
        with pytest.raises(ValueError, match="ledger"):
            ServingLayer(tenants=[TenantSpec("a")], cluster=cluster)
