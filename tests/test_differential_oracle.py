"""Differential oracle: wave vs DAG dispatch × simulated vs threads.

The DAG dispatch plan replaces the wave barrier with per-query readiness
(:mod:`repro.runtime.readiness`) while promising the *same canonical
execution*.  This suite turns that promise into a four-legged differential
oracle run over every scenario family the equivalence harness can draw:

``wave-sim`` and ``dag-sim``
    Both must be **bit-identical to serial** — records, rounds, ledgers,
    usage, checkpoint bytes, traces, metrics (``compare_traces=True``).
    The DAG plan's virtual packing changes only the scheduler's own
    overlap accounting, which the harness already excludes.

``dag-threads`` vs ``wave-threads``
    Thread dispatch legitimately diverges from serial in span sequence,
    and — on clock-advancing scenarios (retry backoff) — in the
    ``latency_seconds`` a worker thread observes, so the threads legs are
    compared *against each other*: the pipelined DAG executor must produce
    exactly the records/ledgers/checkpoints of the wave-threads executor
    it replaces.  On scenarios where the simulated clock never moves, both
    threads legs are additionally records-identical to serial, and the two
    thread traces must match span for span once the purely additive
    ``dag_*`` readiness attributes are stripped.

Every DAG leg additionally audits the readiness ledger itself: acyclic,
reads settled at dispatch, topological replay equal to canonical order.
"""

from __future__ import annotations

import pytest

from repro.runtime.scheduler import QueryScheduler

from tests.equivalence import (
    Scenario,
    ServeScenario,
    assert_equivalent,
    assert_serve_equivalent,
    readiness_attribute_count,
    run_scenario,
    run_serve_scenario,
    strip_readiness_attributes,
    strip_scheduler_metrics,
)

BATCH = 4
WORKERS = 3

#: The scenario matrix.  ``clock_moves`` marks configurations whose worker
#: threads advance the simulated clock (retry backoff inside ``call_llm``),
#: which makes per-record latencies differ from serial in *any* threads
#: mode — wave or DAG alike — so those legs compare threads-vs-threads only.
SCENARIOS = [
    pytest.param("plain", Scenario(strategy="none", num_queries=10), False, id="plain"),
    pytest.param("boost", Scenario(strategy="boost", num_queries=14), False, id="boost"),
    pytest.param(
        "boost-fail",
        Scenario(strategy="boost", num_queries=12, failure_rate=0.3, use_ladder=True),
        True,
        id="boost-fail",
    ),
    pytest.param(
        "boost-route",
        Scenario(strategy="boost", num_queries=12, route=True),
        False,
        id="boost-route",
    ),
    pytest.param(
        "boost-prune",
        Scenario(strategy="boost", num_queries=14, prune_fraction=0.3),
        False,
        id="boost-prune",
    ),
    pytest.param("guard", Scenario(strategy="guard", num_queries=10), False, id="guard"),
    pytest.param(
        "boost-cache",
        Scenario(strategy="boost", num_queries=12, use_cache=True),
        False,
        id="boost-cache",
    ),
    pytest.param(
        "sns", Scenario(strategy="boost", num_queries=12, method="sns"), False, id="sns"
    ),
    pytest.param(
        "khop", Scenario(strategy="boost", num_queries=12, method="2-hop"), False, id="khop"
    ),
    pytest.param(
        "compress",
        Scenario(strategy="none", num_queries=12, compress_fraction=0.5),
        False,
        id="compress",
    ),
    pytest.param(
        "compress-prune",
        Scenario(
            strategy="none", num_queries=14, compress_fraction=0.5, prune_fraction=0.25
        ),
        False,
        id="compress-prune",
    ),
]


def make_scheduler(
    mode: str, dispatch: str, prefix_sharing: bool = False
) -> QueryScheduler:
    return QueryScheduler(
        max_batch_size=BATCH,
        max_concurrency=WORKERS,
        mode=mode,
        dispatch=dispatch,
        prefix_sharing=prefix_sharing,
    )


def audit_dag(scheduler: QueryScheduler) -> None:
    """Assert the readiness ledger's structural invariants for one run."""
    dag = scheduler.dag
    assert dag is not None, "DAG dispatch must populate scheduler.dag"
    assert dag.events, "DAG dispatch recorded no events"
    assert dag.violations == [], f"unsettled reads at dispatch: {dag.violations}"
    assert dag.is_acyclic(), "readiness DAG has a cycle"
    assert dag.reads_settled_at_dispatch(), "a query dispatched before its reads settled"
    assert dag.topological_order() == dag.canonical_order(), (
        "topological replay diverged from canonical dispatch order"
    )


class TestSimulatedLegs:
    """Simulated dispatch — wave and DAG — is bit-identical to serial."""

    @pytest.mark.parametrize("label, scenario, clock_moves", SCENARIOS)
    def test_wave_and_dag_match_serial(
        self, tiny_tag, tiny_split, tiny_builder, label, scenario, clock_moves
    ):
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        wave = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("simulated", "wave"),
        )
        dag_sched = make_scheduler("simulated", "dag")
        dag = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_equivalent(serial, wave)
        assert_equivalent(serial, dag)
        audit_dag(dag_sched)

    def test_checkpoint_bytes_match_across_all_legs(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        scenario = Scenario(strategy="boost", num_queries=12, checkpoint=True)
        serial = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            checkpoint_path=tmp_path / "serial.json",
        )
        for mode, dispatch in (
            ("simulated", "wave"),
            ("simulated", "dag"),
            ("threads", "wave"),
            ("threads", "dag"),
        ):
            leg = run_scenario(
                scenario, tiny_tag, tiny_split, tiny_builder,
                scheduler=make_scheduler(mode, dispatch),
                checkpoint_path=tmp_path / f"{mode}-{dispatch}.json",
            )
            assert leg.checkpoint_text == serial.checkpoint_text, (
                f"checkpoint bytes diverged under {mode}/{dispatch}"
            )

    def test_dag_simulated_reports_overlap_on_multi_round_boost(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        """The virtual packing must actually pipeline: on a multi-round
        boosted run with retry stalls, some wave starts inside its
        predecessor's tail (overlap > 0), while the wave plan reports none."""
        scenario = Scenario(
            strategy="boost", num_queries=12, failure_rate=0.3, use_ladder=True
        )
        dag_sched = make_scheduler("simulated", "dag")
        run_scenario(scenario, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched)
        assert len(dag_sched.report.waves) > 1, "scenario must span multiple waves"
        assert any(w.overlapped_seconds > 0 for w in dag_sched.report.waves), (
            "DAG packing never overlapped a wave into its predecessor's tail"
        )


class TestThreadLegs:
    """Pipelined DAG threads reproduce wave-threads artifact for artifact."""

    @pytest.mark.parametrize("label, scenario, clock_moves", SCENARIOS)
    def test_dag_threads_match_wave_threads(
        self, tiny_tag, tiny_split, tiny_builder, label, scenario, clock_moves
    ):
        wave = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("threads", "wave"),
        )
        dag_sched = make_scheduler("threads", "dag")
        dag = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_equivalent(wave, dag, compare_traces=False)
        audit_dag(dag_sched)
        if not scenario.route and wave.metrics is not None and dag.metrics is not None:
            # Metrics beyond the scheduler's own families must agree too: a
            # doubled run start or a misplaced deferral shows up here.  Routed
            # runs are left out: the router reports each cascade's dollars
            # from the worker thread, so its float counter sums in call
            # completion order, which differs between any two threads legs.
            assert strip_scheduler_metrics(dag.metrics) == strip_scheduler_metrics(
                wave.metrics
            ), "thread legs' metrics diverged beyond repro_scheduler_*"
        if not clock_moves:
            # With a motionless clock the threads legs are records-identical
            # to serial too, and the traces must agree span for span once
            # the additive dag_* readiness attributes are stripped.
            serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
            assert_equivalent(serial, dag, compare_traces=False)
            if wave.trace is not None and dag.trace is not None:
                # Spans only: the trailing metrics line carries the
                # scheduler's own wall-clock counters, which are
                # nondeterministic in any threads mode.
                wave_spans = [l for l in wave.trace if l.get("kind") != "metrics"]
                dag_spans = [
                    l
                    for l in strip_readiness_attributes(dag.trace)
                    if l.get("kind") != "metrics"
                ]
                assert dag_spans == wave_spans, (
                    "thread traces diverged beyond the dag_* attributes"
                )

    def test_multi_round_boost_trace_carries_readiness_attributes(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        scenario = Scenario(strategy="boost", num_queries=14)
        wave = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("threads", "wave"),
        )
        dag = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("threads", "dag"),
        )
        assert readiness_attribute_count(wave.trace) == 0, (
            "wave traces must stay free of dag_* attributes"
        )
        assert readiness_attribute_count(dag.trace) > 0, (
            "DAG threads trace carries no readiness annotations"
        )


#: Scenario subset for the prefix-sharing legs: plain and compressed runs
#: plan every wave; guard waves skip planning (decide_include), which must
#: itself be transparent; boost exercises multi-round re-planning.
PREFIX_SCENARIOS = [
    pytest.param(Scenario(strategy="none", num_queries=12), id="plain"),
    pytest.param(Scenario(strategy="boost", num_queries=14), id="boost"),
    pytest.param(Scenario(strategy="guard", num_queries=10), id="guard"),
    pytest.param(
        Scenario(strategy="none", num_queries=12, compress_fraction=0.5),
        id="compress",
    ),
]


class TestPrefixSharingLegs:
    """Prefix-aware batching is an accounting overlay: wave and DAG plans
    stay bit-identical to serial in simulated mode, and call-count-identical
    in threads mode, while the plan's token split balances exactly."""

    @pytest.mark.parametrize("scenario", PREFIX_SCENARIOS)
    def test_prefix_wave_and_dag_match_serial(
        self, tiny_tag, tiny_split, tiny_builder, scenario
    ):
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        wave_sched = make_scheduler("simulated", "wave", prefix_sharing=True)
        wave = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=wave_sched
        )
        dag_sched = make_scheduler("simulated", "dag", prefix_sharing=True)
        dag = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_equivalent(serial, wave)
        assert_equivalent(serial, dag)
        audit_dag(dag_sched)
        for sched in (wave_sched, dag_sched):
            report = sched.report
            assert 0 <= report.shared_prompt_tokens <= report.prefix_prompt_tokens

    @pytest.mark.parametrize("scenario", PREFIX_SCENARIOS)
    def test_prefix_threads_call_count_identical(
        self, tiny_tag, tiny_split, tiny_builder, scenario
    ):
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        threads = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("threads", "wave", prefix_sharing=True),
        )
        # ``usage`` equality inside assert_equivalent covers the call count;
        # records/ledgers/checkpoints must also match, only traces may not.
        assert_equivalent(serial, threads, compare_traces=False)

    def test_shared_first_layout_shares_and_stays_identical(
        self, tiny_tag, tiny_split, tiny_graph
    ):
        """With the shared-first prompt layout the planner must find real
        sharing (>0 tokens) while predictions stay bit-identical to the
        serial run over the same builder."""
        from repro.prompts.builder import PromptBuilder

        builder = PromptBuilder(
            tiny_graph.class_names, "paper", "citation", "Abstract", shared_first=True
        )
        scenario = Scenario(strategy="none", num_queries=12)
        serial = run_scenario(scenario, tiny_tag, tiny_split, builder)
        sched = make_scheduler("simulated", "wave", prefix_sharing=True)
        batched = run_scenario(
            scenario, tiny_tag, tiny_split, builder, scheduler=sched
        )
        assert_equivalent(serial, batched)
        assert sched.report.shared_prompt_tokens > 0, (
            "shared-first layout produced no cacheable prefixes"
        )


class TestCompressionReplay:
    """The compression rung is replay-exact: a run that crashes mid-way and
    resumes from its checkpoint reproduces the uninterrupted records with
    exactly ``n - k`` further LLM calls — compression being a pure function
    of (prompt, seed), the resumed engine re-derives identical prompts."""

    NUM_QUERIES = 12
    CRASH_AFTER = 5

    def _engine(self, tiny_graph, tiny_split, tiny_builder, llm):
        from repro.mqo.compression import PromptCompressor
        from repro.runtime.engine import MultiQueryEngine
        from repro.selection.registry import make_selector

        return MultiQueryEngine(
            graph=tiny_graph,
            llm=llm,
            selector=make_selector("1-hop"),
            builder=tiny_builder,
            labeled=tiny_split.labeled,
            max_neighbors=4,
            seed=9,
            compressor=PromptCompressor(target_ratio=0.6, seed=23),
        )

    def test_compressed_run_resumes_exactly(
        self, tiny_graph, tiny_split, tiny_builder, tiny_tag, tmp_path
    ):
        from dataclasses import asdict

        from repro.io.runs import RunCheckpointer

        from tests.test_checkpoint import Interrupted, fresh_llm

        queries = tiny_split.queries[: self.NUM_QUERIES]
        compressed = frozenset(int(v) for v in queries)

        full_llm = fresh_llm(tiny_tag)
        full = self._engine(tiny_graph, tiny_split, tiny_builder, full_llm).run(
            queries, compressed=compressed
        )
        assert full.num_compressed > 0, "workload never exercised the rung"

        path = tmp_path / "compressed-checkpoint.json"
        crashing = fresh_llm(tiny_tag, stop_after=self.CRASH_AFTER)
        engine = self._engine(tiny_graph, tiny_split, tiny_builder, crashing)
        with pytest.raises(Interrupted):
            engine.run(queries, checkpointer=RunCheckpointer(path), compressed=compressed)
        assert crashing.usage.num_queries == self.CRASH_AFTER

        resumed_llm = fresh_llm(tiny_tag)
        engine = self._engine(tiny_graph, tiny_split, tiny_builder, resumed_llm)
        checkpointer = RunCheckpointer(path)
        assert checkpointer.resumed_records == self.CRASH_AFTER
        resumed = engine.run(queries, checkpointer=checkpointer, compressed=compressed)

        assert [asdict(r) for r in resumed.records] == [
            asdict(r) for r in full.records
        ], "resumed compressed records diverged from the uninterrupted run"
        assert resumed_llm.usage.num_queries == self.NUM_QUERIES - self.CRASH_AFTER


class TestServeLegs:
    """The serving layer rides the same oracle: new tenant requests read no
    pseudo-labels, so DAG dispatch admits them into in-flight waves without
    changing a single outcome, ledger charge, or checkpoint byte."""

    SERVE = ServeScenario(num_requests=20, num_tenants=3, wave_quota=4)
    SERVE_THREADS = ServeScenario(
        num_requests=20, num_tenants=3, wave_quota=4, seconds_per_call=0.0
    )

    def test_simulated_serve_matches_serial_bit_for_bit(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        serial = run_serve_scenario(self.SERVE, tiny_tag, tiny_split, tiny_builder)
        wave = run_serve_scenario(
            self.SERVE, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("simulated", "wave"),
        )
        dag_sched = make_scheduler("simulated", "dag")
        dag = run_serve_scenario(
            self.SERVE, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_serve_equivalent(serial, wave)
        assert_serve_equivalent(serial, dag)
        audit_dag(dag_sched)

    def test_threads_serve_matches_wave_threads(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        serial = run_serve_scenario(
            self.SERVE_THREADS, tiny_tag, tiny_split, tiny_builder
        )
        wave = run_serve_scenario(
            self.SERVE_THREADS, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("threads", "wave"),
        )
        dag_sched = make_scheduler("threads", "dag")
        dag = run_serve_scenario(
            self.SERVE_THREADS, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_serve_equivalent(wave, dag, compare_traces=False)
        assert_serve_equivalent(serial, dag, compare_traces=False)
        audit_dag(dag_sched)

    def test_shedding_serve_under_dag_matches_serial(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        scenario = ServeScenario(
            num_requests=24,
            num_tenants=4,
            degrade_watermark=3,
            shed_watermark=6,
            wave_quota=3,
        )
        serial = run_serve_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        dag = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("simulated", "dag"),
        )
        assert_serve_equivalent(serial, dag)

    #: Full new-tier ladder: compress below degrade below shed, small quota
    #: so the queue actually climbs through all three watermarks.
    COMPRESS = ServeScenario(
        num_requests=24,
        num_tenants=4,
        compress_watermark=2,
        degrade_watermark=4,
        shed_watermark=7,
        wave_quota=3,
        compress_ratio=0.6,
    )

    def test_compression_rung_serve_matches_serial(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        serial = run_serve_scenario(self.COMPRESS, tiny_tag, tiny_split, tiny_builder)
        assert any(
            o["tier"] == "degraded_compressed" for o in serial.outcomes
        ), "scenario never reached the compression watermark"
        wave = run_serve_scenario(
            self.COMPRESS, tiny_tag, tiny_split, tiny_builder,
            scheduler=make_scheduler("simulated", "wave"),
        )
        dag_sched = make_scheduler("simulated", "dag")
        dag = run_serve_scenario(
            self.COMPRESS, tiny_tag, tiny_split, tiny_builder, scheduler=dag_sched
        )
        assert_serve_equivalent(serial, wave)
        assert_serve_equivalent(serial, dag)
        audit_dag(dag_sched)

    def test_compression_rung_journal_replay_exact(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        """Crash/resume for serving: a journal persisted by a compressed +
        prefix-shared run re-derives every outcome (tiers, latencies, ledger
        charges, shared-token credits) without a single LLM call."""
        path = tmp_path / "serve-compress.journal"
        scheduler = make_scheduler("simulated", "wave", prefix_sharing=True)
        live = run_serve_scenario(
            self.COMPRESS, tiny_tag, tiny_split, tiny_builder,
            scheduler=scheduler, journal_path=path,
        )
        assert any(
            o["tier"] == "degraded_compressed" for o in live.outcomes
        ), "scenario never reached the compression watermark"
        replay_sched = make_scheduler("simulated", "wave", prefix_sharing=True)
        replayed = run_serve_scenario(
            self.COMPRESS, tiny_tag, tiny_split, tiny_builder,
            scheduler=replay_sched, journal_path=path,
        )
        # Not assert_serve_equivalent: replay legitimately zeroes ``usage``
        # (that is the point) — every *derived* artifact must still match.
        assert replayed.outcomes == live.outcomes, "replayed outcomes diverged"
        assert replayed.cycles == live.cycles, "replayed cycle count diverged"
        assert replayed.book == live.book, (
            "replayed ledger book diverged (shared credits not re-applied?)"
        )
        assert replayed.usage == (0, 0, 0), "journal replay issued LLM calls"
