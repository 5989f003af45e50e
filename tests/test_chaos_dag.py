"""Chaos injection against the DAG dispatch plan.

The readiness DAG changes *when* work dispatches, not *what* executes — so
every chaos guarantee proved for the wave scheduler must survive dispatch
through the readiness ledger:

* worker crashes against pipelined DAG workers recover to serial records
  with zero duplicate LLM calls (the crash fires before the provider);
* worker stalls reorder thread completion without changing one artifact;
* a checkpoint crash mid-run resumes replay-exactly, re-querying only the
  lost generation;
* the :class:`ChaosInvariantChecker` audits stay clean for chaotic serve
  runs dispatched through the DAG.

Every test also audits the readiness ledger itself: faults must never
produce a read-before-settle or break the canonical topological order.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.io.runs import RunCheckpointer
from repro.llm.reliability import SimulatedClock
from repro.llm.simulated import SimulatedLLM
from repro.runtime.chaos import (
    ChaosController,
    ChaosInvariantChecker,
    CheckpointCrash,
    FaultPlan,
    LatencyStorm,
    SimulatedCrash,
    WorkerCrash,
    WorkerStall,
)
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import AdmissionPolicy, ServeRequest, ServingLayer, TenantSpec

from tests.equivalence import Scenario, assert_equivalent, run_scenario
from tests.test_differential_oracle import audit_dag


def dag_scheduler(mode: str = "threads", injector=None) -> QueryScheduler:
    return QueryScheduler(
        max_batch_size=4,
        max_concurrency=3,
        mode=mode,
        dispatch="dag",
        fault_injector=injector,
    )


class TestWorkerFaultsUnderDag:
    def test_crash_in_pipelined_boost_recovers_to_serial(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        """A DAG worker dying before its LLM call must be recovered on the
        canonical path: identical records, rounds, and base-model usage
        (usage equality *is* the zero-duplicate-calls proof)."""
        scenario = Scenario(strategy="boost", num_queries=12)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)

        # Wave 0 of this boosted run has exactly one member: target it.
        chaos = ChaosController(FaultPlan(faults=(WorkerCrash(wave_index=0, item_index=0),)))
        injector = chaos.scheduler_injector()
        scheduler = dag_scheduler(injector=injector)
        chaotic = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=scheduler
        )
        assert injector.crashes == 1, "the crash must target a DAG worker"
        assert chaos.fault_counts() == {"worker_crash": 1}
        assert_equivalent(serial, chaotic, compare_traces=False)
        audit_dag(scheduler)

    def test_crash_in_plain_dag_run_recovers_to_serial(
        self, make_tiny_engine, tiny_split
    ):
        nodes = [int(v) for v in tiny_split.queries[:8]]
        serial = make_tiny_engine().run(nodes)

        chaos = ChaosController(FaultPlan(faults=(WorkerCrash(wave_index=0, item_index=1),)))
        injector = chaos.scheduler_injector()
        scheduler = dag_scheduler(injector=injector)
        chaotic = make_tiny_engine(scheduler=scheduler).run(nodes)
        assert injector.crashes == 1
        assert [dataclasses.asdict(r) for r in chaotic.records] == [
            dataclasses.asdict(r) for r in serial.records
        ], "crashed item must be recovered with identical output"
        audit_dag(scheduler)

    def test_stalls_on_every_dag_worker_change_nothing(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        scenario = Scenario(strategy="boost", num_queries=10)
        serial = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)

        chaos = ChaosController(FaultPlan(faults=(WorkerStall(stall_seconds=0.002),)))
        injector = chaos.scheduler_injector()
        scheduler = dag_scheduler(injector=injector)
        stalled = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, scheduler=scheduler
        )
        assert injector.stalls == serial.usage[0], (
            "every dispatched DAG worker passes through the stall hook"
        )
        assert_equivalent(serial, stalled, compare_traces=False)
        audit_dag(scheduler)

    def test_crash_plus_stall_with_failure_injection(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        """Worker faults layered on top of LLM failure injection: deferral
        bookkeeping, degradation, and recovery all still match the
        wave-threads execution of the same chaotic plan."""
        scenario = Scenario(
            strategy="boost", num_queries=12, failure_rate=0.3, use_ladder=True
        )

        def chaotic_run(dispatch: str):
            chaos = ChaosController(
                FaultPlan(
                    faults=(
                        WorkerCrash(wave_index=0, item_index=0),
                        WorkerStall(wave_index=1, stall_seconds=0.002),
                    )
                )
            )
            injector = chaos.scheduler_injector()
            scheduler = QueryScheduler(
                max_batch_size=4,
                max_concurrency=3,
                mode="threads",
                dispatch=dispatch,
                fault_injector=injector,
            )
            capture = run_scenario(
                scenario, tiny_tag, tiny_split, tiny_builder, scheduler=scheduler
            )
            return capture, injector, scheduler

        wave, wave_injector, _ = chaotic_run("wave")
        dag, dag_injector, scheduler = chaotic_run("dag")
        assert wave_injector.crashes == dag_injector.crashes == 1
        assert_equivalent(wave, dag, compare_traces=False)
        audit_dag(scheduler)


class TestCheckpointCrashUnderDag:
    @pytest.mark.parametrize("mode", ["simulated", "threads"])
    def test_crash_resume_is_replay_exact(
        self, make_tiny_engine, tiny_split, tiny_tag, tmp_path, mode
    ):
        nodes = [int(v) for v in tiny_split.queries[:8]]
        baseline = make_tiny_engine().run(nodes)

        path = tmp_path / "checkpoint.json"
        chaos = ChaosController(FaultPlan(faults=(CheckpointCrash(flush_index=3),)))
        checker = ChaosInvariantChecker()
        engine = make_tiny_engine(scheduler=dag_scheduler(mode=mode))
        with pytest.raises(SimulatedCrash, match="delta line torn"):
            engine.run(
                nodes,
                checkpointer=RunCheckpointer(
                    path,
                    flush_every=1,
                    observer=checker,
                    crash_hook=chaos.checkpoint_crash_hook(),
                ),
            )
        assert chaos.fault_counts() == {"checkpoint_crash": 1}

        resumed_llm = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        checkpointer = RunCheckpointer(path, observer=checker)
        assert checkpointer.recovered
        assert checkpointer.resumed_records == 3, "last verified-good generation"

        resume_scheduler = dag_scheduler(mode=mode)
        result = make_tiny_engine(llm=resumed_llm, scheduler=resume_scheduler).run(
            nodes, checkpointer=checkpointer
        )
        assert result.records == baseline.records
        assert resumed_llm.usage.num_queries == len(nodes) - 3, (
            "exactly the lost generation is re-queried — zero duplicate calls"
        )
        checker.verify(checkpoint=RunCheckpointer(path).state, result=result)
        audit_dag(resume_scheduler)
        replays = [e for e in resume_scheduler.dag.events if e.replayed]
        assert len(replays) == 3, "checkpointed records replay as instant settles"


class TestServeChaosUnderDag:
    def make_layer(self, make_tiny_engine, checker, scheduler, plan=None):
        clock = SimulatedClock()
        chaos = ChaosController(plan, clock=clock, observer=checker) if plan else None
        engine = make_tiny_engine(clock=clock, scheduler=scheduler)
        if chaos is not None:
            engine.llm = chaos.wrap_llm(engine.llm, model="gpt-3.5")
        return ServingLayer(
            engine,
            [TenantSpec("alpha", weight=2), TenantSpec("beta")],
            policy=AdmissionPolicy(wave_quota=4),
            price_model="gpt-3.5",
            observer=checker,
            chaos=chaos,
        )

    def stream(self, tiny_split, n=10):
        nodes = [int(v) for v in tiny_split.queries[:n]]
        return [
            ServeRequest("alpha" if i % 2 else "beta", node, arrival=0.5 * i)
            for i, node in enumerate(nodes)
        ]

    def test_chaotic_serve_through_dag_passes_audit(self, make_tiny_engine, tiny_split):
        checker = ChaosInvariantChecker()
        scheduler = dag_scheduler(mode="simulated")
        plan = FaultPlan(
            faults=(LatencyStorm(start=0.0, end=10.0, extra_seconds=1.0),), seed=6
        )
        layer = self.make_layer(make_tiny_engine, checker, scheduler, plan=plan)
        stream = self.stream(tiny_split)
        report = layer.replay(stream)
        assert checker.chaos_faults, "the storm was observed"
        checker.verify(report=report, book=report.book, num_submitted=len(stream))
        audit_dag(scheduler)

    def test_clean_threads_serve_through_dag_passes_audit(
        self, make_tiny_engine, tiny_split
    ):
        checker = ChaosInvariantChecker()
        scheduler = dag_scheduler(mode="threads")
        layer = self.make_layer(make_tiny_engine, checker, scheduler)
        stream = self.stream(tiny_split)
        report = layer.replay(stream)
        checker.verify(report=report, book=report.book, num_submitted=len(stream))
        audit_dag(scheduler)
