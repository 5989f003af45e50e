"""Tests for the deterministic chaos-injection subsystem.

Covers the fault DSL (validation, JSON round-trip, presets), every
injector (LLM faults, cache chaos, scheduler worker faults, checkpoint
crash), the transparency contract (an empty plan is an exact pass-through),
crash/resume replay-exactness through the serve journal, and the
:class:`ChaosInvariantChecker` audit — both that clean runs pass and that
seeded violations are caught.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.io.runs import RunCheckpointer, load_checkpoint
from repro.llm.caching import CachingLLM
from repro.llm.reliability import (
    InjectedFaultError,
    SimulatedClock,
    resilient,
)
from repro.llm.simulated import SimulatedLLM
from repro.runtime.chaos import (
    MUTATION_MODES,
    PRESET_NAMES,
    CacheCorruption,
    ChaosController,
    ChaosInvariantChecker,
    ChaosInvariantViolation,
    CheckpointCrash,
    ErrorBurst,
    EvictionStorm,
    FaultPlan,
    LatencyStorm,
    MalformedPayload,
    SimulatedCrash,
    TenantFlood,
    WorkerCrash,
    WorkerStall,
    mutate_text,
    preset,
)
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.serve import (
    AdmissionPolicy,
    ServeRequest,
    ServingLayer,
    TenantSpec,
)
from repro.utils.rng import spawn_rng

from tests.equivalence import (
    Scenario,
    ServeScenario,
    assert_equivalent,
    assert_serve_equivalent,
    run_scenario,
    run_serve_scenario,
)


def controller(plan: FaultPlan, clock: SimulatedClock | None = None) -> ChaosController:
    return ChaosController(plan, clock=clock)


def node_prompt(tag, builder, index: int = 0) -> str:
    """A real zero-shot prompt (the simulated model parses its structure)."""
    node = tag.graph.texts[index]
    return builder.zero_shot(node.title, node.abstract)


# ------------------------------------------------------------------ fault DSL


class TestFaultValidation:
    def test_windowed_faults_reject_bad_windows(self):
        for cls in (ErrorBurst, LatencyStorm, MalformedPayload, CacheCorruption):
            with pytest.raises(ValueError, match="start"):
                cls(start=-1.0, end=5.0)
            with pytest.raises(ValueError, match="start"):
                cls(start=5.0, end=5.0)

    def test_rates_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match="failure_rate"):
            ErrorBurst(start=0.0, end=1.0, failure_rate=0.0)
        with pytest.raises(ValueError, match="failure_rate"):
            ErrorBurst(start=0.0, end=1.0, failure_rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            MalformedPayload(start=0.0, end=1.0, rate=2.0)
        with pytest.raises(ValueError, match="rate"):
            CacheCorruption(start=0.0, end=1.0, rate=0.0)

    def test_unknown_mutation_modes_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            MalformedPayload(start=0.0, end=1.0, modes=("truncate", "bitflip"))
        with pytest.raises(ValueError, match="unknown mode"):
            CacheCorruption(start=0.0, end=1.0, modes=("zalgo",))
        with pytest.raises(ValueError, match="non-empty"):
            MalformedPayload(start=0.0, end=1.0, modes=())

    def test_misc_fault_validation(self):
        with pytest.raises(ValueError, match="eviction"):
            EvictionStorm(times=())
        with pytest.raises(ValueError, match=">= 0"):
            EvictionStorm(times=(-1.0,))
        with pytest.raises(ValueError, match="stall_seconds"):
            WorkerStall(stall_seconds=0.0)
        with pytest.raises(ValueError, match="flush_index"):
            CheckpointCrash(flush_index=-1)
        with pytest.raises(ValueError, match="tenant"):
            TenantFlood(tenant="")
        with pytest.raises(ValueError, match="count"):
            TenantFlood(tenant="acme", count=0)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(TypeError, match="not a fault"):
            FaultPlan(faults=("surprise",))

    def test_window_matching_is_half_open_and_scoped(self):
        burst = ErrorBurst(start=10.0, end=20.0, model="gpt-3.5", tenant="acme")
        assert burst.matches(10.0, "retry(gpt-3.5)", "acme")
        assert not burst.matches(20.0, "gpt-3.5", "acme"), "end is exclusive"
        assert not burst.matches(9.9, "gpt-3.5", "acme")
        assert not burst.matches(15.0, "gpt-4", "acme"), "model substring must match"
        assert not burst.matches(15.0, "gpt-3.5", "umbrella"), "tenant is exact"
        assert ErrorBurst(start=0.0, end=1.0).matches(0.5, "anything", None)

    def test_plan_helpers(self):
        plan = preset("everything", tenant="acme")
        assert not plan.empty
        assert preset("none").empty
        assert len(plan.of_type(ErrorBurst)) == 1
        assert len(plan.of_type(ErrorBurst, LatencyStorm)) == 2
        assert not plan.has_tenant_scoped_faults, "floods do not scope LLM faults"
        scoped = FaultPlan(faults=(LatencyStorm(start=0, end=1, tenant="acme"),))
        assert scoped.has_tenant_scoped_faults


class TestPlanJSON:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_round_trips(self, name):
        plan = preset(name, seed=7, tenant="acme")
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_format_version_rejected(self):
        payload = json.loads(preset("error-burst").to_json())
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            FaultPlan.from_json(json.dumps(payload))

    def test_unknown_fault_kind_rejected(self):
        payload = json.loads(preset("none").to_json())
        payload["faults"] = [{"kind": "meteor_strike"}]
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json(json.dumps(payload))

    def test_unknown_fault_field_rejected(self):
        payload = json.loads(preset("error-burst").to_json())
        payload["faults"][0]["blast_radius"] = 3
        with pytest.raises(ValueError, match="blast_radius"):
            FaultPlan.from_json(json.dumps(payload))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("rainbows")


class TestMutateText:
    @pytest.mark.parametrize("mode", MUTATION_MODES)
    def test_modes_are_deterministic(self, mode):
        text = "The category is Alpha because of the title."
        a = mutate_text(text, mode, spawn_rng(0, "m", mode))
        b = mutate_text(text, mode, spawn_rng(0, "m", mode))
        assert a == b

    def test_empty_mode_empties(self):
        assert mutate_text("anything", "empty", spawn_rng(0)) == ""

    def test_truncate_shortens(self):
        text = "x" * 50
        out = mutate_text(text, "truncate", spawn_rng(0, "t"))
        assert len(out) < len(text) and text.startswith(out)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mutation mode"):
            mutate_text("x", "bitflip", spawn_rng(0))


# ------------------------------------------------------------------ chaos LLM


class TestChaosLLM:
    def test_empty_plan_is_transparent(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        prompt = node_prompt(tiny_tag, tiny_builder)
        bare = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        wrapped_base = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        chaos = controller(FaultPlan(), clock=clock)
        wrapped = chaos.wrap_llm(wrapped_base)
        assert wrapped.complete(prompt) == bare.complete(prompt)
        assert clock.now == 0.0, "no clock advance outside fault windows"
        assert chaos.fault_log == []
        assert wrapped._attempts == {}, "no RNG bookkeeping outside windows"

    def test_error_burst_raises_inside_window_only(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        plan = FaultPlan(faults=(ErrorBurst(start=0.0, end=10.0, failure_rate=1.0),))
        chaos = controller(plan, clock=clock)
        llm = chaos.wrap_llm(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5))
        prompt = node_prompt(tiny_tag, tiny_builder)
        with pytest.raises(InjectedFaultError, match="chaos error burst"):
            llm.complete(prompt)
        assert llm.injected_errors == 1
        clock.advance(10.0)
        assert llm.complete(prompt).text, "outside the window calls succeed"
        assert chaos.fault_counts() == {"error_burst": 1}

    def test_burst_drives_production_retries(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        plan = FaultPlan(
            faults=(ErrorBurst(start=0.0, end=10.0, failure_rate=0.6),), seed=3
        )
        chaos = controller(plan, clock=clock)
        llm = resilient(
            chaos.wrap_llm(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)),
            max_attempts=6,
            jitter=0.0,
            failure_threshold=10**9,
            seed=17,
            clock=clock,
        )
        response = llm.complete(node_prompt(tiny_tag, tiny_builder))
        assert response.text, "the retrier rode out the burst"

    def test_latency_storm_advances_the_clock(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        plan = FaultPlan(faults=(LatencyStorm(start=0.0, end=5.0, extra_seconds=2.5),))
        chaos = controller(plan, clock=clock)
        llm = chaos.wrap_llm(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5))
        llm.complete(node_prompt(tiny_tag, tiny_builder))
        assert clock.now == 2.5
        assert llm.storm_seconds == 2.5

    def test_malformed_payload_keeps_token_accounting(self, tiny_tag, tiny_builder):
        prompt = node_prompt(tiny_tag, tiny_builder)
        clean = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5).complete(prompt)
        plan = FaultPlan(
            faults=(MalformedPayload(start=0.0, end=5.0, rate=1.0, modes=("empty",)),)
        )
        chaos = controller(plan, clock=SimulatedClock())
        llm = chaos.wrap_llm(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5))
        mutated = llm.complete(prompt)
        assert mutated.text == ""
        assert mutated.prompt_tokens == clean.prompt_tokens
        assert mutated.completion_tokens == clean.completion_tokens
        assert llm.mutated_payloads == 1

    def test_model_and_tenant_scoping(self, tiny_tag, tiny_builder):
        prompt = node_prompt(tiny_tag, tiny_builder)
        plan = FaultPlan(
            faults=(
                ErrorBurst(start=0.0, end=5.0, model="gpt-4"),
                ErrorBurst(start=0.0, end=5.0, tenant="acme"),
            )
        )
        chaos = controller(plan, clock=SimulatedClock())
        llm = chaos.wrap_llm(
            SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), model="gpt-3.5"
        )
        assert llm.complete(prompt).text, "wrong model and no tenant: passes"
        chaos.current_tenant = "acme"
        with pytest.raises(InjectedFaultError):
            llm.complete(prompt)

    def test_failure_draws_are_keyed_per_prompt_attempt(self, tiny_tag, tiny_builder):
        """Two controllers over the same plan inject the same failures."""
        plan = FaultPlan(
            faults=(ErrorBurst(start=0.0, end=100.0, failure_rate=0.5),), seed=11
        )
        prompts = [node_prompt(tiny_tag, tiny_builder, i) for i in range(12)]

        def burst_pattern():
            chaos = controller(plan, clock=SimulatedClock())
            llm = chaos.wrap_llm(SimulatedLLM(tiny_tag.vocabulary, name="m", seed=5))
            pattern = []
            for prompt in prompts:
                try:
                    llm.complete(prompt)
                    pattern.append("ok")
                except InjectedFaultError:
                    pattern.append("fail")
            return pattern

        first, second = burst_pattern(), burst_pattern()
        assert first == second
        assert "ok" in first and "fail" in first, "rate 0.5 mixes both"


# ---------------------------------------------------------------- cache chaos


class TestCacheChaos:
    def test_corruption_hits_only_cache_reads(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        plan = FaultPlan(
            faults=(CacheCorruption(start=0.0, end=100.0, rate=1.0, modes=("empty",)),)
        )
        chaos = controller(plan, clock=clock)
        cache = CachingLLM(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5))
        agent = chaos.attach_cache(cache)
        prompt = node_prompt(tiny_tag, tiny_builder)
        paid = cache.complete(prompt)
        assert paid.text, "the freshly paid response is never corrupted"
        hit = cache.complete(prompt)
        assert hit.text == ""
        assert agent.corrupted_reads == 1

    def test_eviction_storm_fires_between_polls(self, tiny_tag, tiny_builder):
        clock = SimulatedClock()
        plan = FaultPlan(faults=(EvictionStorm(times=(5.0,)),))
        chaos = controller(plan, clock=clock)
        cache = CachingLLM(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5))
        agent = chaos.attach_cache(cache)
        prompt = node_prompt(tiny_tag, tiny_builder, 1)
        cache.complete(prompt)
        chaos.poll(4.0)
        assert agent.evictions_fired == 0
        assert cache.complete(prompt).prompt_tokens == 0, "still cached"
        chaos.poll(6.0)
        assert agent.evictions_fired == 1
        assert cache.complete(prompt).prompt_tokens > 0, "cache is cold again"
        chaos.poll(7.0)
        assert agent.evictions_fired == 1, "each storm time fires once"


# ------------------------------------------------------------ scheduler chaos


class TestSchedulerChaos:
    def test_worker_crash_recovers_to_serial_records(self, make_tiny_engine, tiny_split):
        nodes = [int(v) for v in tiny_split.queries[:8]]
        serial = make_tiny_engine().run(nodes)

        plan = FaultPlan(faults=(WorkerCrash(wave_index=0, item_index=1),))
        chaos = controller(plan)
        injector = chaos.scheduler_injector()
        scheduler = QueryScheduler(
            max_batch_size=4,
            max_concurrency=3,
            mode="threads",
            fault_injector=injector,
        )
        chaotic = make_tiny_engine(scheduler=scheduler).run(nodes)
        assert injector.crashes == 1
        assert chaos.fault_counts() == {"worker_crash": 1}
        assert [dataclasses.asdict(r) for r in chaotic.records] == [
            dataclasses.asdict(r) for r in serial.records
        ], "crashed item must be recovered with identical output"

    def test_worker_stall_does_not_change_results(self, make_tiny_engine, tiny_split):
        nodes = [int(v) for v in tiny_split.queries[:6]]
        serial = make_tiny_engine().run(nodes)
        plan = FaultPlan(faults=(WorkerStall(stall_seconds=0.005),))
        chaos = controller(plan)
        injector = chaos.scheduler_injector()
        scheduler = QueryScheduler(
            max_batch_size=3, max_concurrency=2, mode="threads", fault_injector=injector
        )
        stalled = make_tiny_engine(scheduler=scheduler).run(nodes)
        assert injector.stalls == len(nodes)
        assert stalled.records == serial.records


# ----------------------------------------------------------- checkpoint chaos


class TestCheckpointCrash:
    def test_crash_mid_write_recovers_from_backup(
        self, make_tiny_engine, tiny_split, tiny_tag, tmp_path
    ):
        nodes = [int(v) for v in tiny_split.queries[:6]]
        baseline = make_tiny_engine().run(nodes)

        path = tmp_path / "checkpoint.json"
        plan = FaultPlan(faults=(CheckpointCrash(flush_index=3),))
        chaos = controller(plan)
        checker = ChaosInvariantChecker()
        engine = make_tiny_engine()
        with pytest.raises(SimulatedCrash, match="delta line torn"):
            engine.run(
                nodes,
                checkpointer=RunCheckpointer(
                    path, flush_every=1, observer=checker, crash_hook=chaos.checkpoint_crash_hook()
                ),
            )
        assert chaos.fault_counts() == {"checkpoint_crash": 1}

        # Flush 3 appends a delta line and the crash tears it: recovery
        # drops the torn tail and resumes from flush 2.
        resumed_llm = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        checkpointer = RunCheckpointer(path, observer=checker)
        assert checkpointer.recovered
        assert checkpointer.resumed_records == 3, "last verified-good generation"
        assert checker.checkpoint_recoveries, "recovery reported to the observer"

        result = make_tiny_engine(llm=resumed_llm).run(nodes, checkpointer=checkpointer)
        assert result.records == baseline.records
        assert resumed_llm.usage.num_queries == len(nodes) - 3, (
            "exactly the lost generation is re-queried"
        )
        checker.verify(checkpoint=RunCheckpointer(path).state, result=result)


    def test_crash_mid_compaction_recovers_from_backup(
        self, make_tiny_engine, tiny_split, tiny_tag, tmp_path
    ):
        nodes = [int(v) for v in tiny_split.queries[:6]]
        baseline = make_tiny_engine().run(nodes)

        path = tmp_path / "checkpoint.json"
        # Flushes 0-5 persist the six records; flush 6 is mark_complete's
        # compaction, which dies after rotating the log to .bak.
        chaos = controller(FaultPlan(faults=(CheckpointCrash(flush_index=len(nodes)),)))
        with pytest.raises(SimulatedCrash, match="rename pending"):
            make_tiny_engine().run(
                nodes,
                checkpointer=RunCheckpointer(path, crash_hook=chaos.checkpoint_crash_hook()),
            )
        assert not path.exists()

        checker = ChaosInvariantChecker()
        resumed_llm = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        checkpointer = RunCheckpointer(path, observer=checker)
        assert checkpointer.recovered
        assert checkpointer.resumed_records == len(nodes)
        assert not checkpointer.state.completed
        assert checker.checkpoint_recoveries[0][1] == "main checkpoint missing after crash"

        result = make_tiny_engine(llm=resumed_llm).run(nodes, checkpointer=checkpointer)
        assert result.records == baseline.records
        assert resumed_llm.usage.num_queries == 0, "every record was in the .bak log"
        assert load_checkpoint(path).completed


# ------------------------------------------------------------- tenant floods


class TestTenantFloods:
    def test_floods_are_deterministic_and_distinct(self):
        plan = FaultPlan(
            faults=(TenantFlood(tenant="acme", start=2.0, count=5, spacing=0.5),),
            seed=4,
        )
        base = [ServeRequest("alpha", n, arrival=float(n)) for n in (1, 2, 3)]
        pool = list(range(100, 120))
        first = controller(plan).apply_floods(base, nodes=pool)
        second = controller(plan).apply_floods(base, nodes=pool)
        assert first == second, "flood draws are seeded"
        assert len(first) == len(base) + 5
        flooded = [r for r in first if r.tenant == "acme"]
        assert len({r.node for r in flooded}) == 5, "distinct nodes while pool allows"
        assert all(r.node in pool for r in flooded)
        assert [r.arrival for r in flooded] == [2.0, 2.5, 3.0, 3.5, 4.0]
        assert first[: len(base)] == base, "base stream untouched"

    def test_empty_plan_returns_copy(self):
        base = [ServeRequest("alpha", 1)]
        out = controller(FaultPlan()).apply_floods(base)
        assert out == base and out is not base


# ----------------------------------------------- transparency (equivalence)


class TestFaultFreeTransparency:
    """The acceptance criterion: a fault-free chaos run is bit-identical
    to the no-chaos baseline, for both engine runs and the serving layer."""

    def test_engine_run_with_empty_plan_is_bit_identical(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        scenario = Scenario(strategy="boost", num_queries=10, use_ladder=True)
        bare = run_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        chaotic = run_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, chaos_plan=FaultPlan()
        )
        assert_equivalent(bare, chaotic)

    def test_serve_run_with_empty_plan_and_journal_is_bit_identical(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        scenario = ServeScenario(num_requests=14, arrival_window=4.0)
        bare = run_serve_scenario(scenario, tiny_tag, tiny_split, tiny_builder)
        chaotic = run_serve_scenario(
            scenario,
            tiny_tag,
            tiny_split,
            tiny_builder,
            chaos_plan=FaultPlan(),
            journal_path=tmp_path / "journal.jsonl",
        )
        assert_serve_equivalent(bare, chaotic)

    def test_chaotic_serve_replay_is_reproducible(
        self, tiny_tag, tiny_split, tiny_builder
    ):
        scenario = ServeScenario(num_requests=14, arrival_window=4.0)
        plan = FaultPlan(
            faults=(LatencyStorm(start=0.0, end=30.0, extra_seconds=1.0),), seed=2
        )
        first = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, chaos_plan=plan
        )
        second = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, chaos_plan=plan
        )
        assert_serve_equivalent(first, second)


# ----------------------------------------------------- journal crash/resume


class TestJournalCrashResume:
    def test_full_journal_resume_issues_zero_llm_calls(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        from repro.runtime.serve import ServeJournal

        scenario = ServeScenario(num_requests=14, arrival_window=4.0)
        path = tmp_path / "journal.jsonl"
        live = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, journal_path=path
        )
        assert ServeJournal(path).cycles, "the live run journaled its cycles"
        resumed = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, journal_path=path
        )
        assert resumed.usage[0] == 0, "every cycle replayed from the journal"
        assert resumed.outcomes == live.outcomes
        assert resumed.book == live.book

    def test_half_journal_resume_is_replay_exact(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        from repro.runtime.serve import ServeJournal

        scenario = ServeScenario(num_requests=14, arrival_window=4.0)
        path = tmp_path / "journal.jsonl"
        live = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, journal_path=path
        )
        journal = ServeJournal(path)
        keep = len(journal.cycles) // 2
        assert keep >= 1
        journal.truncate(keep)
        assert len(ServeJournal(path).cycles) == keep

        resumed = run_serve_scenario(
            scenario, tiny_tag, tiny_split, tiny_builder, journal_path=path
        )
        assert resumed.outcomes == live.outcomes, "post-crash cycles replayed exactly"
        assert resumed.book == live.book
        assert resumed.usage[0] < live.usage[0], "journaled prefix issued no calls"
        assert len(ServeJournal(path).cycles) > keep, (
            "the resumed run re-journals the live suffix"
        )

    def test_journal_in_a_new_directory(self, tiny_tag, tiny_split, tiny_builder, tmp_path):
        from repro.runtime.serve import ServeJournal

        scenario = ServeScenario(num_requests=6, arrival_window=2.0)
        path = tmp_path / "new" / "dir" / "journal.jsonl"
        run_serve_scenario(scenario, tiny_tag, tiny_split, tiny_builder, journal_path=path)
        assert ServeJournal(path).cycles, "the first append created the directory"

    def test_truncate_validates(self, tmp_path):
        from repro.runtime.serve import JournalError, ServeJournal

        journal = ServeJournal(tmp_path / "journal.jsonl")
        with pytest.raises(ValueError, match="keep_cycles"):
            journal.truncate(-1)
        with pytest.raises(JournalError, match="header"):
            journal.truncate(0)


# --------------------------------------------------------- invariant checker


class TestInvariantChecker:
    def make_layer(self, make_tiny_engine, checker, plan=None):
        clock = SimulatedClock()
        chaos = ChaosController(plan, clock=clock, observer=checker) if plan else None
        engine = make_tiny_engine(clock=clock)
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

    def test_clean_run_passes_verification(self, make_tiny_engine, tiny_split):
        checker = ChaosInvariantChecker()
        layer = self.make_layer(make_tiny_engine, checker)
        stream = self.stream(tiny_split)
        report = layer.replay(stream)
        checker.verify(report=report, book=report.book, num_submitted=len(stream))

    def test_chaotic_run_passes_verification(self, make_tiny_engine, tiny_split):
        checker = ChaosInvariantChecker()
        plan = FaultPlan(
            faults=(LatencyStorm(start=0.0, end=10.0, extra_seconds=1.0),), seed=6
        )
        layer = self.make_layer(make_tiny_engine, checker, plan=plan)
        stream = self.stream(tiny_split)
        report = layer.replay(stream)
        assert checker.chaos_faults, "the storm was observed"
        checker.verify(report=report, book=report.book, num_submitted=len(stream))

    def test_lost_request_is_flagged(self, make_tiny_engine, tiny_split):
        checker = ChaosInvariantChecker()
        layer = self.make_layer(make_tiny_engine, checker)
        stream = self.stream(tiny_split)
        report = layer.replay(stream)
        violations = checker.check(
            report=report, book=report.book, num_submitted=len(stream) + 1
        )
        assert any("lost or duplicated" in v for v in violations)

    def test_unsettled_admission_is_flagged(self):
        checker = ChaosInvariantChecker()
        checker.on_serve_admission("alpha", "admitted_full", 1)
        assert any("never settled" in v for v in checker.check())
        with pytest.raises(ChaosInvariantViolation, match="never settled"):
            checker.verify()

    def test_bogus_events_are_flagged(self):
        checker = ChaosInvariantChecker()
        checker.on_serve_admission("alpha", "teleported", -2)
        checker.on_serve_complete("alpha", "vanished", "ok", -1.0)
        violations = checker.check()
        assert any("unknown admission decision" in v for v in violations)
        assert any("negative queue depth" in v for v in violations)
        assert any("unknown completion status" in v for v in violations)
        assert any("negative completion latency" in v for v in violations)

    def test_overdrawn_ledger_is_flagged(self, make_tiny_engine, tiny_split):
        checker = ChaosInvariantChecker()
        layer = self.make_layer(make_tiny_engine, checker)
        stream = self.stream(tiny_split, n=6)
        report = layer.replay(stream)
        # Forge an overdraft after the fact: the audit must catch it.
        ledger = report.book.tenants["alpha"]
        ledger.budget = max(0, ledger.spent - 1)
        violations = checker.check(report=report, book=report.book)
        assert any("overdrawn" in v for v in violations)

    def test_checkpoint_divergence_is_flagged(self, make_tiny_engine, tiny_split, tmp_path):
        nodes = [int(v) for v in tiny_split.queries[:4]]
        path = tmp_path / "checkpoint.json"
        result = make_tiny_engine().run(nodes, checkpointer=RunCheckpointer(path))
        state = RunCheckpointer(path).state
        checker = ChaosInvariantChecker()
        assert checker.check(checkpoint=state, result=result) == []
        mutated = dataclasses.replace(state.records[0], predicted_label=-7)
        state.records[0] = mutated
        violations = checker.check(checkpoint=state, result=result)
        assert any("disagrees with the result" in v for v in violations)
