"""Integration tests: instrumentation wired through the execution stack.

The contracts under test are the observability subsystem's core promises:

* an unobserved engine (the default) produces byte-identical records to an
  instrumented one — telemetry never perturbs execution;
* two same-seed instrumented runs emit identical trace JSONL modulo the
  run id;
* registry totals agree exactly with the run's own aggregates;
* a checkpoint-resumed run reports every cached record as a ``replayed``
  span with zero paid tokens.
"""

from __future__ import annotations

import pytest

from repro.core.boosting import QueryBoostingStrategy
from repro.io.runs import RunCheckpointer
from repro.llm.caching import CachingLLM
from repro.llm.reliability import (
    FlakyLLM,
    SimulatedClock,
    TransientLLMError,
    resilient,
)
from repro.llm.simulated import SimulatedLLM
from repro.obs import Instrumentation, instrument_stack, validate_trace_lines
from repro.obs.insight import RunBundle
from repro.obs.summary import outcome_breakdown, render_trace_summary

NUM_QUERIES = 12


@pytest.fixture()
def queries(tiny_split):
    return tiny_split.queries[:NUM_QUERIES]


def make_instr(run_id: str = "test-run", clock=None) -> Instrumentation:
    return Instrumentation(
        run_id=run_id,
        clock=clock,
        labels={"dataset": "tiny", "method": "1-hop", "strategy": "none", "model": "gpt-3.5"},
    )


class TestNonPerturbation:
    def test_observed_run_matches_unobserved(self, make_tiny_engine, queries):
        plain = make_tiny_engine().run(queries)
        instr = make_instr()
        observed = make_tiny_engine(observer=instr).run(queries)
        assert observed.records == plain.records

    def test_observed_boosting_matches_unobserved(self, make_tiny_engine, queries):
        plain = QueryBoostingStrategy().execute(make_tiny_engine(), queries)
        instr = make_instr()
        observed = QueryBoostingStrategy().execute(
            make_tiny_engine(observer=instr), queries
        )
        assert observed.run.records == plain.run.records
        assert observed.rounds == plain.rounds


class TestDeterminism:
    def test_same_seed_runs_emit_identical_jsonl_modulo_run_id(
        self, make_tiny_engine, queries
    ):
        jsonl = {}
        for run_id in ("run-aaa", "run-bbb"):
            instr = make_instr(run_id)
            QueryBoostingStrategy().execute(make_tiny_engine(observer=instr), queries)
            jsonl[run_id] = instr.tracer.to_jsonl()
        assert jsonl["run-aaa"].replace("run-aaa", "run-bbb") == jsonl["run-bbb"]

    def test_emitted_trace_validates_against_schema(self, make_tiny_engine, queries):
        instr = make_instr()
        make_tiny_engine(observer=instr).run(queries)
        stats = validate_trace_lines(instr.trace_lines())
        assert stats["num_spans"] > NUM_QUERIES  # queries plus their children
        assert stats["has_metrics"] is True


class TestRegistryAgreesWithRun:
    def test_token_and_query_totals(self, make_tiny_engine, queries):
        instr = make_instr()
        run = make_tiny_engine(observer=instr).run(queries)
        reg = instr.registry
        assert reg.total("repro_queries_total") == len(run.records)
        assert reg.total("repro_prompt_tokens_total") == sum(
            r.prompt_tokens for r in run.records
        )
        assert reg.total("repro_completion_tokens_total") == sum(
            r.completion_tokens for r in run.records
        )
        assert reg.total("repro_query_tokens") == len(run.records)
        assert reg.value("repro_runs_total", **instr.labels) == 1.0
        for outcome, count in run.outcome_counts.items():
            assert reg.total("repro_queries_total", outcome=outcome) == count

    def test_boosting_round_metrics(self, make_tiny_engine, queries):
        instr = make_instr()
        boosted = QueryBoostingStrategy().execute(
            make_tiny_engine(observer=instr), queries
        )
        reg = instr.registry
        assert reg.total("repro_boosting_rounds_total") == len(boosted.rounds)
        assert reg.total("repro_boosting_round_size") == len(boosted.rounds)
        round_spans = [s for s in instr.tracer.spans if s.name == "round"]
        assert [s.attributes["round_index"] for s in round_spans] == list(
            range(len(boosted.rounds))
        )
        # Every query span is parented by its round's span.
        query_spans = [s for s in instr.tracer.spans if s.name == "query"]
        round_ids = {s.span_id for s in round_spans}
        assert len(query_spans) == len(boosted.run.records)
        assert all(s.parent_id in round_ids for s in query_spans)

    def test_query_spans_carry_outcome_and_tokens(self, make_tiny_engine, queries):
        instr = make_instr()
        run = make_tiny_engine(observer=instr).run(queries)
        query_spans = [s for s in instr.tracer.spans if s.name == "query"]
        assert [s.attributes["prompt_tokens"] for s in query_spans] == [
            r.prompt_tokens for r in run.records
        ]
        assert [s.attributes["outcome"] for s in query_spans] == [
            r.outcome for r in run.records
        ]
        # Each query span wraps the full lifecycle as children.
        children = {s.parent_id for s in instr.tracer.spans if s.parent_id}
        assert all(s.span_id in children for s in query_spans)


class TestSummary:
    def test_summary_renders_run_breakdown(self, make_tiny_engine, queries):
        instr = make_instr()
        run = QueryBoostingStrategy().execute(
            make_tiny_engine(observer=instr), queries
        ).run
        text = render_trace_summary(instr.trace_lines())
        assert "run test-run" in text
        assert f"{len(run.records)} queries" in text
        assert "Boosting rounds" in text

    def test_outcome_breakdown_skips_recordless_query_spans(self):
        """A deferred query's failed span (no outcome attribute) is not a
        record; the breakdown must count records only."""
        instr = make_instr()
        with pytest.raises(RuntimeError):
            with instr.span("query", node=1):
                raise RuntimeError("llm gave up; node deferred")
        with instr.span("query", node=1, round_index=1) as span:
            span.set(outcome="ok", prompt_tokens=10, completion_tokens=2)
        tiers = outcome_breakdown(RunBundle.from_lines(instr.trace_lines()))
        assert tiers == [("ok", 1, 10, 2, None)]


class TestLatency:
    def test_latency_stamped_from_shared_clock(self, make_tiny_engine, tiny_tag, queries):
        clock = SimulatedClock()
        stack = resilient(
            SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5),
            advance_per_call=1.0,
            clock=clock,
        )
        instr = make_instr(clock=clock)
        run = make_tiny_engine(llm=stack, observer=instr, clock=clock).run(queries)
        # advance_per_call=1.0 and no retries: exactly 1 simulated second each.
        assert [r.latency_seconds for r in run.records] == [1.0] * len(run.records)
        assert run.total_latency_seconds == float(len(run.records))
        assert instr.registry.total("repro_query_latency_seconds") == len(run.records)

    def test_no_clock_leaves_latency_unset(self, make_tiny_engine, queries):
        run = make_tiny_engine(observer=make_instr()).run(queries)
        assert all(r.latency_seconds is None for r in run.records)
        assert run.total_latency_seconds is None


class TestCheckpointReplay:
    def test_resumed_run_reports_replayed_spans_with_zero_paid_tokens(
        self, make_tiny_engine, queries, tmp_path
    ):
        path = tmp_path / "checkpoint.json"
        first = make_tiny_engine().run(queries, checkpointer=RunCheckpointer(path))

        instr = make_instr()
        checkpointer = RunCheckpointer(path, observer=instr)
        resumed = make_tiny_engine(observer=instr).run(queries, checkpointer=checkpointer)
        assert resumed.records == first.records

        query_spans = [s for s in instr.tracer.spans if s.name == "query"]
        assert len(query_spans) == len(queries)
        assert all(s.attributes["replayed"] is True for s in query_spans)
        assert all(s.attributes["prompt_tokens"] == 0 for s in query_spans)

        reg = instr.registry
        assert reg.total("repro_queries_total", outcome="replayed") == len(queries)
        assert reg.total("repro_queries_total") == len(queries)
        # Replays never charge token or cost series.
        assert reg.total("repro_prompt_tokens_total") == 0.0
        assert reg.total("repro_completion_tokens_total") == 0.0
        assert reg.total("repro_cost_usd_total") == 0.0
        assert reg.total("repro_checkpoint_resumed_records_total") == len(queries)
        assert [s.name for s in instr.tracer.spans[:1]] == ["checkpoint_loaded"]

    def test_checkpoint_flushes_counted(self, make_tiny_engine, queries, tmp_path):
        instr = make_instr()
        checkpointer = RunCheckpointer(tmp_path / "ck.json", observer=instr)
        make_tiny_engine(observer=instr).run(queries, checkpointer=checkpointer)
        # flush_every=1: one flush per record plus the mark_complete flush.
        assert instr.registry.total("repro_checkpoint_flushes_total") == len(queries) + 1


class TestStackInstrumentation:
    def test_instrument_stack_reaches_every_layer(self, tiny_tag):
        instr = make_instr()
        flaky = FlakyLLM(
            SimulatedLLM(tiny_tag.vocabulary, seed=5), failure_rate=0.5, seed=1
        )
        stack = resilient(flaky, max_attempts=3, seed=2)
        cached = CachingLLM(stack)
        instrument_stack(cached, instr)
        assert cached.observer is instr
        assert stack.breaker.observer is instr
        assert stack.inner.observer is instr  # the retrier
        assert flaky.observer is instr

    def test_retry_and_injected_failure_metrics(self, tiny_tag, tiny_builder):
        instr = make_instr()
        flaky = FlakyLLM(
            SimulatedLLM(tiny_tag.vocabulary, seed=5),
            failure_rate=0.99,
            seed=2,  # with this stream all three attempts fail
            charge_failed_prompts=True,
        )
        stack = resilient(flaky, max_attempts=3, deadline_seconds=None, seed=2)
        instrument_stack(stack, instr)
        prompt = tiny_builder.zero_shot("t", "abc def")
        with pytest.raises(TransientLLMError):
            stack.complete(prompt)
        reg = instr.registry
        assert reg.total("repro_injected_failures_total") == 3.0
        assert reg.total("repro_retries_total") == 2.0
        assert reg.total("repro_wasted_prompt_tokens_total") == flaky.wasted_prompt_tokens
        assert reg.total("repro_retry_wait_seconds_total") == pytest.approx(
            stack.inner.simulated_wait_seconds
        )
        retry_events = [s for s in instr.tracer.spans if s.name == "retry"]
        assert [s.attributes["attempt"] for s in retry_events] == [0, 1]

    def test_cache_metrics(self, tiny_tag, tiny_builder):
        instr = make_instr()
        cached = CachingLLM(
            SimulatedLLM(tiny_tag.vocabulary, seed=5), max_entries=1, observer=instr
        )
        first = tiny_builder.zero_shot("t0", "abc def")
        second = tiny_builder.zero_shot("t1", "abc def")
        cached.complete(first)
        cached.complete(first)
        cached.complete(second)  # evicts `first`
        reg = instr.registry
        assert reg.total("repro_cache_hits_total") == cached.hits == 1
        assert reg.total("repro_cache_misses_total") == cached.misses == 2
        assert reg.total("repro_cache_evictions_total") == cached.evictions == 1
