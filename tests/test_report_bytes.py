"""Byte pins for every report rendered from a trace.

``repro trace`` (:func:`render_trace_summary`) and the four ``repro
analyze`` subcommands are rendered here, in text and json, from small
hand-built traces with fixed run ids, and compared byte for byte with
``tests/data/golden_reports.json``.  The traces cover what the readers
must agree on: replayed spans after a checkpoint resume, a deferred query
span with no outcome, cache metrics, breaker transitions and retries,
``serve_complete`` events, and a routed run with per-tier ``cost_usd``.

A deliberate change to a report's bytes regenerates the golden file with
``PYTHONPATH=src python -m tests.test_report_bytes``; a refactor must not.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.llm.reliability import SimulatedClock
from repro.obs import render_trace_summary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanTracer

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"


def _lines(tracer: SpanTracer, registry: MetricsRegistry) -> list[dict]:
    """The trace lines plus a trailing metrics snapshot, as a run writes them."""
    return tracer.to_dicts() + [
        {"kind": "metrics", "run_id": tracer.run_id, **registry.snapshot()}
    ]


def _query(tracer, clock, node, *, seconds=1.0, outcome="ok", prompt=0,
           completion=0, **extra):
    """One executed query span: neighbor selection, prompt, LLM call, parse."""
    with tracer.span("query", node=node, **extra) as span:
        with tracer.span("select_neighbors", node=node):
            pass
        with tracer.span("prompt_build", node=node, num_neighbors=2):
            pass
        with tracer.span("llm_call", node=node):
            clock.advance(seconds)
        with tracer.span("parse", node=node):
            pass
        span.set(outcome=outcome, prompt_tokens=prompt, completion_tokens=completion)


def resumed_boost_trace() -> list[dict]:
    """A boosted classify run resumed from a checkpoint.

    Round 0 replays two records, pays a retried query, defers one node
    after a failed call (a query span with no outcome) and trips the
    breaker; round 1 settles the deferred node on the surrogate, pays one
    fresh query and abstains on another.  Cache and cost metrics ride in
    the trailing snapshot.
    """
    clock = SimulatedClock()
    tracer = SpanTracer(
        run_id="pin-boost",
        clock=clock,
        labels={"dataset": "tiny", "model": "gpt-3.5", "strategy": "boost"},
    )
    registry = MetricsRegistry()
    tracer.event("checkpoint_loaded", num_records=2, completed=False)
    with tracer.span("round", round_index=0, candidates=4):
        for node in (11, 12):
            with tracer.span("query", node=node, round_index=0) as span:
                span.set(outcome="ok", prompt_tokens=300, completion_tokens=8,
                         replayed=True, cost_usd=0.00046)
        with tracer.span("query", node=13, round_index=0) as span:
            with tracer.span("llm_call", node=13):
                clock.advance(0.75)
            tracer.event("retry", attempt=1, wait_seconds=0.5)
            clock.advance(0.5)
            with tracer.span("llm_call", node=13):
                clock.advance(1.25)
            span.set(outcome="retried", prompt_tokens=310, completion_tokens=9,
                     cost_usd=0.000483)
        with tracer.span("query", node=14, round_index=0):
            with tracer.span("llm_call", node=14):
                clock.advance(2.0)
        tracer.event("deferral", node=14, attempt=1)
        tracer.event("breaker_transition", old="closed", new="open", at=clock.now)
    clock.advance(3.0)
    tracer.event("breaker_transition", old="open", new="half_open", at=clock.now)
    with tracer.span("round", round_index=1, candidates=3):
        with tracer.span("query", node=14, round_index=1) as span:
            with tracer.span("degrade_surrogate", node=14):
                clock.advance(0.125)
            span.set(outcome="degraded_surrogate", prompt_tokens=0, completion_tokens=0)
        _query(tracer, clock, 15, seconds=1.5, prompt=280, completion=7, round_index=1)
        with tracer.span("query", node=16, round_index=1) as span:
            with tracer.span("abstain", node=16):
                pass
            span.set(outcome="abstained", prompt_tokens=0, completion_tokens=0)
    tracer.event("breaker_transition", old="half_open", new="closed", at=clock.now)
    registry.counter("repro_prompt_tokens_total", "Prompt tokens paid").inc(590)
    registry.counter("repro_completion_tokens_total", "Completion tokens paid").inc(16)
    registry.counter("repro_cost_usd_total", "cost", outcome="retried").inc(0.000483)
    registry.counter("repro_cost_usd_total", "cost", outcome="ok").inc(0.000434)
    registry.counter("repro_cache_hits_total", "hits").inc(3)
    registry.counter("repro_cache_misses_total", "misses").inc(5)
    registry.counter("repro_cache_evictions_total", "evictions").inc(1)
    return _lines(tracer, registry)


def fresh_boost_trace() -> list[dict]:
    """The same run shape executed from scratch, slower and costlier."""
    clock = SimulatedClock()
    tracer = SpanTracer(
        run_id="pin-boost-fresh",
        clock=clock,
        labels={"dataset": "tiny", "model": "gpt-3.5", "strategy": "boost"},
    )
    registry = MetricsRegistry()
    with tracer.span("round", round_index=0, candidates=3):
        for node, seconds in ((11, 1.0), (12, 2.5), (13, 1.25)):
            _query(tracer, clock, node, seconds=seconds, prompt=305, completion=8,
                   round_index=0)
    with tracer.span("round", round_index=1, candidates=2):
        _query(tracer, clock, 15, seconds=1.5, prompt=280, completion=7, round_index=1)
        tracer.event("retry", attempt=1, wait_seconds=1.0)
        _query(tracer, clock, 16, seconds=3.0, outcome="retried", prompt=290,
               completion=9, round_index=1)
    registry.counter("repro_prompt_tokens_total", "Prompt tokens paid").inc(1485)
    registry.counter("repro_completion_tokens_total", "Completion tokens paid").inc(40)
    registry.counter("repro_cache_hits_total", "hits").inc(1)
    registry.counter("repro_cache_misses_total", "misses").inc(5)
    return _lines(tracer, registry)


def routed_trace() -> list[dict]:
    """A plain cascade-routed run: per-tier ``cost_usd`` and escalations."""
    clock = SimulatedClock()
    tracer = SpanTracer(
        run_id="pin-routed", clock=clock, labels={"dataset": "tiny", "strategy": "none"}
    )
    registry = MetricsRegistry()
    spend = [
        (21, "gpt-4o-mini", 120, 4, 0.0000204, 0.5),
        (22, "gpt-3.5", 260, 6, 0.000139, 1.5),
        (23, "gpt-4o-mini", 118, 4, 0.00002010, 0.5),
        (24, "gpt-3.5", 255, 5, 0.0001350, 1.25),
    ]
    for node, tier, prompt, completion, usd, seconds in spend:
        with tracer.span("query", node=node) as span:
            with tracer.span("llm_call", node=node):
                clock.advance(seconds)
            if tier == "gpt-3.5":
                tracer.event("escalation", node=node, from_tier="gpt-4o-mini",
                             to_tier="gpt-3.5", reason="inadequacy")
            span.set(outcome="ok", prompt_tokens=prompt, completion_tokens=completion,
                     tier=tier, cost_usd=usd)
        registry.counter("repro_router_cost_usd_total", "usd", tier=tier).inc(usd)
    registry.counter("repro_prompt_tokens_total", "Prompt tokens paid").inc(753)
    registry.counter("repro_completion_tokens_total", "Completion tokens paid").inc(19)
    return _lines(tracer, registry)


def serve_trace() -> list[dict]:
    """A two-tenant serve run: ``serve_complete`` events and tenant charges."""
    clock = SimulatedClock()
    tracer = SpanTracer(
        run_id="pin-serve", clock=clock, labels={"dataset": "tiny", "strategy": "serve"}
    )
    registry = MetricsRegistry()
    served = [
        ("alpha", 31, "served", 1.0, 200, 5),
        ("beta", 32, "served", 2.5, 210, 6),
        ("alpha", 33, "degraded", 0.25, 0, 0),
        ("beta", 34, "rejected", 0.0, 0, 0),
        ("alpha", 35, "served", 40.0, 190, 5),
    ]
    for tenant, node, status, latency, prompt, completion in served:
        if status != "rejected":
            outcome = "ok" if status == "served" else "degraded_surrogate"
            with tracer.span("query", node=node) as span:
                clock.advance(latency)
                span.set(outcome=outcome, prompt_tokens=prompt,
                         completion_tokens=completion)
            registry.counter("repro_serve_tokens_total", "tokens", tenant=tenant).inc(
                prompt + completion
            )
            registry.counter("repro_serve_cost_usd_total", "usd", tenant=tenant).inc(
                (prompt + completion) * 1.5e-6
            )
        tracer.event("serve_complete", tenant=tenant, status=status, tier="llm",
                     latency_seconds=latency)
    registry.counter("repro_prompt_tokens_total", "Prompt tokens paid").inc(600)
    registry.counter("repro_completion_tokens_total", "Completion tokens paid").inc(16)
    return _lines(tracer, registry)


TRACES = {
    "boost": resumed_boost_trace,
    "boost_fresh": fresh_boost_trace,
    "routed": routed_trace,
    "serve": serve_trace,
}

#: (case name, argv with {trace} placeholders naming TRACES files).
CLI_CASES = [
    *(
        (f"{cmd}-{name}-{fmt}", ["analyze", cmd, f"{{{name}}}", "--format", fmt])
        for cmd in ("costs", "slo", "critical-path")
        for name in TRACES
        for fmt in ("text", "json")
    ),
    *(
        (f"critical-path-b2c2-{name}-{fmt}",
         ["analyze", "critical-path", f"{{{name}}}", "--batch-size", "2",
          "--concurrency", "2", "--format", fmt])
        for name in ("boost", "boost_fresh")
        for fmt in ("text", "json")
    ),
    *(
        (f"diff-{base}-{cur}-{fmt}",
         ["analyze", "diff", f"{{{base}}}", f"{{{cur}}}", "--format", fmt])
        for base, cur in (("boost", "boost_fresh"), ("boost_fresh", "boost"),
                          ("serve", "serve"))
        for fmt in ("text", "json")
    ),
    *((f"trace-{name}", ["trace", f"{{{name}}}"]) for name in TRACES),
]


def render_all(directory: Path) -> dict[str, str]:
    """Every pinned report, keyed by case name."""
    paths = {}
    for name, build in TRACES.items():
        path = directory / f"{name}.jsonl"
        path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in build()))
        paths[name] = str(path)
    out = {f"summary-{name}": render_trace_summary(build()) for name, build in TRACES.items()}
    for case, argv in CLI_CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([arg.format(**paths) for arg in argv])
        out[case] = f"exit {code}\n{buffer.getvalue()}"
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rendered(tmp_path_factory) -> dict[str, str]:
    return render_all(tmp_path_factory.mktemp("reports"))


def test_cases_match_golden_set(rendered, golden):
    assert sorted(rendered) == sorted(golden)


@pytest.mark.parametrize(
    "case",
    [f"summary-{name}" for name in TRACES] + [case for case, _ in CLI_CASES],
)
def test_report_bytes(case, rendered, golden):
    assert rendered[case] == golden[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = render_all(Path(tmp))
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
