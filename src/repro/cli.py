"""Command-line interface.

Subcommands::

    repro datasets                 list the dataset replicas (Table II stats)
    repro info DATASET             generate a replica and print measured stats
    repro classify ...             run a query set under a strategy
    repro serve ...                replay a multi-tenant request stream
    repro chaos ...                run a fault plan against the stack and audit it
    repro trace FILE               validate + summarize a JSONL query trace
    repro analyze critical-path    wave makespan decomposition + barrier-stall idle
    repro analyze costs            token/dollar attribution, ledger-reconciled
    repro analyze slo              latency/goodput/error-rate objectives + burn rates
    repro analyze diff             cross-run regression diff with verdict
    repro cluster                  sharded multi-worker sweep + cluster audit
    repro experiment NAME          reproduce one paper table/figure
    repro report [--quick]        reproduce everything into a markdown report
    repro prices                  show the token pricing table

``classify --trace/--metrics`` instruments the run (span trace as JSONL,
metrics as Prometheus text or JSON); see docs/observability.md.

Run ``repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

EXPERIMENT_NAMES = (
    "fig3",
    "table4",
    "fig7",
    "table5",
    "table6",
    "fig8",
    "table7",
    "table8",
    "table9",
    "table10",
    "pareto",
    "distillation",
    "resilience",
    "cascade",
    "overload",
    "chaos",
    "sharding",
)


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.graph.datasets import DATASET_SPECS

    rows = [
        (
            spec.name,
            f"{spec.full_num_nodes:,}",
            f"{spec.full_num_edges:,}",
            spec.feature_dim,
            spec.num_classes,
            spec.node_type,
            f"{spec.default_scale:g}",
        )
        for spec in DATASET_SPECS.values()
    ]
    print(
        render_table(
            ["Dataset", "#Nodes", "#Edges", "#Features", "#Classes", "Node type", "Replica scale"],
            rows,
            title="Dataset replicas (full-scale statistics per paper Table II)",
        )
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.graph import edge_homophily, load_dataset
    from repro.graph.datasets import get_spec

    spec = get_spec(args.dataset)
    generated = load_dataset(args.dataset, scale=args.scale)
    graph = generated.graph
    print(f"{spec.name} replica")
    print(f"  nodes          : {graph.num_nodes:,} (full scale {spec.full_num_nodes:,})")
    print(f"  edges          : {graph.num_edges:,} (full scale {spec.full_num_edges:,})")
    print(f"  classes        : {graph.num_classes}")
    print(f"  features       : {graph.feature_dim}-d via {spec.encoder}")
    print(f"  edge homophily : {edge_homophily(graph):.3f} (configured {spec.homophily})")
    print(f"  avg degree     : {2 * graph.num_edges / graph.num_nodes:.1f}")
    print(f"  zero-shot tgt  : {spec.zero_shot_target:.1%} (paper Table V)")
    sample = graph.texts[0]
    print(f"  sample title   : {sample.title[:70]}")
    return 0


def _instrumentation(args: argparse.Namespace, clock, strategy: str):
    """The run's ``--trace/--metrics`` observer, or None without either flag."""
    if not (args.trace or args.metrics):
        return None
    from uuid import uuid4

    from repro.obs import Instrumentation

    return Instrumentation(
        run_id=uuid4().hex[:12],
        clock=clock,
        labels={
            "dataset": args.dataset,
            "method": args.method,
            "strategy": strategy,
            "model": args.model,
        },
    )


def _write_observability(args: argparse.Namespace, instr) -> None:
    """Write the run's trace and metrics files, then print its trace summary."""
    if instr is None:
        return
    from pathlib import Path

    from repro.obs import render_trace_summary

    if args.trace:
        path = instr.write_trace(args.trace)
        print(f"  trace     : {path} ({len(instr.tracer.spans)} spans)")
    if args.metrics:
        path = Path(args.metrics)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".json":
            path.write_text(instr.registry.to_json(indent=2) + "\n")
        else:
            path.write_text(instr.registry.to_prometheus())
        print(f"  metrics   : {path}")
    print()
    print(render_trace_summary(instr.trace_lines()))


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.costs import cost_summary
    from repro.core.boosting import QueryBoostingStrategy
    from repro.core.joint import JointStrategy
    from repro.core.pruning import TokenPruningStrategy
    from repro.experiments.common import load_setup
    from repro.experiments.table4 import fit_scorer
    from repro.io.runs import RunCheckpointer, save_run, write_csv
    from repro.llm.caching import CachingLLM
    from repro.llm.reliability import FlakyLLM, SimulatedClock, resilient
    from repro.runtime.fallback import DegradationLadder
    from repro.runtime.scheduler import QueryScheduler

    setup = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)

    models = [m.strip() for m in args.models.split(",") if m.strip()] if args.models else None
    if models is not None and (args.failure_rate > 0 or args.cache):
        print(
            "--models (cascade routing) cannot combine with --failure-rate or "
            "--cache: those wrap the single base model, not the tier clients",
            file=sys.stderr,
        )
        return 2
    if args.compress is not None and args.strategy != "none":
        print(
            "--compress applies whole-run prompt compression, which only the "
            "plain strategy dispatches; combine it with --strategy none",
            file=sys.stderr,
        )
        return 2

    scorer = None
    if args.strategy in ("prune", "joint") or args.failure_rate > 0:
        scorer = fit_scorer(setup, model=args.model)

    # One simulated clock shared by the retry/breaker stack, the span
    # tracer and the engine's latency stamps, so every timestamp in the
    # trace lives on the same (deterministic) timeline.
    clock = SimulatedClock() if args.trace or args.metrics else None
    instr = _instrumentation(args, clock, args.strategy)

    llm = None
    ladder = None
    flaky = None
    if args.failure_rate > 0:
        # Full fault-tolerance stack: injected failures → jittered retries
        # with a deadline → circuit breaker → engine degradation ladder.
        flaky = FlakyLLM(
            setup.make_llm(args.model),
            failure_rate=args.failure_rate,
            seed=13,
            charge_failed_prompts=True,
            key="prompt",
        )
        llm = resilient(flaky, max_attempts=args.max_attempts, seed=17, clock=clock)
        ladder = DegradationLadder(surrogate=scorer)
    cache = None
    if args.cache:
        cache = CachingLLM(llm if llm is not None else setup.make_llm(args.model))
        llm = cache
    if instr is not None and llm is not None:
        from repro.obs import instrument_stack

        instrument_stack(llm, instr)
    scheduler = None
    if args.batch_size is not None or args.workers > 1 or args.prefix_sharing:
        scheduler = QueryScheduler(
            max_batch_size=args.batch_size if args.batch_size is not None else 8,
            max_concurrency=args.workers,
            mode=args.dispatch,
            dispatch=args.plan,
            prefix_sharing=args.prefix_sharing,
        )
    compressor = None
    if args.compress is not None:
        from repro.mqo.compression import PromptCompressor

        compressor = PromptCompressor(target_ratio=args.compress)
    router = None
    if models is not None:
        from repro.experiments.cascade import inadequacy_map, quantile_threshold
        from repro.runtime.router import EscalationPolicy

        scores = None
        entry_cutoff = 0.5
        if args.escalate_on in ("inadequacy", "both"):
            # D(t_i) is fitted against the *cheap* tier: entry routing must
            # predict where the entry model fails, not the strong one.
            scores = inadequacy_map(
                fit_scorer(setup, model=models[0]), setup.queries
            )
            entry_cutoff = quantile_threshold(scores, args.inadequacy_quantile)
        router = setup.make_router(
            models,
            policy=EscalationPolicy(
                escalate_on=args.escalate_on,
                inadequacy_threshold=entry_cutoff,
                confidence_threshold=args.confidence_threshold,
            ),
            inadequacy=scores,
            observer=instr,
        )
    engine = setup.make_engine(
        args.method, model=args.model, llm=llm, ladder=ladder,
        observer=instr, clock=clock, scheduler=scheduler, router=router,
        compressor=compressor, shared_first=args.shared_first,
    )

    checkpointer = (
        RunCheckpointer(args.checkpoint, observer=instr) if args.checkpoint else None
    )
    if checkpointer is not None and checkpointer.resumed_records:
        print(f"resuming from {args.checkpoint}: {checkpointer.resumed_records} records replay")

    if args.strategy == "none":
        compressed = (
            frozenset(int(node) for node in setup.queries)
            if compressor is not None
            else frozenset()
        )
        result = engine.run(
            setup.queries, checkpointer=checkpointer, compressed=compressed
        )
    elif args.strategy == "prune":
        result, _ = TokenPruningStrategy(scorer).execute(
            engine, setup.queries, tau=args.tau, checkpointer=checkpointer
        )
    elif args.strategy == "boost":
        result = QueryBoostingStrategy().execute(
            engine, setup.queries, checkpointer=checkpointer
        ).run
    else:  # joint
        joint = JointStrategy(TokenPruningStrategy(scorer), QueryBoostingStrategy())
        result = joint.execute(
            engine, setup.queries, tau=args.tau, checkpointer=checkpointer
        ).run

    model_label = ",".join(models) if models is not None else args.model
    print(f"dataset={args.dataset} method={args.method} strategy={args.strategy} model={model_label}")
    print(f"  queries   : {result.num_queries}")
    print(f"  accuracy  : {result.accuracy:.1%}")
    if router is not None:
        routed_usd = result.routed_cost_usd or 0.0
        print(f"  tokens    : {result.total_tokens:,} ({result.total_tokens / result.num_queries:.0f}/query)")
        print(f"  cost      : ${routed_usd:.4f} cascade (all tier attempts, per-tier pricing)")
    else:
        summary = cost_summary(result, args.model)
        print(f"  tokens    : {result.total_tokens:,} ({summary.tokens_per_query:.0f}/query)")
        print(f"  cost      : ${summary.total_usd:.4f} (${summary.usd_per_query * 1000:.4f}/1k queries)")
    print(f"  w/ N_i    : {result.queries_with_neighbors}/{result.num_queries} queries")
    if router is not None:
        from repro.experiments.report import render_table

        stats = router.stats()
        tier_rows = []
        for tier in router.tiers:
            answered = stats["resolved_by_tier"][tier.name] + stats["replayed_by_tier"][tier.name]
            tier_records = [r for r in result.records if r.tier == tier.name]
            acc = (
                f"{sum(r.correct for r in tier_records) / len(tier_records) * 100:.1f}"
                if tier_records
                else "-"
            )
            usd = sum(r.cost_usd or 0.0 for r in tier_records)
            tier_rows.append([tier.name, f"{answered}", acc, f"${usd:.4f}"])
        print(
            f"  cascade   : {result.num_escalated}/{result.num_queries} queries "
            f"escalated ({stats['escalations']} hops this run)"
        )
        print(render_table(["Tier", "Answered", "Acc (%)", "Cost"], tier_rows, title="Cascade tiers"))
    if args.failure_rate > 0:
        tiers = ", ".join(f"{k}={v}" for k, v in result.outcome_counts.items() if v)
        print(f"  outcomes  : {tiers}")
        print(f"  wasted    : {flaky.wasted_prompt_tokens:,} prompt tokens on failed calls")
    if args.compress is not None:
        print(
            f"  compress  : {result.num_compressed}/{result.num_queries} prompts "
            f"shrunk to <= {args.compress:.0%} of their tokens"
        )
    if scheduler is not None:
        report = scheduler.report
        print(
            f"  scheduler : {report.num_queries} queries in {report.num_waves} waves / "
            f"{report.num_batches} batches ({scheduler.mode}/{scheduler.dispatch}, "
            f"batch={scheduler.max_batch_size or 'wave'}, workers={scheduler.max_concurrency})"
        )
        if args.prefix_sharing:
            examined = report.prefix_prompt_tokens
            shared = report.shared_prompt_tokens
            pct = shared / examined if examined else 0.0
            print(
                f"  prefix    : {shared:,} of {examined:,} planned prompt "
                f"tokens shared ({pct:.1%} prompt-cache discount)"
            )
        if report.serial_seconds > 0:
            print(
                f"  overlap   : {report.serial_seconds:.1f}s serial -> "
                f"{report.overlapped_seconds:.1f}s overlapped "
                f"({report.speedup:.2f}x)"
            )
    if cache is not None:
        stats = cache.stats()
        print(
            f"  cache     : {stats['hits']} hits / {stats['misses']} misses "
            f"({stats['hit_rate']:.1%} hit rate, {stats['evictions']} evictions)"
        )
    if args.save_run:
        print(f"  saved run : {save_run(result, args.save_run)}")
    if args.csv:
        print(f"  saved csv : {write_csv(result, args.csv)}")
    _write_observability(args, instr)
    return 0


def _parse_tenant_specs(text: str):
    """Parse ``name:weight[:token_budget[:usd_budget]]`` comma-separated specs.

    ``-`` (or an empty field) leaves that budget unlimited, e.g.
    ``alpha:2:20000,beta:1:-:0.05,gamma:1``.
    """
    from repro.runtime.serve import TenantSpec

    def _number(field: str) -> float | None:
        field = field.strip()
        if field in ("", "-"):
            return None
        return float(field)

    specs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if not parts[0]:
            raise ValueError(f"bad tenant spec {chunk!r}")
        specs.append(
            TenantSpec(
                name=parts[0],
                weight=int(parts[1]) if len(parts) > 1 and parts[1] else 1,
                token_budget=_number(parts[2]) if len(parts) > 2 else None,
                usd_budget=_number(parts[3]) if len(parts) > 3 else None,
            )
        )
    return specs


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.common import load_setup
    from repro.experiments.report import render_table
    from repro.experiments.table4 import fit_scorer
    from repro.llm.reliability import LatencyLLM, SimulatedClock
    from repro.runtime.fallback import DegradationLadder
    from repro.runtime.scheduler import QueryScheduler
    from repro.runtime.serve import (
        AdmissionPolicy,
        JournalError,
        ServeJournal,
        ServingLayer,
        load_requests,
        save_requests,
        synthetic_stream,
    )

    if (args.requests is None) == (args.synthetic is None):
        print("serve needs exactly one of --requests FILE or --synthetic N", file=sys.stderr)
        return 2
    setup = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    try:
        tenants = _parse_tenant_specs(args.tenants)
    except ValueError as error:
        print(f"bad --tenants: {error}", file=sys.stderr)
        return 2

    if args.requests is not None:
        stream = load_requests(args.requests)
    else:
        stream = synthetic_stream(
            tenants,
            setup.queries,
            args.synthetic,
            arrival_window=args.arrival_window,
            seed=args.seed,
        )
    if args.save_requests:
        print(f"request stream : {save_requests(stream, args.save_requests)}")

    clock = SimulatedClock()
    instr = _instrumentation(args, clock, "serve")
    if args.compress_watermark is not None and args.compress is None:
        print("--compress-watermark needs --compress RATIO", file=sys.stderr)
        return 2
    llm = setup.make_llm(args.model)
    if args.seconds_per_call > 0 or args.seconds_per_1k_tokens > 0:
        llm = LatencyLLM(
            llm,
            clock=clock,
            seconds_per_call=args.seconds_per_call,
            seconds_per_1k_tokens=args.seconds_per_1k_tokens,
        )
    scheduler = None
    if args.batch_size is not None or args.workers > 1 or args.prefix_sharing:
        scheduler = QueryScheduler(
            max_batch_size=args.batch_size if args.batch_size is not None else 8,
            max_concurrency=args.workers,
            mode=args.dispatch,
            dispatch=args.plan,
            prefix_sharing=args.prefix_sharing,
        )
    compressor = None
    if args.compress is not None:
        from repro.mqo.compression import PromptCompressor

        compressor = PromptCompressor(target_ratio=args.compress)
    surrogate = fit_scorer(setup, model=args.model) if args.surrogate else None
    engine = setup.make_engine(
        args.method,
        model=args.model,
        llm=llm,
        clock=clock,
        scheduler=scheduler,
        ladder=DegradationLadder(surrogate=surrogate),
        observer=instr,
        compressor=compressor,
        shared_first=args.shared_first,
    )
    layer = ServingLayer(
        engine,
        tenants,
        policy=AdmissionPolicy(
            degrade_watermark=args.degrade_watermark,
            shed_watermark=args.shed_watermark,
            wave_quota=args.wave_quota,
            compress_watermark=args.compress_watermark,
        ),
        global_budget=args.global_budget,
        global_usd_budget=args.global_usd_budget,
        price_model=args.model,
    )
    journal = None
    replayed_cycles = 0
    if args.journal:
        try:
            journal = ServeJournal(args.journal)
        except JournalError as error:
            print(f"bad --journal: {error}", file=sys.stderr)
            return 2
        replayed_cycles = len(journal.cycles)
    try:
        report = layer.replay(stream, journal=journal)
    except JournalError as error:
        print(f"journal resume failed: {error}", file=sys.stderr)
        return 1

    print(
        f"dataset={args.dataset} method={args.method} model={args.model} "
        f"tenants={len(tenants)}"
    )
    if journal is not None:
        print(
            f"  journal   : {journal.path} ({len(journal.cycles)} cycles "
            f"committed, {replayed_cycles} replayed without re-issuing calls)"
        )
    statuses = report.status_counts
    print(f"  requests  : {report.num_requests} over {report.cycles} cycles")
    print(
        f"  outcomes  : {statuses['served']} served / {statuses['degraded']} degraded / "
        f"{statuses['rejected']} rejected (goodput {report.goodput})"
    )
    mix = ", ".join(f"{tier}={n}" for tier, n in sorted(report.tier_counts.items()))
    print(f"  tiers     : {mix}")
    print(
        f"  latency   : p50 {report.latency_percentile(50):.2f}s / "
        f"p99 {report.latency_percentile(99):.2f}s "
        f"(makespan {report.makespan_seconds:.1f}s simulated)"
    )
    if args.prefix_sharing:
        shared = layer.book.shared_tokens
        print(
            f"  prefix    : {shared:,} shared prompt tokens credited back "
            f"to tenant budgets (prompt-cache discount)"
        )
    rows = []
    summaries = report.tenant_summaries()
    for spec in tenants:
        summary = summaries.get(spec.name)
        ledger = layer.book.ledger(spec.name)
        if summary is None:
            rows.append([spec.name, 0, 0, 0, 0, "0", "$0.0000", "-", "-"])
            continue
        rows.append(
            [
                spec.name,
                summary.submitted,
                summary.served,
                summary.degraded,
                summary.rejected,
                f"{ledger.spent:,}",
                f"${ledger.spent_usd:.4f}",
                f"{summary.percentile(50):.2f}",
                f"{summary.percentile(99):.2f}",
            ]
        )
    print(
        render_table(
            ["Tenant", "Requests", "Served", "Degraded", "Rejected",
             "Tokens", "USD", "p50 (s)", "p99 (s)"],
            rows,
            title="Per-tenant serving summary",
        )
    )
    _write_observability(args, instr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one fault plan against the full serving stack and audit it."""
    import tempfile
    from pathlib import Path

    from repro.experiments.chaos import (
        build_stack,
        default_tenants,
        make_stream,
        outcome_signature,
        run_checkpoint_demo,
        SECONDS_PER_CALL,
    )
    from repro.experiments.common import load_setup
    from repro.runtime.chaos import (
        ChaosInvariantViolation,
        CheckpointCrash,
        FaultPlan,
        preset,
    )
    from repro.runtime.serve import ServeJournal

    if args.plan is not None:
        try:
            plan = FaultPlan.from_json(Path(args.plan).read_text())
        except (OSError, ValueError) as error:
            print(f"bad --plan: {error}", file=sys.stderr)
            return 2
    else:
        plan = preset(args.preset, seed=args.seed, tenant=args.victim)
    if args.show_plan:
        print(plan.to_json())
        return 0

    setup = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    tenants = default_tenants()
    if args.victim not in {t.name for t in tenants}:
        print(f"--victim must be one of {[t.name for t in tenants]}", file=sys.stderr)
        return 2
    base_stream = make_stream(
        tenants, setup, args.requests, arrival_window=args.requests * SECONDS_PER_CALL
    )
    # Flood traffic requests nodes disjoint from the base stream: a flood
    # duplicating a base node's prompt would warm the response cache, and
    # that warmth is run-scoped state a crash/resume legitimately loses.
    flood_pool = [int(v) for v in setup.queries[args.requests : 2 * args.requests]]
    failures = 0

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(args.journal) if args.journal else Path(tmp) / "serve.journal"

        stack = build_stack(setup, plan, tenants=tenants, workers=args.workers)
        stream = stack.chaos.apply_floods(base_stream, nodes=flood_pool)
        report = stack.layer.replay(stream, journal=ServeJournal(journal_path))

        flooded = len(stream) - len(base_stream)
        statuses = report.status_counts
        print(f"fault plan : {plan.name} (seed {plan.seed}, {len(plan.faults)} faults)")
        print(
            f"requests   : {len(base_stream)} base + {flooded} flood "
            f"over {report.cycles} cycles"
        )
        print(
            f"outcomes   : {statuses['served']} served / {statuses['degraded']} "
            f"degraded / {statuses['rejected']} rejected "
            f"(goodput {report.goodput}/{report.num_requests})"
        )
        mix = ", ".join(f"{tier}={n}" for tier, n in sorted(report.tier_counts.items()))
        print(f"tiers      : {mix}")
        counts = stack.chaos.fault_counts()
        injected = ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none"
        print(f"injected   : {injected}")
        print(
            f"latency    : p50 {report.latency_percentile(50):.2f}s / "
            f"p99 {report.latency_percentile(99):.2f}s "
            f"(makespan {report.makespan_seconds:.1f}s simulated)"
        )

        try:
            stack.checker.verify(
                report=report, book=stack.layer.book, num_submitted=len(stream)
            )
            print("invariants : OK (admissions, tiers, chronology, ledgers)")
        except ChaosInvariantViolation as error:
            failures += 1
            print("invariants : FAILED", file=sys.stderr)
            for violation in error.violations:
                print(f"  - {violation}", file=sys.stderr)

        if not args.skip_resume:
            # Crash/resume proof: drop the journal's second half (what a
            # mid-run crash leaves) and finish on a fresh stack.
            half = ServeJournal(journal_path)
            keep = len(half.cycles) // 2
            half.truncate(keep)
            resumed = build_stack(setup, plan, tenants=tenants, workers=args.workers)
            resumed_stream = resumed.chaos.apply_floods(base_stream, nodes=flood_pool)
            resumed_report = resumed.layer.replay(resumed_stream, journal=half)
            exact = outcome_signature(resumed_report) == outcome_signature(report)
            verdict = "replay-exact" if exact else "DIVERGED"
            print(
                f"resume     : crash after cycle {keep}/{report.cycles} -> "
                f"{verdict}, {resumed.base_llm.usage.num_queries} LLM calls "
                f"re-issued (journaled work: 0)"
            )
            if not exact:
                failures += 1

        if plan.of_type(CheckpointCrash):
            demo = run_checkpoint_demo(setup, plan, Path(tmp) / "checkpoint.json")
            status = "identical to baseline" if demo.identical else "DIVERGED"
            print(
                f"checkpoint : crashed mid-flush with {demo.records_at_crash} "
                f"records written, recovered {demo.recovered_records} records "
                f"({demo.recovery_reason}), {demo.duplicate_calls} duplicate "
                f"calls, final run {status}"
            )
            if not (demo.crashed and demo.identical and demo.duplicate_calls == 0):
                failures += 1

    if failures:
        print(f"\nCHAOS RUN FAILED: {failures} check(s) did not hold", file=sys.stderr)
        return 1
    print("\nall chaos checks held")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace_summary

    bundle = _load_bundle(args.path)
    if bundle is None:
        return 1
    print(render_trace_summary(bundle.lines))
    return 0


def _load_bundle(path: str):
    from repro.obs import TraceSchemaError
    from repro.obs.insight import RunBundle

    try:
        return RunBundle.load(path)
    except (TraceSchemaError, ValueError, OSError) as error:
        print(f"INVALID trace: {error}", file=sys.stderr)
        return None


def _starts_with_run_header(path: str) -> bool:
    """Whether the file's first line is a trace's ``run`` header."""
    import json as _json

    try:
        with open(path) as handle:
            first = _json.loads(handle.readline())
    except (ValueError, OSError):
        return False
    return isinstance(first, dict) and first.get("kind") == "run"


def _emit(title: str, section_list, payload: dict, fmt: str) -> None:
    from repro.obs.insight import render_json, render_sections

    if fmt == "json":
        print(render_json(payload), end="")
    else:
        print(render_sections(title, section_list, fmt), end="")


def _cmd_analyze_critical_path(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.insight import analyze_bench, analyze_trace
    from repro.obs.insight import critical_path as cp

    # A trace's first line is its run header, and only a trace is read
    # past that line here.  Anything else may be a BENCH_scheduler.json
    # artifact: a single JSON object with a "waves" key.
    payload = None
    if not _starts_with_run_header(args.path):
        try:
            payload = _json.loads(Path(args.path).read_text())
        except (ValueError, OSError):
            pass
    extra_sections = []
    dependency = None
    if isinstance(payload, dict) and "waves" in payload:
        report = analyze_bench(payload)
        title = "Critical-path analysis (bench artifact)"
    else:
        bundle = _load_bundle(args.path)
        if bundle is None:
            return 1
        report = analyze_trace(
            bundle, concurrency=args.concurrency, batch_size=args.batch_size
        )
        title = bundle.title("Critical-path analysis")
        # v3 traces from DAG dispatch carry readiness attributes; upgrade
        # barrier-stall blame to dependency-stall blame (no-op otherwise).
        extra_sections = cp.dependency_sections(bundle)
        dependency = cp.dependency_summary(bundle)
    report_payload = report.to_dict()
    if dependency is not None:
        report_payload["dependency"] = dependency
    _emit(title, cp.sections(report) + extra_sections, report_payload, args.format)
    return 0


def _cmd_analyze_costs(args: argparse.Namespace) -> int:
    from repro.obs.insight import attribute, verify
    from repro.obs.insight import attribution as am

    bundle = _load_bundle(args.path)
    if bundle is None:
        return 1
    report = attribute(bundle)
    section_list = am.sections(report, top_nodes=args.top)
    problems = verify(bundle, report)
    if problems:
        section_list.append(
            am.Section(
                title="RECONCILIATION FAILURES",
                notes=[f"FAIL: {p}" for p in problems],
            )
        )
    payload = report.to_dict()
    payload["reconciliation_problems"] = problems
    _emit(bundle.title("Cost attribution"), section_list, payload, args.format)
    if problems:
        for problem in problems:
            print(f"RECONCILIATION FAIL: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze_slo(args: argparse.Namespace) -> int:
    from repro.obs.insight import DEFAULT_OBJECTIVES, evaluate, load_objectives
    from repro.obs.insight import slo as sm

    bundle = _load_bundle(args.path)
    if bundle is None:
        return 1
    try:
        objectives = (
            load_objectives(args.objectives)
            if args.objectives
            else DEFAULT_OBJECTIVES
        )
    except (ValueError, KeyError, OSError) as error:
        print(f"INVALID objectives: {error}", file=sys.stderr)
        return 1
    report = evaluate(bundle, objectives=objectives, windows=args.windows)
    _emit(bundle.title("SLO attainment"), sm.sections(report), report.to_dict(), args.format)
    if args.fail_on_breach and not report.all_met:
        breached = [r.objective.name for r in report.results if not r.met]
        print(f"SLO BREACHED: {', '.join(breached)}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze_diff(args: argparse.Namespace) -> int:
    from repro.obs.insight import diff_bundles
    from repro.obs.insight import diff as dm

    baseline = _load_bundle(args.baseline)
    current = _load_bundle(args.current)
    if baseline is None or current is None:
        return 1
    report = diff_bundles(baseline, current, tolerance=args.tolerance)
    _emit(
        "Cross-run diff (baseline -> current)",
        dm.sections(report),
        report.to_dict(),
        args.format,
    )
    return 1 if report.verdict == "regression" else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.experiments.sharding import format_sharding, run_sharding

    result = run_sharding(
        args.dataset,
        shard_counts=tuple(args.shards),
        num_queries=args.queries,
        scale=args.scale,
        gossip=not args.no_gossip,
    )
    print(format_sharding(result))
    failures = []
    for cell in result.cells:
        if cell.duplicate_llm_calls != 0:
            failures.append(
                f"shards={cell.shards}: {cell.duplicate_llm_calls} duplicate "
                "LLM calls (single-flight over the shared cache should "
                "make this zero)"
            )
    if args.verify:
        failures.extend(_verify_cluster(args))
    for failure in failures:
        print(f"FAIL: {failure}")
    if args.verify and not failures:
        print("cluster audit: all checks passed")
    return 1 if failures else 0


def _verify_cluster(args: argparse.Namespace) -> list[str]:
    """The ``repro cluster --verify`` audit: equality, ledgers, cache, serve.

    Four checks, each on a freshly built stack:

    1. a one-shard cluster's combined records, rounds and ledger are
       bit-identical to the unsharded strategy's (same engine stack, same
       seeds; :func:`repro.experiments.sharding.one_shard_mismatches`);
    2. per-worker ledgers reconcile token-for-token against the combined
       records;
    3. a second cluster over the warm shared store re-issues **zero** inner
       LLM calls (the cross-run shared-cache proof);
    4. a multi-shard serve replay keeps DRR fairness and the LedgerBook
       reconciled for tenants spanning shards.
    """
    from repro.core.boosting import QueryBoostingStrategy
    from repro.experiments.common import load_setup
    from repro.experiments.sharding import (
        build_cluster,
        one_shard_mismatches,
        rerun_warm,
        run_unsharded,
    )
    from repro.llm.caching import MemoryCacheStore, SharedFlight
    from repro.runtime.serve import ServeRequest, ServingLayer, TenantSpec

    failures: list[str] = []
    shards = max(args.shards)

    # 1. shards=1 bit-equality against the unsharded engine path.
    reference = run_unsharded(
        load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    )
    setup1 = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    cluster1 = build_cluster(setup1, 1, store=MemoryCacheStore(max_entries=None))
    failures.extend(
        one_shard_mismatches(
            reference, cluster1, cluster1.run_boosting(QueryBoostingStrategy())
        )
    )

    # 2+3. multi-shard run: ledger reconciliation, then warm-store re-run.
    setup_n = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    store = MemoryCacheStore(max_entries=None)
    flight = SharedFlight()
    cluster_n = build_cluster(setup_n, shards, store=store, flight=flight)
    result_n = cluster_n.run_boosting(QueryBoostingStrategy())
    ledger_spend = sum(e.ledger.spent for e in cluster_n.engines)
    record_tokens = sum(
        r.prompt_tokens + r.completion_tokens for r in result_n.combined.records
    )
    if ledger_spend != record_tokens:
        failures.append(
            f"shards={shards} ledgers reconcile to {ledger_spend} tokens but "
            f"records carry {record_tokens}"
        )
    setup_warm = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    warm = rerun_warm(setup_warm, shards, store, flight)
    if warm["inner_llm_calls"] != 0:
        failures.append(
            f"warm shared store still paid {warm['inner_llm_calls']} inner "
            "LLM calls (expected all hits)"
        )

    # 4. serve across shards: fairness + LedgerBook reconciliation.
    setup_s = load_setup(args.dataset, num_queries=args.queries, scale=args.scale)
    cluster_s = build_cluster(
        setup_s, shards, store=MemoryCacheStore(max_entries=None), ledgers=False
    )
    tenants = [TenantSpec("alpha", weight=2), TenantSpec("beta", weight=1)]
    nodes = setup_s.queries[: min(24, len(setup_s.queries))]
    requests = [
        ServeRequest(tenants[i % 2].name, int(node), arrival=0.0)
        for i, node in enumerate(nodes)
    ]
    layer = ServingLayer(tenants=tenants, cluster=cluster_s)
    report = layer.replay(requests)
    served = {t.name: 0 for t in tenants}
    for outcome in report.outcomes:
        if outcome.answered:
            served[outcome.request.tenant] += 1
    starved = [name for name, count in served.items() if count == 0]
    if starved:
        failures.append(f"serve starved tenants across shards: {starved}")
    snapshot = report.book.snapshot()
    charged = {t.name: 0 for t in tenants}
    for outcome in report.outcomes:
        if outcome.record is not None:
            charged[outcome.request.tenant] += (
                outcome.record.prompt_tokens + outcome.record.completion_tokens
            )
    for name, tokens in charged.items():
        spent = snapshot[name][0]
        if spent != tokens:
            failures.append(
                f"tenant {name} book shows {spent} tokens but records "
                f"carry {tokens}"
            )
    return failures


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_all, write_report

    results = run_all(num_queries=200 if args.quick else 1000, verbose=True)
    path = write_report(results, args.output)
    print(f"\nreport written to {path}")
    return 0


def _cmd_prices(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.llm.pricing import PRICES_PER_1K_TOKENS

    rows = [
        (name, f"${p.input_per_1k:.5f}", f"${p.output_per_1k:.5f}")
        for name, p in PRICES_PER_1K_TOKENS.items()
    ]
    print(render_table(["Model", "Input /1k tok", "Output /1k tok"], rows, title="Token pricing"))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.chaos import PRESET_NAMES
    from repro.runtime.router import ESCALATION_MODES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("datasets", help="list dataset replicas")
    sub.set_defaults(func=_cmd_datasets)

    sub = subparsers.add_parser("info", help="inspect one replica")
    sub.add_argument("dataset")
    sub.add_argument("--scale", type=float, default=None, help="override replica scale")
    sub.set_defaults(func=_cmd_info)

    sub = subparsers.add_parser("classify", help="run a query set under a strategy")
    sub.add_argument("--dataset", default="cora")
    sub.add_argument("--method", default="1-hop", choices=["vanilla", "1-hop", "2-hop", "sns"])
    sub.add_argument("--model", default="gpt-3.5", choices=["gpt-3.5", "gpt-4o-mini"])
    sub.add_argument("--strategy", default="none", choices=["none", "prune", "boost", "joint"])
    sub.add_argument("--queries", type=int, default=1000)
    sub.add_argument("--tau", type=float, default=0.2, help="pruning fraction")
    sub.add_argument("--scale", type=float, default=None)
    sub.add_argument("--save-run", default=None, help="write the run as JSON")
    sub.add_argument("--csv", default=None, help="write per-query records as CSV")
    sub.add_argument(
        "--failure-rate",
        type=float,
        default=0.0,
        help="inject transient LLM failures at this rate, with retries, a "
        "circuit breaker and graceful degradation absorbing them",
    )
    sub.add_argument(
        "--max-attempts", type=int, default=4, help="LLM attempts per query under --failure-rate"
    )
    sub.add_argument(
        "--checkpoint",
        default=None,
        help="checkpoint file: the run persists progress there and, if the "
        "file exists, resumes without re-issuing completed LLM calls",
    )
    sub.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="dispatch queries through the batched scheduler in batches of "
        "this size (default: serial execution)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scheduler concurrency: virtual workers under --dispatch "
        "simulated, real threads under --dispatch threads",
    )
    sub.add_argument(
        "--dispatch",
        default="simulated",
        choices=["simulated", "threads"],
        help="scheduler dispatch mode; 'simulated' is deterministic "
        "(bit-identical to serial) and accounts overlap virtually",
    )
    sub.add_argument(
        "--plan",
        default="wave",
        choices=["wave", "dag"],
        help="dispatch plan: 'wave' barriers every round; 'dag' uses "
        "dependency-driven readiness (pipelines rounds under --dispatch "
        "threads, records stay identical either way)",
    )
    sub.add_argument(
        "--compress",
        type=float,
        default=None,
        metavar="RATIO",
        help="deterministic prompt compression: drop the least-relevant "
        "neighbor blocks until each prompt fits within RATIO of its "
        "original tokens (strategy 'none' only)",
    )
    sub.add_argument(
        "--prefix-sharing",
        action="store_true",
        help="plan scheduler batches by longest common prompt prefix and "
        "credit each batch's shared prefix once (prompt-cache discount); "
        "implies the batched scheduler",
    )
    sub.add_argument(
        "--shared-first",
        action="store_true",
        help="prompt layout with the shared context (task + neighbors) "
        "before the per-query target, maximizing shareable prefixes; "
        "predictions are layout-invariant",
    )
    sub.add_argument(
        "--cache",
        action="store_true",
        help="wrap the model in an exact-prompt response cache and report "
        "its hit rate",
    )
    sub.add_argument(
        "--models",
        default=None,
        help="comma-separated cascade tiers, cheapest first (e.g. "
        "'gpt-4o-mini,gpt-3.5'): route each query through the multi-model "
        "cascade instead of the single --model",
    )
    sub.add_argument(
        "--escalate-on",
        default="both",
        choices=list(ESCALATION_MODES),
        help="cascade routing signals: pre-call text inadequacy D(t_i), "
        "post-call response confidence, both, or never (pin to cheap tier)",
    )
    sub.add_argument(
        "--confidence-threshold",
        type=float,
        default=0.6,
        help="cascade: answers below this confidence escalate one tier",
    )
    sub.add_argument(
        "--inadequacy-quantile",
        type=float,
        default=0.8,
        help="cascade: queries in this top D(t_i) quantile enter at the "
        "strongest tier directly",
    )
    sub.add_argument(
        "--trace",
        default=None,
        help="instrument the run and write its span trace (JSONL) here; "
        "also prints the per-run telemetry summary",
    )
    sub.add_argument(
        "--metrics",
        default=None,
        help="instrument the run and write its metrics here (Prometheus "
        "text, or JSON when the path ends in .json)",
    )
    sub.set_defaults(func=_cmd_classify)

    sub = subparsers.add_parser(
        "serve",
        help="replay a multi-tenant request stream through the serving layer",
    )
    sub.add_argument("--dataset", default="cora")
    sub.add_argument("--method", default="1-hop", choices=["vanilla", "1-hop", "2-hop", "sns"])
    sub.add_argument("--model", default="gpt-3.5", choices=["gpt-3.5", "gpt-4o-mini"])
    sub.add_argument("--queries", type=int, default=1000)
    sub.add_argument("--scale", type=float, default=None)
    sub.add_argument(
        "--requests",
        default=None,
        help="JSONL request stream to replay (one "
        '{"tenant", "node", "arrival"} object per line)',
    )
    sub.add_argument(
        "--synthetic",
        type=int,
        default=None,
        help="generate this many synthetic requests instead of --requests",
    )
    sub.add_argument(
        "--arrival-window",
        type=float,
        default=0.0,
        help="synthetic arrivals spread uniformly over this many simulated "
        "seconds (0: all arrive at t=0)",
    )
    sub.add_argument(
        "--save-requests",
        default=None,
        help="write the (synthetic) stream as JSONL for later replay",
    )
    sub.add_argument(
        "--tenants",
        default="alpha:2,beta:1,gamma:1",
        help="comma-separated name:weight[:token_budget[:usd_budget]] specs "
        "('-' leaves a budget unlimited)",
    )
    sub.add_argument(
        "--global-budget",
        type=float,
        default=None,
        help="global token ceiling shared by every tenant",
    )
    sub.add_argument(
        "--global-usd-budget",
        type=float,
        default=None,
        help="global dollar ceiling shared by every tenant",
    )
    sub.add_argument(
        "--compress-watermark",
        type=int,
        default=None,
        help="total queued requests at which new arrivals pin to the "
        "compressed neighbor prompt (needs --compress)",
    )
    sub.add_argument(
        "--degrade-watermark",
        type=int,
        default=None,
        help="total queued requests at which new arrivals degrade to the "
        "zero-shot prompt",
    )
    sub.add_argument(
        "--shed-watermark",
        type=int,
        default=None,
        help="total queued requests at which new arrivals are rejected",
    )
    sub.add_argument(
        "--compress",
        type=float,
        default=None,
        metavar="RATIO",
        help="arm the deterministic prompt compressor: the overload ladder "
        "and budget gate gain a compressed rung at RATIO of the full "
        "prompt's tokens",
    )
    sub.add_argument(
        "--prefix-sharing",
        action="store_true",
        help="plan each cycle's scheduler batches by longest common prompt "
        "prefix and credit the shared prefix to the tenant's ledger as a "
        "prompt-cache discount (needs --batch-size)",
    )
    sub.add_argument(
        "--shared-first",
        action="store_true",
        help="prefix-sharing-friendly prompt layout (shared context before "
        "the per-query target); predictions are layout-invariant",
    )
    sub.add_argument(
        "--wave-quota", type=int, default=8,
        help="max requests per dispatch cycle (one scheduler wave)",
    )
    sub.add_argument(
        "--batch-size", type=int, default=None,
        help="dispatch each cycle through the batched scheduler in batches "
        "of this size",
    )
    sub.add_argument(
        "--workers", type=int, default=1,
        help="scheduler concurrency (virtual workers under simulated dispatch)",
    )
    sub.add_argument(
        "--dispatch", default="simulated", choices=["simulated", "threads"],
        help="scheduler dispatch mode; 'simulated' keeps serve replays "
        "bit-reproducible",
    )
    sub.add_argument(
        "--plan", default="wave", choices=["wave", "dag"],
        help="dispatch plan: 'dag' admits requests into the in-flight "
        "virtual timeline instead of behind the previous wave's barrier",
    )
    sub.add_argument(
        "--seconds-per-call",
        type=float,
        default=0.5,
        help="simulated LLM service latency per call (0 disables latency "
        "modelling; latencies and p99s then read 0)",
    )
    sub.add_argument(
        "--seconds-per-1k-tokens",
        type=float,
        default=0.0,
        help="additional simulated latency per 1k tokens transferred — "
        "makes compressed prompts measurably faster",
    )
    sub.add_argument(
        "--surrogate",
        action="store_true",
        help="fit the inadequacy surrogate so budget-starved requests get "
        "MLP answers instead of abstentions",
    )
    sub.add_argument("--seed", type=int, default=0, help="synthetic stream seed")
    sub.add_argument(
        "--journal",
        default=None,
        help="write-ahead journal file: every settled cycle is durably "
        "committed there, and re-running against an existing journal "
        "resumes replay-exact without re-issuing journaled LLM calls",
    )
    sub.add_argument(
        "--trace", default=None,
        help="instrument the run and write its span trace (JSONL) here",
    )
    sub.add_argument(
        "--metrics", default=None,
        help="instrument the run and write its metrics here (Prometheus "
        "text, or JSON when the path ends in .json)",
    )
    sub.set_defaults(func=_cmd_serve)

    sub = subparsers.add_parser(
        "chaos",
        help="inject a deterministic fault plan into the serving stack and "
        "audit the invariants",
    )
    sub.add_argument("--dataset", default="cora")
    sub.add_argument("--queries", type=int, default=120)
    sub.add_argument("--scale", type=float, default=None)
    sub.add_argument(
        "--preset",
        default="everything",
        choices=list(PRESET_NAMES),
        help="named fault plan to run (ignored when --plan is given)",
    )
    sub.add_argument(
        "--plan",
        default=None,
        help="JSON fault-plan file (see FaultPlan.to_json / docs/chaos.md)",
    )
    sub.add_argument(
        "--show-plan",
        action="store_true",
        help="print the resolved plan as JSON and exit",
    )
    sub.add_argument("--seed", type=int, default=0, help="fault plan seed")
    sub.add_argument(
        "--requests",
        type=int,
        default=36,
        help="base synthetic requests (tenant floods add on top)",
    )
    sub.add_argument(
        "--victim",
        default="alpha",
        help="tenant targeted by tenant-scoped presets",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        help="threads-mode scheduler concurrency (default: auto — threads "
        "only when the plan carries worker faults)",
    )
    sub.add_argument(
        "--journal",
        default=None,
        help="keep the serve journal at this path instead of a temp file",
    )
    sub.add_argument(
        "--skip-resume",
        action="store_true",
        help="skip the crash/resume replay-exactness proof",
    )
    sub.set_defaults(func=_cmd_chaos)

    sub = subparsers.add_parser("trace", help="validate + summarize a JSONL query trace")
    sub.add_argument("path", help="trace file written by classify --trace")
    sub.set_defaults(func=_cmd_trace)

    analyze = subparsers.add_parser(
        "analyze", help="offline performance analysis of run telemetry"
    )
    analyze_sub = analyze.add_subparsers(dest="analysis", required=True)

    def _add_format(p):
        p.add_argument(
            "--format", default="text", choices=["text", "json", "md"],
            help="report rendering (default: text)",
        )

    sub = analyze_sub.add_parser(
        "critical-path",
        help="wave makespan decomposition: compute vs barrier-stall idle",
    )
    sub.add_argument("path", help="JSONL trace, or a BENCH_scheduler.json artifact")
    sub.add_argument(
        "--concurrency", type=_positive_int, default=4,
        help="virtual workers for trace packing (default: 4)",
    )
    sub.add_argument(
        "--batch-size", type=_positive_int, default=None,
        help="batch barrier width (default: whole wave)",
    )
    _add_format(sub)
    sub.set_defaults(func=_cmd_analyze_critical_path)

    sub = analyze_sub.add_parser(
        "costs", help="token/dollar attribution, reconciled against metrics"
    )
    sub.add_argument("path", help="JSONL trace written by classify/serve --trace")
    sub.add_argument(
        "--top", type=_positive_int, default=10,
        help="node spenders to list (default: 10)",
    )
    _add_format(sub)
    sub.set_defaults(func=_cmd_analyze_costs)

    sub = analyze_sub.add_parser(
        "slo", help="latency/goodput/error-rate objectives + burn rates"
    )
    sub.add_argument("path", help="JSONL trace written by classify/serve --trace")
    sub.add_argument(
        "--objectives", default=None,
        help="JSON file of objectives (default: built-in serve SLOs)",
    )
    sub.add_argument(
        "--windows", type=_positive_int, default=6,
        help="equal time slices for burn rates (default: 6)",
    )
    sub.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit 1 if any objective is breached",
    )
    _add_format(sub)
    sub.set_defaults(func=_cmd_analyze_slo)

    sub = analyze_sub.add_parser(
        "diff", help="cross-run regression diff (exit 1 on regression verdict)"
    )
    sub.add_argument("baseline", help="baseline JSONL trace")
    sub.add_argument("current", help="current JSONL trace")
    sub.add_argument(
        "--tolerance", type=float, default=0.1,
        help="relative movement treated as noise (default: 0.1)",
    )
    _add_format(sub)
    sub.set_defaults(func=_cmd_analyze_diff)

    sub = subparsers.add_parser(
        "cluster",
        help="run the sharded multi-worker cluster and report its "
        "accuracy/throughput/cache trade",
    )
    sub.add_argument("--dataset", default="cora")
    sub.add_argument("--queries", type=int, default=200)
    sub.add_argument("--scale", type=float, default=None)
    sub.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="shard counts to sweep (default: 1 2 4)",
    )
    sub.add_argument(
        "--no-gossip",
        action="store_true",
        help="isolate the shards (no cross-boundary pseudo-label gossip)",
    )
    sub.add_argument(
        "--verify",
        action="store_true",
        help="also audit shards=1 bit-equality, ledger reconciliation, the "
        "warm shared-cache zero-call proof, and cross-shard serve fairness",
    )
    sub.set_defaults(func=_cmd_cluster)

    sub = subparsers.add_parser("experiment", help="reproduce one paper table/figure")
    sub.add_argument("name", choices=EXPERIMENT_NAMES)
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser("report", help="reproduce every table/figure into a report")
    sub.add_argument("--output", default="reproduction_report.md")
    sub.add_argument("--quick", action="store_true", help="reduced query counts for a fast pass")
    sub.set_defaults(func=_cmd_report)

    sub = subparsers.add_parser("prices", help="show the token pricing table")
    sub.set_defaults(func=_cmd_prices)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
