"""Wall-clock benchmark of the query pipeline, one workload per run.

    python3 perfbench/run.py --workload joint-cora --seed 0 --seconds 10 --trace 0

Untraced (``--trace 0``): the workload is set up at least ``SETUP_REPEATS``
times and until ``SETUP_SECONDS`` of set-up ran (``setup_s`` is the median).
After each of the first ``SETUP_REPEATS`` set-ups its timed pass repeats for
a ``SETUP_REPEATS``-th of ``--seconds``, and at least ``MIN_PASSES`` passes
run in all.  ``queries_per_s`` is the pass's operation count over the
fastest pass time: a pass takes 1-2 s, and on a shared machine a pass that
overlaps other work only reads slower, so the fastest of several is the
steadiest estimate of what the code costs.  The deterministic metrics come
from the passes' outputs, which must agree exactly.

Traced (``--trace 1``): every layer listed in ``spans.LAYERS`` is wrapped,
the workload is set up once under tracing, then ``OVERHEAD_BASELINE_PASSES``
untraced passes and one traced pass run.  The per-layer metrics come from
the traced set-up and pass; the tracing overhead is the traced pass over the
fastest untraced one.  The spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.

Readable lines go to stderr.  The last line on stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed output check prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: A 1 s set-up (boost-cora-durable) reads 0.8 s or 1.3 s depending on the
#: machine's moment, so a median of three moves by a fifth between runs.
SETUP_SECONDS = 6.0
MIN_PASSES = 5
OVERHEAD_BASELINE_PASSES = 3

#: Figures a workload reports about a layer; 0 where the layer is absent.
LAYER_FIGURES = {
    "core.boosting.rounds": "count",
    "llm.cache.hit_ratio": "ratio",
    "mqo.prefix.shared_ratio": "ratio",
    "runtime.scheduler.batch_mean": "count",
    "runtime.serve.ok_share": "ratio",
    "runtime.serve.compressed_share": "ratio",
    "runtime.serve.pruned_share": "ratio",
    "runtime.serve.surrogate_share": "ratio",
    "runtime.serve.rejected_share": "ratio",
    "runtime.serve.sim_p50_s": "sim_s",
    "runtime.serve.sim_p99_s": "sim_s",
    "io.journal.bytes": "bytes",
    "io.checkpoint.resume_ratio": "ratio",
    "obs.spans": "count",
}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _log_ops(passes) -> None:
    first = passes[0]
    _log(
        f"operations per pass: sent {first.ops}, succeeded {first.succeeded}, "
        f"degraded {first.degraded}, failed {first.failed} ({len(passes)} passes)"
    )


def check_outputs(workload, state, seed: int, passes) -> list[str]:
    """Every correctness check of the benchmark; returns the failures."""
    errors = [error for p in passes for error in p.errors]
    first = passes[0].outputs()
    for index, result in enumerate(passes[1:], start=1):
        if result.outputs() != first:
            errors.append(f"pass {index} outputs {result.outputs()} differ from pass 0 {first}")
    errors += workload.verify(state, passes[0])
    recorded = json.loads(EXPECTED.read_text()).get(workload.name, {}).get(str(seed))
    if recorded is None:
        _log(f"no recorded outputs for {workload.name} seed {seed}; checked for consistency only")
    elif recorded != first:
        errors.append(f"outputs {first} differ from those recorded for seed {seed}: {recorded}")
    return errors


def measure(workload, seed: int, seconds: float):
    setup_times = []
    passes = []
    state = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        # Drop the previous set-up first, so peak_rss_mb holds only one.
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        repeat = len(setup_times)
        if repeat > SETUP_REPEATS:
            continue
        # Passes run between the set-ups, so the fastest one is drawn from
        # the whole run rather than from its last stretch.
        deadline = time.perf_counter() + seconds / SETUP_REPEATS
        while len(passes) < MIN_PASSES * repeat // SETUP_REPEATS or time.perf_counter() < deadline:
            # Each pass starts from a collected heap, not the previous pass's garbage.
            gc.collect()
            passes.append(workload.run(state))
    # Read before the checks, whose extra serial pass is not measured work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outputs(workload, state, seed, passes)
    first = passes[0]
    ops = first.ops
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "queries_per_s": _metric(ops / min(p.seconds for p in passes), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "accuracy": _metric(first.correct / ops, "ratio"),
        "tokens_per_query": _metric(first.tokens / ops, "tokens"),
        "paid_tokens_per_query": _metric(first.paid_tokens / ops, "tokens"),
        "llm_calls_per_query": _metric(first.llm_calls / ops, "calls"),
        "goodput_ratio": _metric(first.answered / ops, "ratio"),
    }
    _log_ops(passes)
    _log(f"pass seconds: {', '.join(f'{p.seconds:.3f}' for p in passes)}")
    _log(f"setup seconds: {', '.join(f'{s:.3f}' for s in setup_times)}")
    if "resume_s" in first.layer:
        resume = min(p.layer["resume_s"] for p in passes)
        _log(f"resume_s: {resume:.4f} (fastest pass)")
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    return errors, attempted, failed, metrics


def measure_traced(workload, seed: int):
    from spans import LAYERS, SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    recorder.enabled = True
    started = time.perf_counter()
    with recorder.span("bench.setup"):
        state = workload.setup(seed)
    wall = time.perf_counter() - started
    recorder.enabled = False
    setup_calls = recorder.calls()
    plain_passes = [workload.run(state) for _ in range(OVERHEAD_BASELINE_PASSES)]
    plain = min(plain_passes, key=lambda p: p.seconds)
    recorder.enabled = True
    started = time.perf_counter()
    with recorder.span("bench.pass"):
        traced = workload.run(state)
    wall += time.perf_counter() - started
    recorder.enabled = False

    errors = check_outputs(workload, state, seed, [*plain_passes, traced])
    path = recorder.write(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")
    _log(f"spans written to {path}")

    self_s = recorder.self_seconds()
    calls = recorder.calls()
    pass_calls = calls - setup_calls
    ops = traced.ops
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(calls[layer], "count")
        metrics[f"{layer}.self_pct"] = _metric(100.0 * self_s[layer] / wall, "%")
    texts = recorder.counters["text.tokenize.texts"]
    compress_calls = calls["mqo.compress"]
    metrics.update(
        {
            "selection.calls_per_query": _metric(pass_calls["selection"] / ops, "ratio"),
            "text.tokenize.chars": _metric(recorder.counters["text.tokenize.chars"], "count"),
            "text.tokenize.distinct_ratio": _metric(
                len(recorder.distinct_texts) / texts if texts else 0.0, "ratio"
            ),
            "prompts.render.per_query": _metric(pass_calls["prompts.render"] / ops, "ratio"),
            "mqo.compress.shrunk_ratio": _metric(
                recorder.counters["mqo.compress.shrunk"] / compress_calls if compress_calls else 0.0,
                "ratio",
            ),
            "runtime.readiness.peak_inflight": _metric(
                recorder.peak_worker_overlap("runtime.engine"), "count"
            ),
            "io.checkpoint.bytes": _metric(recorder.counters["io.checkpoint.bytes"], "bytes"),
        }
    )
    for name, unit in LAYER_FIGURES.items():
        metrics[name] = _metric(traced.layer.get(name, 0), unit)
    metrics["ops.sent"] = _metric(traced.ops, "count")
    metrics["ops.succeeded"] = _metric(traced.succeeded, "count")
    metrics["ops.degraded"] = _metric(traced.degraded, "count")
    metrics["ops.failed"] = _metric(traced.failed, "count")
    unattributed = self_s["bench.setup"] + self_s["bench.pass"]
    metrics["trace.coverage"] = _metric(1.0 - unattributed / wall, "ratio")
    metrics["trace.overhead_ratio"] = _metric(traced.seconds / plain.seconds, "ratio")

    _log_ops([*plain_passes, traced])
    _log(
        f"traced wall {wall:.3f}s; fastest untraced pass {plain.seconds:.3f}s, "
        f"traced pass {traced.seconds:.3f}s"
    )
    top = sorted(((s, layer) for layer, s in self_s.items()), reverse=True)
    _log("self seconds: " + ", ".join(f"{layer} {s:.3f}" for s, layer in top))
    every = [*plain_passes, traced]
    return errors, sum(p.ops for p in every), sum(p.failed for p in every), metrics


def record(workload, seed: int) -> None:
    """Store one pass's outputs as the recorded values for ``seed``."""
    state = workload.setup(seed)
    result = workload.run(state)
    errors = result.errors + workload.verify(state, result)
    if errors:
        raise SystemExit(f"not recording {workload.name} seed {seed}: {errors}")
    expected = json.loads(EXPECTED.read_text())
    expected.setdefault(workload.name, {})[str(seed)] = result.outputs()
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    _log(f"recorded {workload.name} seed {seed}: {result.outputs()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="store this seed's outputs as the expected ones"
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.record:
        record(workload, args.seed)
        return 0
    if args.trace:
        errors, attempted, failed, metrics = measure_traced(workload, args.seed)
    else:
        errors, attempted, failed, metrics = measure(workload, args.seed, args.seconds)
    for error in errors:
        _log(f"CHECK FAILED: {error}")
    print(
        json.dumps(
            {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
