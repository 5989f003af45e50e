# Convenience targets for the reproduction workflow.

# bash (not the default sh) so tee-piped targets can use pipefail — without
# it `pytest | tee` reports tee's exit status and swallows test failures.
SHELL := /bin/bash

.PHONY: install test test-parallel test-equivalence test-differential test-mqo coverage bench bench-check bench-tables report examples trace-smoke chaos-smoke analyze-smoke cluster-smoke perfbench-smoke paper-smoke perfbench-ab clean

# Line-coverage floor enforced by `make coverage` (and CI).
COVERAGE_FLOOR := 80

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Tier-1 suite under pytest-xdist when available; serial fallback otherwise.
# The if/else keeps a real test failure fatal either way (a `cmd || fallback`
# chain would mask one).
test-parallel:
	@if python -c "import xdist" 2>/dev/null; then \
		echo "pytest-xdist found: running tests/ with -n auto"; \
		pytest tests/ -n auto; \
	else \
		echo "pytest-xdist not installed: falling back to serial tests/"; \
		pytest tests/; \
	fi

# Tier-1 suite under pytest-cov, failing below the line-coverage floor.
# Requires pytest-cov (in the dev extras); plain `make test` stays
# dependency-free for environments without it.
coverage:
	pytest tests/ --cov=repro --cov-report=term-missing \
		--cov-fail-under=$(COVERAGE_FLOOR)

# The batched-vs-serial equivalence suite (scheduler + serving-layer
# determinism contracts).
test-equivalence:
	pytest tests/test_scheduler.py tests/test_scheduler_equivalence.py \
		tests/test_golden_trace.py tests/test_concurrency_stress.py \
		tests/test_serve_equivalence.py tests/test_serve_properties.py

# The wave-vs-DAG differential oracle matrix: every scenario through both
# dispatch plans in both modes, the readiness-DAG property suite, the
# planner's eager-selection memo against uncached selection, chaos against
# the DAG scheduler, and the trace-format compatibility checks.
test-differential:
	pytest tests/test_differential_oracle.py tests/test_readiness_properties.py \
		tests/test_eager_selection_memo.py tests/test_chaos_dag.py \
		tests/test_trace_schema_compat.py

# The MQO tier (docs/mqo.md): prefix-sharing/compression property laws,
# cache-pricing and ledger-credit unit suite, the classical prefix-sharing
# comparators, the golden cent-for-cent accounting fixture, and the
# count/compress memos (equal to their oracles, each prompt done once).
test-mqo:
	pytest tests/test_mqo_properties.py tests/test_mqo_tier.py \
		tests/test_prefix_sharing.py tests/test_golden_mqo_accounting.py \
		tests/test_tokenizer.py::TestCountMemo tests/test_text_memo.py

test-output:
	set -o pipefail; pytest tests/ 2>&1 | tee test_output.txt

bench:
	pytest benchmarks/ --benchmark-only -s

bench-output:
	set -o pipefail; pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Re-measure the scheduler, serve, mqo and cluster benchmarks and fail if
# any regressed >20% against its committed baseline (BENCH_scheduler.json /
# BENCH_serve.json / BENCH_mqo.json / BENCH_cluster.json); the serve
# comparison is the direction-aware diff from repro.obs.insight, the mqo
# gate holds a hard 15% paid-token-savings floor, and the cluster gate
# holds hard one-shard-bit-equality / zero-duplicate-call / 1.5x-speedup
# floors.
bench-check:
	PYTHONPATH=src python benchmarks/check_regression.py

report:
	python -m repro.cli report --output reproduction_report.md

# Emit a real instrumented run, validate its trace against the schema and
# render it through `repro trace`.
trace-smoke:
	mkdir -p .smoke
	PYTHONPATH=src python -m repro.cli classify --dataset cora --scale 0.15 \
		--queries 8 --strategy boost --cache --trace .smoke/trace.jsonl \
		--metrics .smoke/metrics.prom
	PYTHONPATH=src python -m repro.obs.schema .smoke/trace.jsonl
	PYTHONPATH=src python -m repro.cli trace .smoke/trace.jsonl

# Chaos smoke: run the combined-incident and checkpoint-crash presets
# end-to-end (fault injection, invariant audit, crash/resume replay
# exactness); the CLI exits non-zero if any chaos check fails.
chaos-smoke:
	PYTHONPATH=src python -m repro.cli chaos --dataset cora --scale 0.15 \
		--queries 60 --requests 18 --preset everything
	PYTHONPATH=src python -m repro.cli chaos --dataset cora --scale 0.15 \
		--queries 60 --requests 18 --preset checkpoint-crash

# Analysis smoke: trace two identical classify runs and one serve run, then
# drive all four `repro analyze` subcommands over them.  Asserts the
# determinism contract (critical-path reports byte-identical across the two
# replays, diff verdict "identical") and that every report is non-empty.
analyze-smoke:
	mkdir -p .smoke
	PYTHONPATH=src python -m repro.cli classify --dataset cora --scale 0.15 \
		--queries 8 --strategy boost --cache --trace .smoke/analyze_a.jsonl
	PYTHONPATH=src python -m repro.cli classify --dataset cora --scale 0.15 \
		--queries 8 --strategy boost --cache --trace .smoke/analyze_b.jsonl
	PYTHONPATH=src python -m repro.cli serve --dataset cora --scale 0.15 \
		--queries 120 --synthetic 24 --trace .smoke/analyze_serve.jsonl
	PYTHONPATH=src python -m repro.cli analyze critical-path \
		.smoke/analyze_a.jsonl > .smoke/analyze_cp_a.txt
	PYTHONPATH=src python -m repro.cli analyze critical-path \
		.smoke/analyze_b.jsonl > .smoke/analyze_cp_b.txt
	cmp .smoke/analyze_cp_a.txt .smoke/analyze_cp_b.txt
	test -s .smoke/analyze_cp_a.txt
	PYTHONPATH=src python -m repro.cli analyze critical-path \
		BENCH_scheduler.json > .smoke/analyze_cp_bench.txt
	test -s .smoke/analyze_cp_bench.txt
	PYTHONPATH=src python -m repro.cli analyze diff \
		.smoke/analyze_a.jsonl .smoke/analyze_b.jsonl --format json \
		> .smoke/analyze_diff.json
	grep -q '"verdict": "identical"' .smoke/analyze_diff.json
	PYTHONPATH=src python -m repro.cli analyze costs \
		.smoke/analyze_serve.jsonl > .smoke/analyze_costs.txt
	test -s .smoke/analyze_costs.txt
	PYTHONPATH=src python -m repro.cli analyze slo \
		.smoke/analyze_serve.jsonl --fail-on-breach > .smoke/analyze_slo.txt
	test -s .smoke/analyze_slo.txt

# Cluster smoke: sweep a 2-shard cora run and audit the cluster contracts —
# one-shard records bit-identical to the unsharded engine, per-worker
# ledgers reconciled token-for-token, the warm shared cache re-issuing zero
# inner LLM calls (cross-worker single-flight proof), and DRR fairness for
# tenants spanning shards.  `repro cluster --verify` exits non-zero if any
# check fails.
cluster-smoke:
	PYTHONPATH=src python -m repro.cli cluster --dataset cora --scale 0.15 \
		--queries 40 --shards 1 2 --verify

# Wall-clock benchmark smoke: one short untraced run of every perfbench
# workload.  Fails unless each run's last stdout line reports
# "correct": true, i.e. the resume replay, record digests and
# serial-equivalence checks all held.
PERFBENCH_WORKLOADS := joint-cora joint-pubmed-dag serve-cora-overload boost-cora-durable

perfbench-smoke:
	mkdir -p .smoke
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$workload"; \
		python3 perfbench/run.py --workload $$workload --seed 0 --seconds 1 --trace 0 \
			> .smoke/perfbench-$$workload.json || exit 1; \
		tail -n 1 .smoke/perfbench-$$workload.json | grep -q '"correct": true' || exit 1; \
	done

# Paper-claim smoke: two of the paper benchmarks at their own scales, with
# their own assertions — Fig. 3 (queries with labeled neighbors gain more
# information than queries without) and Table VI (mean D(t_i) of saturated
# queries below that of non-saturated ones on all five datasets).  About 10 s and 60 s on a
# 2-core VM.
paper-smoke:
	PYTHONPATH=src pytest benchmarks/test_fig3_information_gain.py \
		benchmarks/test_table6_inadequacy.py --benchmark-only -s

# Alternating parent/change pairs of perfbench workloads, e.g.
#   make perfbench-ab PARENT=main WORKLOAD=joint-cora PAIRS=10
#   make perfbench-ab PARENT=main WORKLOAD="serve-cora-overload:10 joint-cora:3"
#   make perfbench-ab PARENT=main WORKLOAD=joint-cora:10 CLAIM=setup_s
# WORKLOAD takes names, NAME:PAIRS, or all (the default).  Prints per
# workload both sides' medians and quartiles, a within-bound / worse /
# unresolved verdict per timed metric against BENCHMARK.json, the win count
# on CLAIM (in the direction BENCHMARK.json calls better) and whether the
# deterministic metrics matched per seed.  Not in CI: ten
# pairs of one workload take about 20 minutes.
PAIRS ?= 10
WORKLOAD ?= all
CLAIM ?= queries_per_s

perfbench-ab:
	python3 benchmarks/ab_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) \
		--claim $(CLAIM)

examples:
	python examples/quickstart.py
	python examples/budget_planner.py
	python examples/link_prediction.py
	python examples/gnn_vs_llm.py
	python examples/strategy_comparison.py
	python examples/products_cost_analysis.py
	python examples/dynamic_nodes.py
	python examples/cross_graph_generalization.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
