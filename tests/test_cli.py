"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_experiments(self):
        args = build_parser().parse_args(["experiment", "table4"])
        assert args.name == "table4"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_classify_defaults(self):
        args = build_parser().parse_args(["classify"])
        assert args.dataset == "cora"
        assert args.strategy == "none"
        assert args.tau == 0.2
        assert args.models is None
        assert args.escalate_on == "both"
        assert args.confidence_threshold == 0.6
        assert args.inadequacy_quantile == 0.8

    def test_classify_rejects_unknown_escalation_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "--escalate-on", "sometimes"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "2,449,029" in out

    def test_prices(self, capsys):
        assert main(["prices"]) == 0
        out = capsys.readouterr().out
        assert "gpt-3.5" in out and "$0.00050" in out

    def test_info_small_scale(self, capsys):
        assert main(["info", "cora", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "edge homophily" in out
        assert "cora replica" in out

    def test_classify_quick(self, capsys, tmp_path):
        run_path = tmp_path / "run.json"
        csv_path = tmp_path / "run.csv"
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "30",
                "--strategy", "none",
                "--save-run", str(run_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert run_path.exists() and csv_path.exists()

    def test_classify_joint_quick(self, capsys):
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "30",
                "--strategy", "joint",
            ]
        )
        assert code == 0
        assert "w/ N_i" in capsys.readouterr().out

    def test_classify_routed_cascade(self, capsys, tmp_path):
        run_path = tmp_path / "routed.json"
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "24",
                "--models", "gpt-4o-mini,gpt-3.5",
                "--escalate-on", "confidence",
                "--confidence-threshold", "0.6",
                "--save-run", str(run_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "model=gpt-4o-mini,gpt-3.5" in out
        assert "cascade" in out
        assert "Cascade tiers" in out
        assert "gpt-4o-mini" in out and "gpt-3.5" in out
        assert run_path.exists()

    def test_classify_routed_rejects_failure_injection(self, capsys):
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "8",
                "--models", "gpt-4o-mini,gpt-3.5",
                "--failure-rate", "0.1",
            ]
        )
        assert code == 2
        assert "--models" in capsys.readouterr().err

    def test_classify_traced(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "8",
                "--strategy", "boost",
                "--cache",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache     :" in out and "hit rate" in out
        assert "Token/cost breakdown" in out
        assert "Boosting rounds" in out
        assert trace_path.exists()
        assert "repro_queries_total" in metrics_path.read_text()

        # The emitted file passes validation via the trace subcommand...
        assert main(["trace", str(trace_path)]) == 0
        assert "Token/cost breakdown" in capsys.readouterr().out

        # ...and traced runs stay prediction-identical to untraced ones.
        from repro.obs.tracing import read_trace

        lines = read_trace(trace_path)
        spans = [x for x in lines if x.get("kind") == "span" and x["name"] == "query"]
        assert len(spans) == 8

    def test_classify_metrics_json(self, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "classify",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "8",
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert "repro_queries_total" in snapshot["families"]

    def test_trace_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert main(["trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--synthetic", "10"])
        assert args.tenants == "alpha:2,beta:1,gamma:1"
        assert args.wave_quota == 8
        assert args.dispatch == "simulated"
        assert args.seconds_per_call == 0.5

    def test_requires_exactly_one_stream_source(self, capsys, tmp_path):
        assert main(["serve", "--dataset", "cora", "--scale", "0.15"]) == 2
        stream = tmp_path / "s.jsonl"
        stream.write_text('{"tenant": "alpha", "node": 1}\n')
        assert (
            main(
                [
                    "serve",
                    "--dataset", "cora",
                    "--scale", "0.15",
                    "--requests", str(stream),
                    "--synthetic", "5",
                ]
            )
            == 2
        )
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_bad_tenant_spec(self, capsys):
        code = main(
            [
                "serve",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "10",
                "--synthetic", "5",
                "--tenants", ":2",
            ]
        )
        assert code == 2
        assert "bad --tenants" in capsys.readouterr().err

    def test_serve_synthetic_quick(self, capsys, tmp_path):
        stream_path = tmp_path / "stream.jsonl"
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "serve",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "30",
                "--synthetic", "12",
                "--tenants", "alpha:2:9000,beta:1:-:0.05",
                "--batch-size", "4",
                "--workers", "2",
                "--seconds-per-call", "0.25",
                "--save-requests", str(stream_path),
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tenant serving summary" in out
        assert "goodput" in out
        assert stream_path.exists()
        # The written trace is schema-valid and carries admission events.
        from repro.obs.schema import validate_trace_file

        stats = validate_trace_file(trace_path)
        assert stats["num_spans"] > 0
        from repro.obs.tracing import read_trace

        events = [
            x for x in read_trace(trace_path)
            if x.get("kind") == "span" and x["name"] == "admission"
        ]
        assert len(events) == 12

    def test_serve_replays_saved_stream(self, capsys, tmp_path):
        from repro.runtime.serve import ServeRequest, save_requests

        stream_path = tmp_path / "stream.jsonl"
        save_requests(
            [ServeRequest("alpha", 3), ServeRequest("beta", 5, arrival=1.0)],
            stream_path,
        )
        code = main(
            [
                "serve",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "10",
                "--requests", str(stream_path),
            ]
        )
        assert code == 0
        assert "requests  : 2" in capsys.readouterr().out


class TestAnalyzeCommand:
    @pytest.fixture()
    def traced_run(self, tmp_path):
        """One traced boosted classify run (quiet) for the analyzers."""
        trace_path = tmp_path / "trace.jsonl"
        args = [
            "classify",
            "--dataset", "cora",
            "--scale", "0.15",
            "--queries", "8",
            "--strategy", "boost",
            "--cache",
            "--trace", str(trace_path),
        ]
        assert main(args) == 0
        return trace_path, args

    def test_parser_defaults(self):
        args = build_parser().parse_args(["analyze", "critical-path", "t.jsonl"])
        assert args.concurrency == 4
        assert args.batch_size is None
        assert args.format == "text"
        args = build_parser().parse_args(["analyze", "diff", "a.jsonl", "b.jsonl"])
        assert args.tolerance == 0.1

    def test_requires_analysis_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    @pytest.mark.parametrize(
        "flags", [["--batch-size", "0"], ["--batch-size", "-1"], ["--concurrency", "0"]]
    )
    def test_critical_path_rejects_nonpositive_sizes(self, capsys, flags):
        trace = Path(__file__).parent / "data" / "golden_scheduler_trace.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "critical-path", str(trace), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"argument {flags[0]}: must be >= 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command",
        [["slo", "--windows", "0"], ["costs", "--top", "0"], ["costs", "--top", "-2"]],
    )
    def test_analyze_rejects_nonpositive_sizes(self, capsys, command):
        trace = Path(__file__).parent / "data" / "golden_scheduler_trace.jsonl"
        name, flag, value = command
        with pytest.raises(SystemExit) as exc:
            main(["analyze", name, str(trace), flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert f"argument {flag}: must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    def test_critical_path_reads_a_trace_once(self, capsys, monkeypatch):
        trace = Path(__file__).parent / "data" / "golden_scheduler_trace.jsonl"
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            reads.append(Path(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        assert main(["analyze", "critical-path", str(trace)]) == 0
        assert reads.count(trace) == 1
        assert "Per-wave makespan decomposition" in capsys.readouterr().out

    def test_critical_path_on_trace(self, capsys, traced_run):
        trace_path, _args = traced_run
        capsys.readouterr()
        assert main(["analyze", "critical-path", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-wave makespan decomposition" in out
        assert "Blocking query" in out
        assert "what-if no barrier" in out

    def test_critical_path_detects_bench_artifact(self, capsys, tmp_path):
        import json

        bench = tmp_path / "BENCH_scheduler.json"
        bench.write_text(json.dumps({
            "max_concurrency": 4,
            "max_batch_size": 16,
            "seconds_per_call": 1.0,
            "waves": [{"wave_index": 0, "num_queries": 5, "num_batches": 1,
                       "serial_seconds": 5.0, "overlapped_seconds": 2.0}],
        }))
        assert main(["analyze", "critical-path", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "bench artifact" in out
        assert "n/a (aggregate)" in out

    def test_costs_reports_and_exits_clean(self, capsys, traced_run):
        trace_path, _args = traced_run
        capsys.readouterr()
        assert main(["analyze", "costs", str(trace_path), "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "### Spend by outcome tier" in out

    def test_slo_json_payload(self, capsys, traced_run):
        import json

        trace_path, _args = traced_run
        capsys.readouterr()
        assert main(["analyze", "slo", str(trace_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_met"] is True

    def test_diff_identical_runs_verdict(self, capsys, traced_run, tmp_path):
        import json

        trace_path, args = traced_run
        second = tmp_path / "second.jsonl"
        args = list(args)
        args[args.index(str(trace_path))] = str(second)
        assert main(args) == 0
        capsys.readouterr()
        assert main([
            "analyze", "diff", str(trace_path), str(second), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "identical"
        assert payload["regressions"] == []

    def test_invalid_trace_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span"}\n')
        assert main(["analyze", "costs", str(bad)]) == 1
        assert "INVALID trace" in capsys.readouterr().err
