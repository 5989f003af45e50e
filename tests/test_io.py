"""Tests for graph and run persistence."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.io.atomic import append_line_durable, crc_line, read_crc_line
from repro.io.graphs import load_graph, save_graph
from repro.io.runs import (
    CheckpointState,
    RunCheckpointer,
    load_checkpoint,
    load_run,
    run_to_rows,
    save_checkpoint,
    save_run,
    write_csv,
)
from repro.runtime.results import QueryRecord, RunResult


class TestGraphPersistence:
    def test_roundtrip_exact(self, tiny_graph, tmp_path):
        save_graph(tiny_graph, tmp_path / "g")
        loaded = load_graph(tmp_path / "g")
        assert loaded.name == tiny_graph.name
        assert loaded.class_names == tiny_graph.class_names
        assert np.array_equal(loaded.indptr, tiny_graph.indptr)
        assert np.array_equal(loaded.indices, tiny_graph.indices)
        assert np.array_equal(loaded.labels, tiny_graph.labels)
        assert np.array_equal(loaded.features, tiny_graph.features)
        assert loaded.texts[0] == tiny_graph.texts[0]
        assert loaded.texts[-1] == tiny_graph.texts[-1]

    def test_loaded_graph_is_functional(self, tiny_graph, tmp_path):
        save_graph(tiny_graph, tmp_path / "g")
        loaded = load_graph(tmp_path / "g")
        node = 0
        assert list(loaded.neighbors(node)) == list(tiny_graph.neighbors(node))
        assert loaded.num_edges == tiny_graph.num_edges

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "nowhere")

    def test_version_check(self, tiny_graph, tmp_path):
        import json

        save_graph(tiny_graph, tmp_path / "g")
        meta_path = tmp_path / "g" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="format version"):
            load_graph(tmp_path / "g")


def sample_run() -> RunResult:
    return RunResult(
        [
            QueryRecord(
                node=i,
                true_label=i % 2,
                predicted_label=(i % 2) if i != 3 else None,
                prompt_tokens=100 + i,
                completion_tokens=5,
                num_neighbors=2,
                num_neighbor_labels=1,
                num_pseudo_labels=0,
                pruned=(i == 1),
                round_index=i // 2,
            )
            for i in range(5)
        ]
    )


class TestRunPersistence:
    def test_roundtrip(self, tmp_path):
        original = sample_run()
        save_run(original, tmp_path / "run.json")
        loaded = load_run(tmp_path / "run.json")
        assert loaded.records == original.records
        assert loaded.accuracy == original.accuracy
        assert loaded.total_tokens == original.total_tokens

    def test_none_prediction_survives(self, tmp_path):
        original = sample_run()
        save_run(original, tmp_path / "run.json")
        loaded = load_run(tmp_path / "run.json")
        assert loaded.records[3].predicted_label is None

    def test_version_check(self, tmp_path):
        import json

        save_run(sample_run(), tmp_path / "run.json")
        payload = json.loads((tmp_path / "run.json").read_text())
        payload["format_version"] = 0
        (tmp_path / "run.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_run(tmp_path / "run.json")

    def test_rows_include_derived_fields(self):
        rows = run_to_rows(sample_run())
        assert rows[0]["correct"] is True
        assert rows[0]["total_tokens"] == 105

    def test_csv_export(self, tmp_path):
        path = write_csv(sample_run(), tmp_path / "run.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 records
        assert "node" in lines[0] and "correct" in lines[0]

    def test_version_1_run_files_are_refused(self, tmp_path):
        """Run files older than v6 are outside the compat window."""
        save_run(sample_run(), tmp_path / "run.json")
        payload = json.loads((tmp_path / "run.json").read_text())
        payload["format_version"] = 1
        for record in payload["records"]:
            del record["outcome"]  # the field version 2 introduced
        del payload["record_crcs"], payload["manifest_crc"]  # v5's checksums
        (tmp_path / "run.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version 1"):
            load_run(tmp_path / "run.json")

    def test_outcome_survives_roundtrip(self, tmp_path):
        record = QueryRecord(
            node=0,
            true_label=1,
            predicted_label=None,
            prompt_tokens=0,
            completion_tokens=0,
            num_neighbors=0,
            num_neighbor_labels=0,
            num_pseudo_labels=0,
            outcome="abstained",
        )
        save_run(RunResult([record]), tmp_path / "run.json")
        assert load_run(tmp_path / "run.json").records[0].outcome == "abstained"


class TestCheckpointPersistence:
    def test_roundtrip(self, tmp_path):
        state = CheckpointState(
            records=list(sample_run().records), pseudo_labels={7: 1, 9: 0}, completed=False
        )
        save_checkpoint(state, tmp_path / "ck.json")
        loaded = load_checkpoint(tmp_path / "ck.json")
        assert loaded.records == state.records
        assert loaded.pseudo_labels == {7: 1, 9: 0}  # int keys survive JSON
        assert loaded.completed is False

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        save_checkpoint(CheckpointState(), tmp_path / "ck.json")
        assert list(tmp_path.iterdir()) == [tmp_path / "ck.json"]

    def test_rejects_plain_run_files(self, tmp_path):
        save_run(sample_run(), tmp_path / "run.json")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(tmp_path / "run.json")

    def test_checkpointer_persists_incrementally(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = RunCheckpointer(path)
        records = list(sample_run().records)
        ck.append(records[0])
        ck.record_pseudo(records[0].node, 1)
        ck.append(records[1])
        # Every append flushed (flush_every=1): a fresh reader sees both.
        resumed = RunCheckpointer(path)
        assert resumed.resumed_records == 2
        assert set(resumed.executed) == {records[0].node, records[1].node}
        assert resumed.pseudo_labels == {records[0].node: 1}
        assert resumed.state.completed is False

    def test_duplicate_append_rejected(self, tmp_path):
        ck = RunCheckpointer(tmp_path / "ck.json")
        record = sample_run().records[0]
        ck.append(record)
        with pytest.raises(ValueError, match="already checkpointed"):
            ck.append(record)
        # A resumed checkpointer rejects the nodes it loaded, too.
        with pytest.raises(ValueError, match="already checkpointed"):
            RunCheckpointer(tmp_path / "ck.json").append(record)

    def test_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = RunCheckpointer(path, flush_every=3)
        records = list(sample_run().records)
        ck.append(records[0])
        ck.append(records[1])
        assert not path.exists()  # below the batch threshold
        ck.append(records[2])
        assert RunCheckpointer(path).resumed_records == 3
        ck.append(records[3])
        ck.mark_complete()  # forces the final flush
        resumed = RunCheckpointer(path)
        assert resumed.resumed_records == 4
        assert resumed.state.completed is True

    def test_invalid_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            RunCheckpointer(tmp_path / "ck.json", flush_every=0)


class TestAppendLog:
    def test_append_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "new" / "dir" / "log.jsonl"
        append_line_durable(path, "first")
        append_line_durable(path, "second\n")
        assert path.read_text() == "first\nsecond\n"

    def test_crc_line_layout(self):
        """The envelope carries the canonical entry text its CRC covers."""
        entry = {"kind": "cycle", "b": [1, 2], "a": "ü"}
        canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(canonical.encode("utf-8"))
        line = crc_line(canonical)
        assert line == f'{{"crc":{crc},"entry":{{"a":"\\u00fc","b":[1,2],"kind":"cycle"}}}}'
        assert read_crc_line(line) == entry
        assert read_crc_line(line[:-3]) is None
        assert read_crc_line(line.replace('"b"', '"c"')) is None
        assert read_crc_line("") is None
        for not_an_object in ("[1]", "1", "null", "{"):
            assert read_crc_line(crc_line(not_an_object)) is None
