"""Corrupted-persistence coverage over committed fixtures.

The fixtures under ``tests/data/`` are the three damage shapes the
durability layer must *detect* (never deserialize into garbage) and,
where a good generation survives, *recover* from:

* ``corrupt_checkpoint_truncated.json`` — a checkpoint cut mid-file, the
  shape a crash during a non-atomic write leaves (its header says v5, but
  decoding fails before the version is read);
* ``corrupt_checkpoint_bitflip.json`` — a valid v6 document whose record 1
  was silently altered, so that record's CRC no longer matches;
* ``malformed_requests.jsonl`` — a request stream with one line torn
  mid-write amid valid lines.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.io.runs import (
    CheckpointCorruptionError,
    RunCheckpointer,
    backup_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.serve import load_requests

DATA = Path(__file__).parent / "data"
TRUNCATED = DATA / "corrupt_checkpoint_truncated.json"
BITFLIPPED = DATA / "corrupt_checkpoint_bitflip.json"
MALFORMED_STREAM = DATA / "malformed_requests.jsonl"


class TestCorruptCheckpointDetection:
    def test_truncated_checkpoint_is_detected(self):
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(TRUNCATED)

    def test_bitflipped_checkpoint_is_detected(self):
        # The file is syntactically valid JSON — only the checksums tell.
        assert json.loads(BITFLIPPED.read_text())["format_version"] == 6
        # Records 0 and 2 pass their CRC; record 1 is the altered one.
        with pytest.raises(CheckpointCorruptionError, match="record 1 failed its CRC check"):
            load_checkpoint(BITFLIPPED)

    def test_detection_is_a_value_error(self):
        """Callers catching ValueError catch corruption too."""
        with pytest.raises(ValueError):
            load_checkpoint(TRUNCATED)


class TestCorruptCheckpointRecovery:
    def stage(self, tmp_path: Path, corrupt: Path) -> Path:
        """A run directory whose main checkpoint is corrupt but whose
        ``.bak`` holds a verified-good previous generation."""
        path = tmp_path / "checkpoint.json"
        good = RunCheckpointer(path)
        from repro.runtime.results import QueryRecord

        good.append(
            QueryRecord(
                node=5,
                true_label=1,
                predicted_label=1,
                prompt_tokens=100,
                completion_tokens=8,
                num_neighbors=2,
                num_neighbor_labels=1,
                num_pseudo_labels=0,
            )
        )
        save_checkpoint(good.state, path)  # rotates gen 0 to .bak
        shutil.copy(corrupt, path)
        return path

    @pytest.mark.parametrize("fixture", [TRUNCATED, BITFLIPPED], ids=["truncated", "bitflip"])
    def test_recovers_to_last_good_generation(self, tmp_path, fixture):
        path = self.stage(tmp_path, fixture)
        checkpointer = RunCheckpointer(path)
        assert checkpointer.recovered
        assert checkpointer.resumed_records == 1
        assert checkpointer.state.records[0].node == 5
        # Recovery re-established a loadable main file.
        assert load_checkpoint(path).records == checkpointer.state.records

    @pytest.mark.parametrize("fixture", [TRUNCATED, BITFLIPPED], ids=["truncated", "bitflip"])
    def test_both_generations_corrupt_raises(self, tmp_path, fixture):
        path = tmp_path / "checkpoint.json"
        shutil.copy(fixture, path)
        shutil.copy(fixture, backup_path(path))
        with pytest.raises(CheckpointCorruptionError):
            RunCheckpointer(path)

    def test_missing_main_with_good_backup_recovers(self, tmp_path):
        """The crash-between-renames window: main gone, .bak verified-good."""
        path = self.stage(tmp_path, TRUNCATED)
        path.unlink()
        checkpointer = RunCheckpointer(path)
        assert checkpointer.recovered
        assert checkpointer.resumed_records == 1


class TestMalformedRequestStream:
    def test_raise_mode_names_the_exact_line(self):
        with pytest.raises(ValueError, match=r"malformed_requests\.jsonl:3"):
            load_requests(MALFORMED_STREAM)

    def test_skip_mode_loads_the_valid_remainder(self):
        requests = load_requests(MALFORMED_STREAM, on_error="skip")
        assert [(r.tenant, r.node) for r in requests] == [
            ("alpha", 11),
            ("beta", 42),
            ("beta", 99),
        ]
        assert requests[1].include_neighbors is False
        assert requests[2].arrival == 1.5

    def test_unknown_field_is_malformed(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"tenant": "a", "node": 1, "priority": 9}\n')
        with pytest.raises(ValueError, match="priority"):
            load_requests(path)
        assert load_requests(path, on_error="skip") == []

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"tenant": "a", "node": 1, "arrival": NaN}',
            '{"tenant": "a", "node": 1, "arrival": Infinity}',
            '{"tenant": "a", "node": 3.7}',
            '{"tenant": "a", "node": true}',
            '{"tenant": "a", "node": 1, "include_neighbors": "no"}',
        ],
        ids=["nan-arrival", "inf-arrival", "float-node", "bool-node", "string-flag"],
    )
    def test_out_of_domain_value_is_malformed(self, tmp_path, bad_line):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"tenant": "a", "node": 2, "arrival": 0.5}\n' + bad_line + "\n")
        with pytest.raises(ValueError, match=r"stream\.jsonl:2"):
            load_requests(path)
        assert [(r.node, r.arrival) for r in load_requests(path, on_error="skip")] == [
            (2, 0.5)
        ]

    def test_bad_on_error_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            load_requests(MALFORMED_STREAM, on_error="ignore")
