"""The compat window: v6 checkpoints load and resume, older ones are refused.

``tests/data/checkpoint_v6.json`` is a committed mid-run snapshot in the
format one version back from the current writer's (v6: one JSON document,
no delta log) over the tiny fixture graph (generator seed 42, split seed 3,
first 6 queries, 1-hop, gpt-3.5 seed 5).  The current reader must load it
and resume the run without re-issuing the 6 completed LLM calls.  It was
converted once from the format-2 fixture of the same run (the v3–v6 fields
at their defaults, plus the v5 checksums), not written by the current
writer — a rewrite under the *current* format would defeat the test.

``tests/data/checkpoint_v7_log.ck`` is a mid-run v7 log (a snapshot line
and four delta lines, non-ASCII ``tier`` strings included) written by the
v7 writer whose reader re-encoded each entry to check its CRC.  Its delta
lines were already canonical, so the byte-exact reader loads it as that
reader did, and the current writer still produces it byte for byte.

Formats older than v6 are refused with ``ValueError``: a
:class:`RunCheckpointer` must leave such a file exactly as it found it.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.io.runs import (
    _FORMAT_VERSION,
    RunCheckpointer,
    backup_path,
    load_checkpoint,
)
from repro.runtime.results import QueryRecord

FIXTURE = Path(__file__).parent / "data" / "checkpoint_v6.json"
V7_LOG = Path(__file__).parent / "data" / "checkpoint_v7_log.ck"


def v7_record(node: int) -> QueryRecord:
    """The records of ``checkpoint_v7_log.ck``, in the order they were appended."""
    return QueryRecord(
        node=node,
        true_label=node % 3,
        predicted_label=(node + 1) % 3,
        prompt_tokens=120 + node,
        completion_tokens=6,
        num_neighbors=3,
        num_neighbor_labels=node % 2,
        num_pseudo_labels=node,
        round_index=node // 2,
        confidence=0.25 * (node % 4),
        latency_seconds=1.5 + node,
        tier="gpt-3.5" if node % 2 else "ü-tier",
        cost_usd=0.001 * (node + 1),
    )


def write_v7_log(path: Path) -> RunCheckpointer:
    """Replay the run that wrote ``checkpoint_v7_log.ck``, stopping mid-run."""
    checkpointer = RunCheckpointer(path, flush_every=1)
    for node in range(5):
        checkpointer.record_pseudo(node + 40, node % 3)
        checkpointer.append(v7_record(node))
    return checkpointer


def test_fixture_really_is_v6():
    payload = json.loads(FIXTURE.read_text())
    assert payload["format_version"] == 6
    assert not payload["completed"]
    assert len(payload["records"]) == len(payload["record_crcs"]) == 6
    assert "manifest_crc" in payload
    assert all(r["compressed"] is False for r in payload["records"])


def test_v6_checkpoint_loads():
    state = load_checkpoint(FIXTURE)
    assert len(state.records) == 6
    assert not state.completed
    assert state.torn_tail is None
    for record in state.records:
        assert record.latency_seconds is None
        assert record.tier is None
        assert record.escalations == 0
        assert record.cost_usd is None
        assert record.outcome == "ok"
        assert not record.compressed


def test_v6_checkpoint_resumes_under_current_writer(make_tiny_engine, tiny_split, tmp_path):
    # Work on a copy: resuming rewrites the file in the current format.
    path = tmp_path / "ckpt.json"
    shutil.copy(FIXTURE, path)

    checkpointer = RunCheckpointer(path)
    assert checkpointer.resumed_records == 6
    assert not checkpointer.recovered

    engine = make_tiny_engine()
    result = engine.run(tiny_split.queries[:12], checkpointer=checkpointer)
    assert result.num_queries == 12

    # The 6 checkpointed queries replayed: only 6 fresh LLM calls were paid.
    assert engine.llm.usage.num_queries == 6

    # The rewritten file is a completed current-format checkpoint carrying
    # the union of replayed and fresh records.
    rewritten = json.loads(path.read_text())
    assert rewritten["format_version"] == _FORMAT_VERSION
    assert rewritten["completed"]
    assert len(rewritten["records"]) == 12


def old_document(version: int) -> dict:
    """The v6 fixture relabelled as an older format version."""
    payload = json.loads(FIXTURE.read_text())
    payload["format_version"] = version
    if version < 5:  # checksums arrived in v5
        del payload["record_crcs"], payload["manifest_crc"]
    return payload


@pytest.mark.parametrize("version", [5, 1])
def test_older_checkpoint_is_refused(tmp_path, version):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(old_document(version)))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(path)
    with pytest.raises(ValueError, match="format version"):
        RunCheckpointer(path)
    # Refused outright: neither recovered from a backup nor rewritten.
    assert path.read_bytes() == before
    assert not backup_path(path).exists()


def test_v7_log_fixture_loads_every_delta_line():
    assert len(V7_LOG.read_text().splitlines()) == 5, "a snapshot and four delta lines"
    assert "\\u00fc-tier" in V7_LOG.read_text()
    state = load_checkpoint(V7_LOG)
    assert state.torn_tail is None
    assert not state.completed
    assert state.records == [v7_record(node) for node in range(5)]
    assert list(state.pseudo_labels.items()) == [(node + 40, node % 3) for node in range(5)]


def test_v7_log_fixture_is_what_the_writer_writes(tmp_path):
    path = tmp_path / "run.ck"
    write_v7_log(path)
    assert path.read_bytes() == V7_LOG.read_bytes()


def test_v7_log_fixture_resumes_without_recovery(tmp_path):
    path = tmp_path / "run.ck"
    shutil.copy(V7_LOG, path)
    checkpointer = RunCheckpointer(path)
    assert checkpointer.resumed_records == 5
    assert not checkpointer.recovered
    checkpointer.append(v7_record(5))
    assert load_checkpoint(path).records == [v7_record(node) for node in range(6)]
