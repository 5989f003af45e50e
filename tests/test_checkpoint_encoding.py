"""Checkpoint flushes encode each record once and write the canonical bytes.

:func:`repro.io.runs.save_checkpoint` assembles the v6 document from
per-record fragments cached on the :class:`CheckpointState`.  The oracle
below is the straightforward encoder — ``json.dumps`` over a payload built
with ``dataclasses.asdict`` and fresh checksums — and every flush must
write exactly its bytes, whatever mix of appends, pseudo-labels,
completion stamps and in-place edits of ``state.records`` came before.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import zlib
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io import runs
from repro.io.runs import CheckpointState, RunCheckpointer, load_checkpoint, save_checkpoint
from repro.runtime.results import OUTCOME_TIERS, QueryRecord


def _canonical_crc(value) -> int:
    return zlib.crc32(json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def oracle_payload(state: CheckpointState) -> dict:
    """The full v6 payload, rebuilt afresh for every flush."""
    records = [dataclasses.asdict(r) for r in state.records]
    payload = {
        "format_version": 6,
        "kind": "checkpoint",
        "completed": state.completed,
        "pseudo_labels": {str(node): int(label) for node, label in state.pseudo_labels.items()},
        "records": records,
        "record_crcs": [_canonical_crc(r) for r in records],
    }
    payload["manifest_crc"] = _canonical_crc(
        {
            "completed": payload["completed"],
            "pseudo_labels": payload["pseudo_labels"],
            "record_crcs": payload["record_crcs"],
            "num_records": len(records),
        }
    )
    return payload


def oracle_text(state: CheckpointState) -> str:
    return json.dumps(oracle_payload(state))


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
records = st.builds(
    QueryRecord,
    node=st.just(0),  # replaced by a fresh node id on append
    true_label=st.integers(0, 9),
    predicted_label=st.none() | st.integers(0, 9),
    prompt_tokens=st.integers(0, 10_000),
    completion_tokens=st.integers(0, 500),
    num_neighbors=st.integers(0, 20),
    num_neighbor_labels=st.integers(0, 20),
    num_pseudo_labels=st.integers(0, 20),
    pruned=st.booleans(),
    round_index=st.none() | st.integers(0, 30),
    confidence=st.none() | finite,
    outcome=st.sampled_from(OUTCOME_TIERS),
    latency_seconds=st.none() | finite,
    tier=st.none() | st.text(max_size=12),
    escalations=st.integers(0, 3),
    cost_usd=st.none() | finite,
    compressed=st.booleans(),
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), records),
        st.tuples(st.just("pseudo"), st.integers(0, 10_000), st.integers(0, 9)),
        st.tuples(st.just("complete")),
        st.tuples(st.just("flush")),
        st.tuples(st.just("replace"), st.integers(0, 1_000), records),
        st.tuples(st.just("truncate"), st.integers(0, 1_000)),
    ),
    max_size=25,
)


class FlushAudit:
    """Observer checking every flushed file against the oracle."""

    def __init__(self, path: Path):
        self.path = path
        self.checkpointer: RunCheckpointer | None = None
        self.flushes = 0

    def on_checkpoint_flush(self, num_records: int) -> None:
        assert self.path.read_text() == oracle_text(self.checkpointer.state)
        self.flushes += 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, flush_every=st.integers(1, 4))
def test_every_flush_writes_the_oracle_bytes(ops, flush_every):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ck"
        audit = FlushAudit(path)
        checkpointer = RunCheckpointer(path, flush_every=flush_every, observer=audit)
        audit.checkpointer = checkpointer
        state = checkpointer.state
        next_node = 0
        for op, *args in ops:
            if op == "append":
                checkpointer.append(dataclasses.replace(args[0], node=next_node))
                next_node += 1
            elif op == "pseudo":
                checkpointer.record_pseudo(*args)
            elif op == "complete":
                checkpointer.mark_complete()
            elif op == "flush":
                checkpointer.flush()
            elif op == "replace" and state.records:
                index = args[0] % len(state.records)
                state.records[index] = dataclasses.replace(args[1], node=state.records[index].node)
            elif op == "truncate":
                del state.records[args[0] % (len(state.records) + 1) :]
        checkpointer.flush()
        assert audit.flushes >= 1

        loaded = load_checkpoint(path)
        assert loaded.records == state.records
        assert loaded.pseudo_labels == state.pseudo_labels
        assert loaded.completed == state.completed
        # A loaded state (empty cache) writes the same bytes again.
        save_checkpoint(loaded, Path(tmp) / "again.ck")
        assert (Path(tmp) / "again.ck").read_text() == path.read_text()


def sample_record(node: int) -> QueryRecord:
    return QueryRecord(
        node=node,
        true_label=node % 3,
        predicted_label=(node + 1) % 3,
        prompt_tokens=100 + node,
        completion_tokens=7,
        num_neighbors=2,
        num_neighbor_labels=1,
        num_pseudo_labels=0,
        confidence=0.5,
        tier="ü-tier",
    )


class CountingEncoder:
    """Counts calls of the shared record encoder."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = runs.record_fields

        def counted(record):
            self.calls += 1
            return inner(record)

        monkeypatch.setattr(runs, "record_fields", counted)


class TestFlushWorkIsLinear:
    def test_each_record_is_encoded_once(self, tmp_path, monkeypatch):
        encoder = CountingEncoder(monkeypatch)
        checkpointer = RunCheckpointer(tmp_path / "run.ck", flush_every=1)
        n = 40
        for node in range(n):
            checkpointer.append(sample_record(node))
            checkpointer.record_pseudo(node, node % 3)
        checkpointer.mark_complete()
        assert encoder.calls == n

    def test_replacing_a_record_reencodes_from_there(self, tmp_path, monkeypatch):
        checkpointer = RunCheckpointer(tmp_path / "run.ck", flush_every=1)
        for node in range(10):
            checkpointer.append(sample_record(node))
        encoder = CountingEncoder(monkeypatch)
        records = checkpointer.state.records
        records[7] = dataclasses.replace(records[7], predicted_label=None)
        checkpointer.flush()
        assert encoder.calls == 3
        assert (tmp_path / "run.ck").read_text() == oracle_text(checkpointer.state)

    def test_backup_recovery_encodes_each_record_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ck"
        writer = RunCheckpointer(path, flush_every=1)
        n = 12
        for node in range(n):
            writer.append(sample_record(node))
        path.write_text(path.read_text()[:-40])  # torn main file; .bak is good
        encoder = CountingEncoder(monkeypatch)
        resumed = RunCheckpointer(path, flush_every=1)
        assert resumed.recovered_from_backup
        assert len(resumed.state.records) == n - 1
        assert encoder.calls == n - 1
        resumed.append(sample_record(n - 1))
        assert encoder.calls == n
        assert path.read_text() == oracle_text(resumed.state)

