"""Checkpoint flushes encode each record once and persist exactly the state.

A v7 checkpoint is a snapshot line plus one delta line per flush, both
assembled from per-record fragments cached on the :class:`CheckpointState`.
The oracle below is the straightforward snapshot encoder — ``json.dumps``
over a payload built with ``dataclasses.asdict`` and fresh checksums.  After
every flush the file loads as the state of that moment, whatever mix of
appends, pseudo-labels, completion stamps and in-place edits of
``state.records`` came before; every compaction (``mark_complete``, a
recovery, a flush after an in-place edit) writes exactly the oracle bytes.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.boosting import QueryBoostingStrategy
from repro.io import runs
from repro.io.atomic import canonical_json, crc_line, read_crc_line
from repro.io.runs import CheckpointState, RunCheckpointer, load_checkpoint, save_checkpoint
from repro.llm.simulated import SimulatedLLM
from repro.runtime.results import OUTCOME_TIERS, QueryRecord
from tests.test_checkpoint import Interrupted, InterruptingLLM


def _canonical_crc(value) -> int:
    return zlib.crc32(json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def oracle_payload(state: CheckpointState) -> dict:
    """The full snapshot payload, rebuilt afresh for every flush."""
    records = [dataclasses.asdict(r) for r in state.records]
    payload = {
        "format_version": 7,
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


def persisted(state: CheckpointState) -> tuple:
    """What a checkpoint must hold of ``state``, pseudo-label order included."""
    return list(state.records), list(state.pseudo_labels.items()), state.completed


class FlushAudit:
    """Observer checking that every flushed file loads as the live state."""

    def __init__(self, path: Path):
        self.path = path
        self.checkpointer: RunCheckpointer | None = None
        self.flushes = 0

    def on_checkpoint_flush(self, num_records: int) -> None:
        loaded = load_checkpoint(self.path)
        assert loaded.torn_tail is None
        assert persisted(loaded) == persisted(self.checkpointer.state)
        self.flushes += 1


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations, flush_every=st.integers(1, 4))
def test_every_flush_loads_as_the_flushed_state(ops, flush_every):
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
                assert path.read_text() == oracle_text(state)
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
        assert persisted(loaded) == persisted(state)
        # A loaded state (empty cache) compacts to the oracle bytes.
        save_checkpoint(loaded, Path(tmp) / "again.ck")
        assert (Path(tmp) / "again.ck").read_text() == oracle_text(state)


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

    def test_recovery_encodes_each_record_once(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ck"
        writer = RunCheckpointer(path, flush_every=1)
        n = 12
        for node in range(n):
            writer.append(sample_record(node))
        path.write_text(path.read_text()[:-40])  # torn last delta line
        encoder = CountingEncoder(monkeypatch)
        resumed = RunCheckpointer(path, flush_every=1)
        assert resumed.recovered
        assert len(resumed.state.records) == n - 1
        assert encoder.calls == n - 1
        assert path.read_text() == oracle_text(resumed.state)
        resumed.append(sample_record(n - 1))
        assert encoder.calls == n
        assert persisted(load_checkpoint(path)) == persisted(resumed.state)



class CountingWrites:
    """Counts whole-file checkpoint writes (compactions)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = runs.atomic_write_text

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(runs, "atomic_write_text", counted)


def delta_lines(path: Path) -> list[str]:
    """The delta lines after a checkpoint's snapshot line."""
    return path.read_text().split("\n")[1:-1]


class TestAppendOnlyLog:
    def test_n_appends_cost_two_whole_file_writes(self, tmp_path, monkeypatch):
        writes = CountingWrites(monkeypatch)
        path = tmp_path / "run.ck"
        checkpointer = RunCheckpointer(path, flush_every=1)
        n = 15
        for node in range(n):
            before = path.read_text() if path.exists() else None
            checkpointer.append(sample_record(node))
            checkpointer.record_pseudo(node, node % 3)
            after = path.read_text()
            if before is not None:
                # One more line, everything before it untouched.
                assert after.startswith(before)
                assert after[len(before) :].strip("\n").count("\n") == 0
            assert len(delta_lines(path)) == node
        assert writes.calls == 1
        checkpointer.mark_complete()
        assert writes.calls == 2
        assert path.read_text() == oracle_text(checkpointer.state)

    def test_delta_lines_use_the_shared_envelope(self, tmp_path):
        path = tmp_path / "run.ck"
        checkpointer = RunCheckpointer(path, flush_every=2)
        for node in range(5):
            checkpointer.append(sample_record(node))
            checkpointer.record_pseudo(node + 100, node % 3)
        checkpointer.flush()
        lines = delta_lines(path)
        assert len(lines) == 2
        for line in lines:
            entry = read_crc_line(line)
            assert entry is not None and entry["kind"] == "delta"
            # Assembled from cached fragments, equal to encoding it afresh.
            assert line == crc_line(canonical_json(entry))
        last = read_crc_line(lines[-1])
        assert last["num_records"] == 5
        assert last["records"] == [runs.record_fields(sample_record(4))]
        assert last["pseudo_labels"] == [[103, 0], [104, 1]]

    def test_every_bit_flip_in_a_delta_line_is_detected(self, tmp_path):
        """The CRC covers the line's bytes, so no flip decodes to the same entry.

        The record's ``tier`` is ``ü-tier``, written as the escape ``\\u00fc``;
        JSON hex escapes ignore case, so a reader that re-encoded the decoded
        entry would miss the flips that turn ``f`` into ``F``.
        """
        path = tmp_path / "run.ck"
        checkpointer = RunCheckpointer(path, flush_every=1)
        for node in range(2):
            checkpointer.append(sample_record(node))
        line = delta_lines(path)[0].encode("ascii")
        assert b"\\u00fc" in line and read_crc_line(line.decode()) is not None
        for position in range(len(line)):
            for bit in range(8):
                flipped = bytearray(line)
                flipped[position] ^= 1 << bit
                text = flipped.decode("utf-8", errors="replace")
                assert read_crc_line(text) is None, (position, bit)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bit_flip_in_a_delta_line_drops_it_and_the_rest(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ck"
            checkpointer = RunCheckpointer(path, flush_every=1)
            n = 6
            states = []
            for node in range(n):
                checkpointer.record_pseudo(node + 50, node % 3)
                checkpointer.append(sample_record(node))
                states.append(persisted(checkpointer.state))
            raw = bytearray(path.read_bytes())
            lines = raw.split(b"\n")
            bad = data.draw(st.integers(1, n - 1), label="delta line")
            offset = sum(len(line) + 1 for line in lines[:bad])
            position = offset + data.draw(st.integers(0, len(lines[bad]) - 1), label="byte")
            raw[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            path.write_bytes(bytes(raw))

            loaded = load_checkpoint(path)
            assert persisted(loaded) == states[bad - 1]
            assert f"delta line {bad} of" in loaded.torn_tail
            resumed = RunCheckpointer(path)
            assert resumed.recovered
            assert persisted(resumed.state) == states[bad - 1]
            assert path.read_text() == oracle_text(resumed.state)

    def test_a_delta_line_out_of_sequence_is_dropped(self, tmp_path):
        """A CRC-valid line that does not extend the state (a replayed or
        stale line) fails its record count and starts the torn tail."""
        path = tmp_path / "run.ck"
        checkpointer = RunCheckpointer(path, flush_every=1)
        for node in range(4):
            checkpointer.append(sample_record(node))
        state = persisted(checkpointer.state)
        stale = delta_lines(path)[0]
        with open(path, "a") as handle:
            handle.write(stale + "\n")
        loaded = load_checkpoint(path)
        assert persisted(loaded) == state
        assert "delta line 4 of 4" in loaded.torn_tail

    def test_log_in_a_new_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "run.ck"
        checkpointer = RunCheckpointer(path)
        for node in range(3):
            checkpointer.append(sample_record(node))
        assert RunCheckpointer(path).resumed_records == 3


class TestTornTail:
    def test_truncation_anywhere_in_the_last_delta_line(
        self, make_tiny_engine, tiny_split, tiny_tag, tmp_path
    ):
        """A crash mid-append loses exactly the torn flush, never more.

        Cut the log at every byte offset inside its last delta line: every
        cut recovers the previous flush's state and compacts it to the same
        bytes, and resuming from it re-issues only the lost query.
        """
        nodes = [int(v) for v in tiny_split.queries[:8]]
        baseline = QueryBoostingStrategy().execute(make_tiny_engine(), nodes)

        path = tmp_path / "run.ck"
        k = 5
        crashing = InterruptingLLM(SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5), k)
        with pytest.raises(Interrupted):
            QueryBoostingStrategy().execute(
                make_tiny_engine(llm=crashing), nodes, checkpointer=RunCheckpointer(path)
            )
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        assert start > 0 and len(delta_lines(path)) == k - 1
        path.write_bytes(data[:start])
        previous = persisted(load_checkpoint(path))
        assert len(previous[0]) == k - 1
        path.write_bytes(data[:-1])  # only the newline lost: the line holds
        assert len(load_checkpoint(path).records) == k

        compacted = None
        for cut in range(start + 1, len(data) - 1):
            path.write_bytes(data[:cut])
            checkpointer = RunCheckpointer(path)
            assert checkpointer.recovered, cut
            assert persisted(checkpointer.state) == previous, cut
            compacted = compacted or path.read_bytes()
            assert path.read_bytes() == compacted, cut

        # Every cut left the same file, so one resume covers them all.
        resumed_llm = SimulatedLLM(tiny_tag.vocabulary, name="gpt-3.5", seed=5)
        checkpointer = RunCheckpointer(path)
        resumed = QueryBoostingStrategy().execute(
            make_tiny_engine(llm=resumed_llm), nodes, checkpointer=checkpointer
        )
        assert resumed_llm.usage.num_queries == len(nodes) - (k - 1), "zero duplicate calls"
        assert resumed.run.records == baseline.run.records
