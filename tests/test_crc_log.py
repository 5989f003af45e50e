"""The one torn-tail rule of the append-only CRC logs.

The serve journal and the checkpoint's delta log are both read by
:func:`repro.io.atomic.read_crc_log`: the entries of the leading run of
valid lines, and the offset where that verified prefix ends.  These tests
pin the reader's contract on arbitrary logs (hypothesis), then drive the
journal through :meth:`ServingLayer.replay` across every tear a crash can
leave in its last line — including the one that loses only the newline —
and check that a header line written whole but failing its CRC (a bit
flip, or a format v1 journal) is refused and left as it is.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.io.atomic import canonical_json, crc_line, read_crc_line, read_crc_log
from repro.runtime.serve import JournalError, ServeJournal

from tests.equivalence import ServeScenario, run_serve_scenario

ENTRIES = st.lists(
    st.dictionaries(
        st.text(max_size=6),
        st.integers(-(10**6), 10**6)
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8),
        max_size=4,
    ),
    min_size=1,
    max_size=6,
)

V1_JOURNAL = Path(__file__).parent / "data" / "serve_journal_v1.jsonl"


def encode(entries: list[dict]) -> bytes:
    return "".join(crc_line(canonical_json(entry)) + "\n" for entry in entries).encode("utf-8")


def line_starts(data: bytes) -> list[int]:
    """Offset of every line's first byte, plus the end of the log."""
    starts = [0]
    for index, byte in enumerate(data):
        if byte == ord("\n"):
            starts.append(index + 1)
    return starts


class TestReader:
    @settings(max_examples=80, deadline=None)
    @given(entries=ENTRIES, data=st.data())
    def test_any_byte_prefix_yields_a_prefix_of_the_entries(self, entries, data):
        log = encode(entries)
        cut = data.draw(st.integers(0, len(log)), label="cut")
        starts = line_starts(log)
        # Lines wholly inside the cut; a line cut just before its newline
        # was written whole and counts too.
        whole = sum(1 for start in starts[1:] if start - 1 <= cut)
        found, end = read_crc_log(log[:cut].decode("utf-8", errors="replace"))
        assert found == entries[:whole]
        assert end == min(starts[whole], cut)

    @settings(max_examples=80, deadline=None)
    @given(entries=ENTRIES, data=st.data())
    def test_a_bit_flip_in_line_k_yields_entries_before_k(self, entries, data):
        log = bytearray(encode(entries))
        starts = line_starts(bytes(log))
        k = data.draw(st.integers(0, len(entries) - 1), label="line")
        # A byte of the line itself, not its newline.
        position = data.draw(st.integers(starts[k], starts[k + 1] - 2), label="byte")
        log[position] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        found, end = read_crc_log(bytes(log).decode("utf-8", errors="replace"))
        assert found == entries[:k]
        assert end == starts[k]

    @settings(max_examples=200, deadline=None)
    @given(text=st.text() | st.text().map(crc_line))
    def test_any_text_reads_without_raising(self, text):
        """Malformed input, CRC-valid envelopes around non-JSON or non-object
        entries included, is ``None`` or an empty log, never an exception."""
        entry = read_crc_line(text)
        assert entry is None or isinstance(entry, dict)
        entries, end = read_crc_log(text + "\n" + text)
        assert all(isinstance(e, dict) for e in entries)
        assert 0 <= end <= 2 * len(text) + 1

    def test_a_blank_line_ends_the_verified_prefix(self):
        first, second = crc_line('{"a":1}'), crc_line('{"b":2}')
        text = f"{first}\n\n{second}\n"
        assert read_crc_log(text) == ([{"a": 1}], len(first) + 1)
        assert read_crc_log("") == ([], 0)


# ------------------------------------------------------------ serve journal

SCENARIO = ServeScenario(num_requests=14, arrival_window=4.0)


def serve(tiny_tag, tiny_split, tiny_builder, path: Path):
    return run_serve_scenario(SCENARIO, tiny_tag, tiny_split, tiny_builder, journal_path=path)


def lost_usage(cycle: dict) -> tuple[int, int, int]:
    """The base-model usage a cycle's records paid: calls, prompt, completion."""
    paid = [
        o["record"]
        for o in cycle["outcomes"]
        if o["record"] is not None and o["record"]["prompt_tokens"] > 0
    ]
    return (
        len(paid),
        sum(r["prompt_tokens"] for r in paid),
        sum(r["completion_tokens"] for r in paid),
    )


class TestJournalTornTail:
    def test_newline_only_tear_keeps_every_committed_cycle(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        """A crash that cuts only a line's newline must not lose later cycles.

        Resuming appends the next cycle; unless the log is newline-terminated
        first, that cycle glues onto the torn line and the next load drops
        both — and the second resume pays for them again.
        """
        path = tmp_path / "journal.jsonl"
        live = serve(tiny_tag, tiny_split, tiny_builder, path)
        keep = 2
        ServeJournal(path).truncate(keep)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        assert len(ServeJournal(path).cycles) == keep, "the unterminated line holds"
        assert path.read_bytes() == data, "and its newline is restored"

        first = serve(tiny_tag, tiny_split, tiny_builder, path)
        assert first.outcomes == live.outcomes
        assert 0 < first.usage[0] < live.usage[0]
        assert len(ServeJournal(path).cycles) == live.cycles

        second = serve(tiny_tag, tiny_split, tiny_builder, path)
        assert second.usage[0] == 0, "every journaled cycle replays from disk"
        assert second.outcomes == live.outcomes
        assert second.book == live.book

    def test_truncation_anywhere_in_the_last_cycle_line(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        """A cut inside the last line loses exactly that cycle, never more."""
        path = tmp_path / "journal.jsonl"
        live = serve(tiny_tag, tiny_split, tiny_builder, path)
        journal = ServeJournal(path)
        cycles = journal.cycles
        lost = lost_usage(cycles[-1])
        assert lost[0] > 0, "the last cycle paid for LLM calls"
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        assert start > 0

        for cut in range(start + 1, len(data) - 1):
            path.write_bytes(data[:cut])
            assert ServeJournal(path).cycles == cycles[:-1], cut
            assert path.read_bytes() == data[:start], cut

        path.write_bytes(data[:-1])  # only the newline lost: the line holds
        assert ServeJournal(path).cycles == cycles
        assert path.read_bytes() == data

        # Every cut inside the line left the same file: one resume covers them all.
        path.write_bytes(data[:start])
        resumed = serve(tiny_tag, tiny_split, tiny_builder, path)
        assert resumed.usage == lost, "exactly the lost cycle's calls"
        assert resumed.outcomes == live.outcomes
        assert resumed.book == live.book
        assert path.read_bytes() == data, "the resumed run re-journals the lost cycle"

    def test_a_torn_header_leaves_an_empty_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"crc":1,"ent')
        journal = ServeJournal(path)
        assert journal.header is None and journal.cycles == []
        assert path.read_bytes() == b""


class TestJournalHeader:
    def test_a_bit_flip_in_the_header_is_refused_and_left_alone(
        self, tiny_tag, tiny_split, tiny_builder, tmp_path
    ):
        """Truncating the journal would re-pay every committed cycle on resume."""
        path = tmp_path / "journal.jsonl"
        serve(tiny_tag, tiny_split, tiny_builder, path)
        assert ServeJournal(path).cycles
        data = path.read_bytes()
        header_end = data.index(b"\n") + 1
        for position in range(header_end):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[position] ^= 1 << bit
                path.write_bytes(flipped)
                with pytest.raises(JournalError, match="header line fails its CRC"):
                    ServeJournal(path)
                assert path.read_bytes() == flipped, (position, bit)

    def test_a_crc_valid_header_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(crc_line("[1]") + "\n")
        with pytest.raises(JournalError):
            ServeJournal(path)
        assert path.read_text() == crc_line("[1]") + "\n"

    def test_a_v1_journal_is_refused_and_left_alone(self, tmp_path):
        """``serve_journal_v1.jsonl`` was written by the format v1 writer
        (entries in insertion order, CRC over a canonical re-encode)."""
        path = tmp_path / "journal.jsonl"
        path.write_bytes(V1_JOURNAL.read_bytes())
        assert b'"format_version":1' in path.read_bytes()
        with pytest.raises(JournalError, match="v1 journal"):
            ServeJournal(path)
        assert path.read_bytes() == V1_JOURNAL.read_bytes()

    def test_serve_refuses_a_v1_journal(self, capsys, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(V1_JOURNAL.read_bytes())
        code = main(
            [
                "serve",
                "--dataset", "cora",
                "--scale", "0.15",
                "--queries", "10",
                "--synthetic", "3",
                "--journal", str(path),
            ]
        )
        assert code != 0
        assert "bad --journal" in capsys.readouterr().err
        assert path.read_bytes() == V1_JOURNAL.read_bytes()
