"""Serialization of run results (JSON), tabular export (CSV), checkpoints.

Runs are the unit of comparison in every experiment; persisting them lets a
costly 1,000-query execution be analyzed repeatedly (breakdowns, paired
comparisons, cost extrapolation) without re-spending tokens.

Checkpoints extend the same idea to *interrupted* runs: the executed records
plus the published pseudo-label state persist incrementally, and a resumed
run replays them without re-issuing a single LLM call.  A checkpoint (format
v7) is an append-only log at one path, crash-safe end to end:

* its first line is a **snapshot**: the whole state as one JSON document
  with a CRC32 per record plus a manifest checksum, so silent corruption
  (bit rot, truncation by a non-atomic writer) is *detected* at load as
  :class:`CheckpointCorruptionError` rather than deserialized into garbage;
* each later flush appends one **delta** line — the records and
  pseudo-labels new since the previous flush, the completion flag and the
  running record count — in the CRC envelope the serve journal uses
  (:func:`repro.io.atomic.crc_line`), with a single fsync;
* a **compaction** rewrites the log as one snapshot through
  :func:`repro.io.atomic.atomic_write_text` (tmp + fsync + rename +
  directory fsync) and rotates the previous file to a ``.bak`` sibling.
  The first flush, :meth:`RunCheckpointer.mark_complete`, recovery and any
  flush after an in-place edit of ``state.records`` compact, so a finished
  checkpoint is one JSON document;
* at load, the delta lines are read by the serve journal's reader too
  (:func:`repro.io.atomic.read_crc_log`); the first that fails its CRC or
  record count marks a torn tail: it and every later line are dropped,
  and :class:`RunCheckpointer` re-establishes the verified prefix by
  compaction.  A corrupt or missing snapshot falls back to ``.bak``.

Readers accept v7 and v6 (one document, no log); an older file raises
``ValueError``, which :class:`RunCheckpointer` does not recover from.

Every record's JSON fragments and CRC are computed once and cached on its
:class:`CheckpointState`; snapshots and delta lines are assembled from
them, so a flush costs the records new since the previous one plus one
fsync, whatever the length of the run.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.io.atomic import (
    append_line_durable,
    atomic_write_text,
    canonical_crc,
    canonical_json,
    crc_line,
    read_crc_log,
)
from repro.runtime.results import QueryRecord, RunResult

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.obs.hooks import RunObserver

# Version 6 is one JSON document carrying every ``QueryRecord`` field,
# ``record_crcs`` (CRC32 per record) and ``manifest_crc`` (CRC32 over the
# completion flag, pseudo-labels and the record CRC list).  Version 7 made
# a checkpoint an append-only log: a version-7 snapshot document, then one
# CRC-enveloped delta line per flush.  Its snapshot is the version-6
# document with the new number; run files changed only the number.
_FORMAT_VERSION = 7
_SUPPORTED_VERSIONS = (6, 7)
_JSON = json.JSONDecoder()


class CheckpointCorruptionError(ValueError):
    """A persisted run/checkpoint failed integrity verification.

    Raised for non-JSON (truncated) files, checksum mismatches, and record
    payloads that no longer deserialize.  Subclasses :class:`ValueError`,
    which an unsupported format version raises too; :class:`RunCheckpointer`
    catches only this subclass, to recover from the ``.bak`` generation.
    """


_RECORD_FIELDS = tuple(f.name for f in fields(QueryRecord))


def record_fields(record: QueryRecord) -> dict:
    """``record``'s fields by name, in declaration order (its JSON payload).

    Equal to ``dataclasses.asdict(record)`` without the deep copy:
    :class:`QueryRecord` holds only scalars.
    """
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def _manifest_crc(completed, pseudo_labels, record_crcs, num_records: int) -> int:
    """Checksum binding the record CRCs to the rest of the state."""
    return canonical_crc(
        {
            "completed": completed,
            "pseudo_labels": pseudo_labels,
            "record_crcs": record_crcs,
            "num_records": num_records,
        }
    )


def _verify_payload(payload: dict, path: Path) -> None:
    """Check a payload's checksums; raise on any mismatch."""
    records = payload.get("records", [])
    crcs = payload.get("record_crcs")
    if crcs is None or len(crcs) != len(records):
        raise CheckpointCorruptionError(
            f"{path}: record CRC list missing or wrong length "
            f"({None if crcs is None else len(crcs)} CRCs for {len(records)} records)"
        )
    for index, (record, expected) in enumerate(zip(records, crcs)):
        actual = canonical_crc(record)
        if actual != expected:
            raise CheckpointCorruptionError(
                f"{path}: record {index} failed its CRC check "
                f"(stored {expected}, computed {actual}) — corrupted on disk"
            )
    expected = payload.get("manifest_crc")
    actual = _manifest_crc(
        payload.get("completed"), payload.get("pseudo_labels"), crcs, len(records)
    )
    if expected != actual:
        raise CheckpointCorruptionError(
            f"{path}: manifest checksum mismatch (stored {expected}, "
            f"computed {actual}) — state and records disagree"
        )


def _load_payload(path: Path, kind: str) -> tuple[dict, str]:
    """Read, version-check and integrity-verify one persisted JSON document.

    Returns the payload and the text after it: a v7 checkpoint keeps its
    delta lines there, and every other file must end with the document.
    """
    # Undecodable bytes become U+FFFD, which the writers never emit (their
    # JSON is ASCII): in the document that is corruption, in a delta line
    # the CRC check catches it.
    text = path.read_bytes().decode("utf-8", errors="replace")
    start = len(text) - len(text.lstrip())
    try:
        payload, end = _JSON.raw_decode(text, start)
    except json.JSONDecodeError as error:
        raise CheckpointCorruptionError(
            f"{path}: truncated or non-JSON {kind} file: {error}"
        ) from error
    if "\ufffd" in text[start:end]:
        raise CheckpointCorruptionError(f"{path}: not a text file")
    if not isinstance(payload, dict):
        raise CheckpointCorruptionError(f"{path}: {kind} payload is not an object")
    version = payload.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported {kind} format version {version!r}")
    rest = text[end:]
    if rest.strip() and (version < 7 or kind != "checkpoint"):
        raise CheckpointCorruptionError(f"{path}: trailing data after the {kind} document")
    _verify_payload(payload, path)
    return payload, rest


def _decode_records(payload: dict, path: Path) -> list[QueryRecord]:
    try:
        return [QueryRecord(**record) for record in payload["records"]]
    except (TypeError, ValueError, KeyError) as error:
        raise CheckpointCorruptionError(
            f"{path}: record payload no longer deserializes: {error}"
        ) from error


def save_run(result: RunResult, path: str | Path) -> Path:
    """Write ``result`` as checksummed JSON at ``path`` (atomic + durable)."""
    records = [record_fields(r) for r in result.records]
    crcs = [canonical_crc(r) for r in records]
    payload = {
        "format_version": _FORMAT_VERSION,
        "records": records,
        "record_crcs": crcs,
        "manifest_crc": _manifest_crc(None, None, crcs, len(records)),
    }
    return atomic_write_text(path, json.dumps(payload))


def load_run(path: str | Path) -> RunResult:
    """Load a run previously written by :func:`save_run`.

    Raises :class:`CheckpointCorruptionError` when the file is truncated or
    fails its checksums, and ``ValueError`` for a format older than v6.
    """
    path = Path(path)
    payload, _ = _load_payload(path, "run")
    return RunResult(_decode_records(payload, path))


def run_to_rows(result: RunResult) -> list[dict[str, object]]:
    """Flatten a run into per-query dict rows (for dataframes/CSV)."""
    rows = []
    for record in result.records:
        row = record_fields(record)
        row["correct"] = record.correct
        row["total_tokens"] = record.total_tokens
        rows.append(row)
    return rows


def write_csv(result: RunResult, path: str | Path) -> Path:
    """Export a run's per-query records as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [f.name for f in fields(QueryRecord)] + ["correct", "total_tokens"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in run_to_rows(result):
            writer.writerow(row)
    return path


# --------------------------------------------------------------- checkpoints


@dataclass
class _EncodedRecords:
    """Each checkpointed record's JSON fragments and CRC, encoded once.

    ``fragments`` hold the snapshot form (``json.dumps`` of the payload),
    ``canonical`` the canonical form the record CRC covers and delta lines
    embed.  ``records`` holds the records the cache was built from;
    :meth:`sync` keeps the longest prefix still identical (``is``) to the
    state's list, so replacing or truncating ``CheckpointState.records``
    re-encodes only from the first changed position.
    """

    records: list[QueryRecord] = field(default_factory=list)
    fragments: list[str] = field(default_factory=list)
    canonical: list[str] = field(default_factory=list)
    crcs: list[int] = field(default_factory=list)

    def sync(self, records: list[QueryRecord]) -> int:
        """Encode ``records`` past the cached prefix; return that prefix's length."""
        keep = 0
        for cached, record in zip(self.records, records):
            if cached is not record:
                break
            keep += 1
        del self.records[keep:], self.fragments[keep:], self.canonical[keep:], self.crcs[keep:]
        for record in records[keep:]:
            payload = record_fields(record)
            canonical = canonical_json(payload)
            self.records.append(record)
            self.fragments.append(json.dumps(payload))
            self.canonical.append(canonical)
            self.crcs.append(zlib.crc32(canonical.encode("utf-8")))
        return keep


@dataclass
class CheckpointState:
    """Persisted progress of one (possibly interrupted) run.

    ``records`` keeps execution order; ``pseudo_labels`` is the label state
    query boosting had published when the checkpoint was written.  The two
    together are enough to resume any strategy: plain runs skip executed
    nodes, boosting replays cached records through its (deterministic)
    scheduler so the round structure — and therefore every later prompt —
    matches the uninterrupted run exactly.

    ``torn_tail`` says why :func:`load_checkpoint` dropped the delta lines
    at the end of the file this state was loaded from (``None``: it did not).
    """

    records: list[QueryRecord] = field(default_factory=list)
    pseudo_labels: dict[int, int] = field(default_factory=dict)
    completed: bool = False
    torn_tail: str | None = field(default=None, compare=False, repr=False)
    _encoded: _EncodedRecords = field(
        default_factory=_EncodedRecords, init=False, compare=False, repr=False
    )

    @property
    def executed(self) -> dict[int, QueryRecord]:
        return {r.node: r for r in self.records}


def backup_path(path: str | Path) -> Path:
    """The ``.bak`` sibling holding the previous checkpoint generation."""
    path = Path(path)
    return path.with_name(path.name + ".bak")


def _checkpoint_text(state: CheckpointState) -> str:
    """The snapshot document (with checksums) for ``state``.

    Assembled from the per-record fragments cached on ``state``, so only
    records new since the previous call are encoded; the text equals
    ``json.dumps`` of the full payload dict.
    """
    encoded = state._encoded
    encoded.sync(state.records)
    pseudo = {str(node): int(label) for node, label in state.pseudo_labels.items()}
    head = json.dumps(
        {
            "format_version": _FORMAT_VERSION,
            "kind": "checkpoint",
            "completed": state.completed,
            "pseudo_labels": pseudo,
        }
    )
    manifest = _manifest_crc(state.completed, pseudo, encoded.crcs, len(encoded.crcs))
    return (
        f'{head[:-1]}, "records": [{", ".join(encoded.fragments)}], '
        f'"record_crcs": {json.dumps(encoded.crcs)}, "manifest_crc": {manifest}}}'
    )


def _delta_entry(state: CheckpointState, start: int, pseudo_labels: list) -> str:
    """Canonical JSON of the delta entry carrying ``state.records[start:]``.

    ``pseudo_labels`` are the ``(node, label)`` pairs recorded since the
    previous flush, in order.  Assembled from the cached canonical record
    fragments (``state``'s cache must be synced); the text equals
    :func:`~repro.io.atomic.canonical_json` of the entry dict.
    """
    encoded = state._encoded
    return (
        f'{{"completed":{json.dumps(bool(state.completed))},"kind":"delta",'
        f'"num_records":{len(encoded.records)},'
        f'"pseudo_labels":{canonical_json(pseudo_labels)},'
        f'"records":[{",".join(encoded.canonical[start:])}]}}'
    )


def _apply_delta(state: CheckpointState, entry: dict, path: Path) -> bool:
    """Apply one CRC-verified delta entry; False if it does not follow ``state``."""
    if entry.get("kind") != "delta":
        return False
    records = entry.get("records")
    if not isinstance(records, list):
        return False
    if entry.get("num_records") != len(state.records) + len(records):
        return False
    try:
        decoded = [QueryRecord(**record) for record in records]
        pseudo = [(int(node), int(label)) for node, label in entry["pseudo_labels"]]
        completed = bool(entry["completed"])
    except (TypeError, ValueError, KeyError) as error:
        raise CheckpointCorruptionError(
            f"{path}: delta line no longer deserializes: {error}"
        ) from error
    state.records.extend(decoded)
    state.pseudo_labels.update(pseudo)
    state.completed = completed
    return True


def save_checkpoint(
    state: CheckpointState,
    path: str | Path,
    keep_backup: bool = True,
    before_replace: "Callable[[Path], None] | None" = None,
) -> Path:
    """Durably write ``state`` at ``path`` as one snapshot (a compaction).

    Goes through tmp + fsync + rename + dir fsync.  With ``keep_backup``
    (the default) the previous file is rotated to ``path.bak`` just before
    the new one becomes visible, so at every instant — including a crash
    between the two renames — at least one verified-good generation exists
    on disk.  ``before_replace`` is the chaos hook modelling a crash in that
    window (see :func:`repro.io.atomic.atomic_write_text`).
    """
    path = Path(path)

    def rotate_then_hook(tmp: Path) -> None:
        if keep_backup and path.exists():
            os.replace(path, backup_path(path))
        if before_replace is not None:
            before_replace(tmp)

    return atomic_write_text(
        path, _checkpoint_text(state), before_replace=rotate_then_hook
    )


def load_checkpoint(path: str | Path) -> CheckpointState:
    """Load a checkpoint written by :class:`RunCheckpointer` or :func:`save_checkpoint`.

    The snapshot is verified record by record; any checksum mismatch or
    truncation raises :class:`CheckpointCorruptionError`, and a format
    older than v6 raises ``ValueError``.  v7 delta lines apply in order up
    to the first that fails its CRC or record count: that line and every
    later one are a torn tail, dropped and explained in ``torn_tail``.
    """
    path = Path(path)
    payload, rest = _load_payload(path, "checkpoint")
    if payload.get("kind") != "checkpoint":
        raise ValueError(f"{path} is not a checkpoint file")
    try:
        pseudo = {int(node): int(label) for node, label in payload["pseudo_labels"].items()}
        completed = bool(payload["completed"])
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise CheckpointCorruptionError(
            f"{path}: checkpoint state no longer deserializes: {error}"
        ) from error
    state = CheckpointState(
        records=_decode_records(payload, path),
        pseudo_labels=pseudo,
        completed=completed,
    )
    # The snapshot ends without a newline; the first delta line brings one.
    log = rest.removeprefix("\n")
    entries, end = read_crc_log(log)
    applied = 0
    while applied < len(entries) and _apply_delta(state, entries[applied], path):
        applied += 1
    if applied < len(entries) or log[end:].strip():
        lines = sum(1 for line in log.split("\n") if line)
        state.torn_tail = (
            f"delta line {applied + 1} of {lines} failed its CRC or "
            f"record count; dropped it and every later line"
        )
    return state


class RunCheckpointer:
    """Incremental checkpoint writer/reader bound to one path.

    Construct it on the path a run should persist to; if a (partial)
    checkpoint already exists there it is loaded, and the engine/strategies
    consult :attr:`executed` to skip every already-issued LLM call.

    Parameters
    ----------
    path:
        Checkpoint file location.
    flush_every:
        Persist after every N appended records.  ``1`` (the default) never
        loses an executed query to a crash; larger values trade crash
        re-query cost for fewer fsyncs.  A flush appends one delta line
        holding only what changed since the previous flush and fsyncs it
        once; the first flush, :meth:`mark_complete` and a flush after an
        in-place edit of ``state.records`` compact the whole file instead.
    observer:
        Optional run observer; resume loads report ``on_checkpoint_loaded``,
        every flush ``on_checkpoint_flush``, and recovery (a dropped torn
        tail or a fallback to ``.bak``) ``on_checkpoint_recovered``.
    crash_hook:
        Chaos/test hook.  A compacting flush forwards it to
        :func:`save_checkpoint` as ``before_replace`` (called with the tmp
        path just before the rename); a delta flush calls it with the log's
        path once the line is durable.  Raising from it simulates the
        process dying in that window.

    Corruption handling
    -------------------
    A torn or corrupt delta tail is dropped at load: the checkpointer
    resumes from the last intact flush and compacts that state into place.
    If the snapshot itself is corrupt (or the file is missing while a
    ``.bak`` survives — a compaction's crash-between-renames window), it
    falls back to the last verified-good ``.bak`` generation, re-establishes
    it as the main file and resumes from there.  Either way :attr:`recovered`
    is set.  Only when *both* generations fail verification does
    construction raise :class:`CheckpointCorruptionError`.
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 1,
        observer: "RunObserver | None" = None,
        crash_hook: "Callable[[Path], None] | None" = None,
    ):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self.observer = observer
        self.crash_hook = crash_hook
        self._pending = 0
        # Pseudo-labels recorded since the previous flush, in order.
        self._pseudo: list[tuple[int, int]] = []
        # Records the file holds while flushes may append to it; ``None``
        # makes the next flush compact.
        self._logged: int | None = None
        # Written before the next delta line: the snapshot ends without one.
        self._separator = "\n"
        self.state = CheckpointState()
        self.recovered = self._load_or_recover()
        self.resumed_records = len(self.state.records)
        self._nodes = {record.node for record in self.state.records}
        if observer is not None and self.resumed_records:
            observer.on_checkpoint_loaded(self.resumed_records, self.state.completed)

    def _load_or_recover(self) -> bool:
        """Load the checkpoint into :attr:`state`; True if it needed recovery."""
        bak = backup_path(self.path)
        # A crash can strand the tmp file; it is never authoritative.
        tmp = self.path.with_name(self.path.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        if self.path.exists():
            try:
                self.state = load_checkpoint(self.path)
            except CheckpointCorruptionError as error:
                if not self._recover_from(bak, str(error)):
                    raise
                return True
            if self.state.torn_tail is None:
                return False
            self._reestablish(self.state.torn_tail)
            return True
        # Crash landed between the backup rotation and the new file's
        # rename: the previous generation is the latest good state.
        return self._recover_from(bak, "main checkpoint missing after crash")

    def _recover_from(self, bak: Path, reason: str) -> bool:
        if not bak.exists():
            return False
        try:
            self.state = load_checkpoint(bak)
        except CheckpointCorruptionError:
            return False
        # Don't rotate the corrupt main file over the good backup.
        self._reestablish(reason, keep_backup=False)
        return True

    def _reestablish(self, reason: str, keep_backup: bool = True) -> None:
        """Compact the recovered state into place and report the recovery."""
        self._compact(keep_backup=keep_backup)
        if self.observer is not None:
            self.observer.on_checkpoint_recovered(len(self.state.records), reason)

    def _compact(
        self, keep_backup: bool = True, before_replace: "Callable[[Path], None] | None" = None
    ) -> None:
        """Rewrite the file as one snapshot of :attr:`state`."""
        save_checkpoint(
            self.state, self.path, keep_backup=keep_backup, before_replace=before_replace
        )
        self._logged = len(self.state.records)
        self._separator = "\n"

    @property
    def executed(self) -> dict[int, QueryRecord]:
        """Persisted records by node id (replayed instead of re-queried)."""
        return self.state.executed

    @property
    def pseudo_labels(self) -> dict[int, int]:
        return dict(self.state.pseudo_labels)

    def append(self, record: QueryRecord) -> None:
        """Persist one freshly executed record (subject to ``flush_every``)."""
        if record.node in self._nodes:
            raise ValueError(f"node {record.node} is already checkpointed")
        self._nodes.add(record.node)
        self.state.records.append(record)
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()

    def record_pseudo(self, node: int, label: int) -> None:
        """Persist one published pseudo-label (flushed with the next record)."""
        node, label = int(node), int(label)
        self.state.pseudo_labels[node] = label
        self._pseudo.append((node, label))

    def mark_complete(self) -> None:
        """Stamp the run finished and compact: the file becomes one document."""
        self.state.completed = True
        self._logged = None
        self.flush()

    def flush(self) -> None:
        """Persist everything since the previous flush: one delta line, or a compaction."""
        kept = self.state._encoded.sync(self.state.records)
        if self._logged is None or kept < self._logged:
            self._compact(before_replace=self.crash_hook)
        else:
            entry = _delta_entry(self.state, self._logged, self._pseudo)
            append_line_durable(self.path, self._separator + crc_line(entry))
            self._separator = ""
            self._logged = len(self.state.records)
            if self.crash_hook is not None:
                self.crash_hook(self.path)
        self._pseudo.clear()
        self._pending = 0
        if self.observer is not None:
            self.observer.on_checkpoint_flush(len(self.state.records))
