"""Serialization of run results (JSON), tabular export (CSV), checkpoints.

Runs are the unit of comparison in every experiment; persisting them lets a
costly 1,000-query execution be analyzed repeatedly (breakdowns, paired
comparisons, cost extrapolation) without re-spending tokens.

Checkpoints extend the same idea to *interrupted* runs: the executed records
plus the published pseudo-label state persist incrementally, and a resumed
run replays them without re-issuing a single LLM call.  Persistence is
crash-safe end to end:

* every write goes through :func:`repro.io.atomic.atomic_write_text`
  (tmp + fsync + rename + directory fsync), so a crash mid-flush can never
  surface a torn or zero-length "committed" file;
* format v5 stamps a CRC32 per record plus a manifest checksum over the
  whole state, so silent corruption (bit rot, truncation by a non-atomic
  writer) is *detected* at load as :class:`CheckpointCorruptionError`
  rather than deserialized into garbage;
* each flush rotates the previous checkpoint to a ``.bak`` sibling, and
  :class:`RunCheckpointer` automatically recovers from it when the main
  file is corrupt or lost — resuming from the last verified-good state.

A flush encodes only the records appended since the previous one: each
record's JSON fragment and CRC are computed once and cached on its
:class:`CheckpointState`, and the document is assembled from those
fragments.  Every flush still rewrites and fsyncs the whole file, so
``flush_every`` still trades crash loss for fewer writes.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.io.atomic import atomic_write_text
from repro.runtime.results import QueryRecord, RunResult

if TYPE_CHECKING:
    from collections.abc import Callable

    from repro.obs.hooks import RunObserver

# Version 2 added ``QueryRecord.outcome``; version-1 files load with the
# default tier ("ok"), which is exactly what pre-outcome records were.
# Version 3 added ``QueryRecord.latency_seconds``; older files load with
# ``None`` (no simulated clock ran), so every earlier checkpoint and saved
# run stays loadable.
# Version 4 added the cascade-router provenance fields
# ``QueryRecord.tier``/``escalations``/``cost_usd``; older files load with
# the single-model defaults (None/0/None).
# Version 5 added integrity checksums: ``record_crcs`` (CRC32 per record)
# and ``manifest_crc`` (CRC32 over completion flag, pseudo-labels and the
# record CRC list).  Older files load without verification.
# Version 6 added ``QueryRecord.compressed`` (the prompt-compression
# degradation rung); older files load with the ``False`` default, which is
# exactly what pre-compression records were.
_FORMAT_VERSION = 6
_SUPPORTED_VERSIONS = (1, 2, 3, 4, 5, 6)


class CheckpointCorruptionError(ValueError):
    """A persisted run/checkpoint failed integrity verification.

    Raised for non-JSON (truncated) files, checksum mismatches, and record
    payloads that no longer deserialize.  Subclasses :class:`ValueError` so
    pre-v5 callers catching that still work; :class:`RunCheckpointer`
    catches it to recover from the ``.bak`` generation automatically.
    """


_RECORD_FIELDS = tuple(f.name for f in fields(QueryRecord))


def record_fields(record: QueryRecord) -> dict:
    """``record``'s fields by name, in declaration order (its JSON payload).

    Equal to ``dataclasses.asdict(record)`` without the deep copy:
    :class:`QueryRecord` holds only scalars.
    """
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def _record_crc(record: dict) -> int:
    """CRC32 of one record's canonical JSON (sorted keys, no whitespace)."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8"))


def _manifest_crc(completed, pseudo_labels, record_crcs, num_records: int) -> int:
    """Checksum binding the record CRCs to the rest of the state."""
    blob = json.dumps(
        {
            "completed": completed,
            "pseudo_labels": pseudo_labels,
            "record_crcs": record_crcs,
            "num_records": num_records,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(blob.encode("utf-8"))


def _verify_payload(payload: dict, path: Path) -> None:
    """Check a v5+ payload's checksums; raise on any mismatch."""
    records = payload.get("records", [])
    crcs = payload.get("record_crcs")
    if crcs is None or len(crcs) != len(records):
        raise CheckpointCorruptionError(
            f"{path}: record CRC list missing or wrong length "
            f"({None if crcs is None else len(crcs)} CRCs for {len(records)} records)"
        )
    for index, (record, expected) in enumerate(zip(records, crcs)):
        actual = _record_crc(record)
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


def _load_payload(path: Path, kind: str) -> dict:
    """Read, version-check and integrity-verify one persisted JSON payload."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as error:  # binary garbage where JSON should be
        raise CheckpointCorruptionError(f"{path}: not a text file: {error}") from error
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointCorruptionError(
            f"{path}: truncated or non-JSON {kind} file: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise CheckpointCorruptionError(f"{path}: {kind} payload is not an object")
    version = payload.get("format_version")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported {kind} format version {version!r}")
    if version >= 5:
        _verify_payload(payload, path)
    return payload


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
    crcs = [_record_crc(r) for r in records]
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
    fails its v5 checksums.
    """
    path = Path(path)
    payload = _load_payload(path, "run")
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
    """Each checkpointed record's payload JSON fragment and CRC, encoded once.

    ``records`` holds the records the cache was built from; :meth:`sync`
    keeps the longest prefix still identical (``is``) to the state's list,
    so replacing or truncating ``CheckpointState.records`` re-encodes only
    from the first changed position.
    """

    records: list[QueryRecord] = field(default_factory=list)
    fragments: list[str] = field(default_factory=list)
    crcs: list[int] = field(default_factory=list)

    def sync(self, records: list[QueryRecord]) -> None:
        keep = 0
        for cached, record in zip(self.records, records):
            if cached is not record:
                break
            keep += 1
        del self.records[keep:], self.fragments[keep:], self.crcs[keep:]
        for record in records[keep:]:
            payload = record_fields(record)
            fragment, crc = json.dumps(payload), _record_crc(payload)
            self.records.append(record)
            self.fragments.append(fragment)
            self.crcs.append(crc)


@dataclass
class CheckpointState:
    """Persisted progress of one (possibly interrupted) run.

    ``records`` keeps execution order; ``pseudo_labels`` is the label state
    query boosting had published when the checkpoint was written.  The two
    together are enough to resume any strategy: plain runs skip executed
    nodes, boosting replays cached records through its (deterministic)
    scheduler so the round structure — and therefore every later prompt —
    matches the uninterrupted run exactly.
    """

    records: list[QueryRecord] = field(default_factory=list)
    pseudo_labels: dict[int, int] = field(default_factory=dict)
    completed: bool = False
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
    """The current-version JSON document (with checksums) for ``state``.

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


def save_checkpoint(
    state: CheckpointState,
    path: str | Path,
    keep_backup: bool = True,
    before_replace: "Callable[[Path], None] | None" = None,
) -> Path:
    """Durably write ``state`` at ``path`` (tmp + fsync + rename + dir fsync).

    With ``keep_backup`` (the default) the previous checkpoint generation is
    rotated to ``path.bak`` just before the new file becomes visible, so at
    every instant — including a crash between the two renames — at least one
    verified-good generation exists on disk.  ``before_replace`` is the
    chaos hook modelling a crash in that window (see
    :func:`repro.io.atomic.atomic_write_text`).
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
    """Load a checkpoint previously written by :func:`save_checkpoint`.

    v5 files are verified record-by-record; any checksum mismatch or
    truncation raises :class:`CheckpointCorruptionError`.  Versions 1–4
    predate checksums and load unverified.
    """
    path = Path(path)
    payload = _load_payload(path, "checkpoint")
    if payload.get("kind") != "checkpoint":
        raise ValueError(f"{path} is not a checkpoint file")
    try:
        pseudo = {int(node): int(label) for node, label in payload["pseudo_labels"].items()}
        completed = bool(payload["completed"])
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        raise CheckpointCorruptionError(
            f"{path}: checkpoint state no longer deserializes: {error}"
        ) from error
    return CheckpointState(
        records=_decode_records(payload, path),
        pseudo_labels=pseudo,
        completed=completed,
    )


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
        re-query cost for fewer writes on large runs.  A flush encodes only
        the records appended since the previous flush, but still rewrites
        and fsyncs the whole file.
    observer:
        Optional run observer; resume loads report ``on_checkpoint_loaded``,
        every file write ``on_checkpoint_flush``, and backup-based recovery
        ``on_checkpoint_recovered``.
    crash_hook:
        Chaos/test hook forwarded to :func:`save_checkpoint` as
        ``before_replace`` on every flush; raising from it simulates a
        process dying between the tmp write and the rename.

    Corruption handling
    -------------------
    If the main checkpoint is corrupt (or missing while a ``.bak``
    survives — the crash-between-renames window), the checkpointer
    automatically falls back to the last verified-good ``.bak`` generation,
    re-establishes it as the main file, and resumes from there; at most
    ``flush_every`` records (one generation) of work is re-queried.  Only
    when *both* generations fail verification does construction raise
    :class:`CheckpointCorruptionError`.
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
        self.state, self.recovered_from_backup = self._load_or_recover()
        self.resumed_records = len(self.state.records)
        self._nodes = {record.node for record in self.state.records}
        if observer is not None and self.resumed_records:
            observer.on_checkpoint_loaded(self.resumed_records, self.state.completed)

    def _load_or_recover(self) -> tuple[CheckpointState, bool]:
        """Load the main checkpoint, falling back to ``.bak`` on corruption."""
        bak = backup_path(self.path)
        # A crash can strand the tmp file; it is never authoritative.
        tmp = self.path.with_name(self.path.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        if self.path.exists():
            try:
                return load_checkpoint(self.path), False
            except CheckpointCorruptionError as error:
                state = self._recover_from(bak, str(error))
                if state is None:
                    raise
                return state, True
        if bak.exists():
            # Crash landed between the backup rotation and the new file's
            # rename: the previous generation is the latest good state.
            state = self._recover_from(bak, "main checkpoint missing after crash")
            if state is not None:
                return state, True
        return CheckpointState(), False

    def _recover_from(self, bak: Path, reason: str) -> CheckpointState | None:
        if not bak.exists():
            return None
        try:
            state = load_checkpoint(bak)
        except CheckpointCorruptionError:
            return None
        # Re-establish the recovered generation as the main file (without
        # rotating the corrupt file over the good backup).
        save_checkpoint(state, self.path, keep_backup=False)
        if self.observer is not None:
            self.observer.on_checkpoint_recovered(len(state.records), reason)
        return state

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
        self.state.pseudo_labels[int(node)] = int(label)

    def mark_complete(self) -> None:
        """Stamp the run finished and flush; resume becomes a pure replay."""
        self.state.completed = True
        self.flush()

    def flush(self) -> None:
        save_checkpoint(self.state, self.path, before_replace=self.crash_hook)
        self._pending = 0
        if self.observer is not None:
            self.observer.on_checkpoint_flush(len(self.state.records))
