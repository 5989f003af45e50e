"""Crash-safe file writes: tmp + fsync + atomic rename.

The repo's durability story (checkpoints, serve request streams, journals)
rests on one primitive: *either the old bytes or the new bytes, never a
torn mixture*.  ``os.replace`` gives atomicity of the rename itself, but a
rename alone is not durable — on most filesystems a crash shortly after
``os.replace`` can surface a **zero-length "committed" file**, because the
tmp file's data blocks were never forced to disk before the rename made it
visible.  The fix is the classic three-step dance:

1. write the tmp file and ``fsync`` its file descriptor (data durable),
2. ``os.replace(tmp, path)`` (atomic visibility flip),
3. ``fsync`` the containing directory (the rename itself durable).

:func:`atomic_write_text` packages that dance for the files a run resumes
from: checkpoint compactions, the LLM cache, request streams, journal
truncations.  Traces, CSV exports, saved graphs and reports use plain
writes.  The ``before_replace`` hook exists for the chaos-injection
subsystem (:mod:`repro.runtime.chaos`), which simulates a process dying
*between* the tmp write and the rename to prove recovery works; production
callers never pass it.

Append-only logs (the serve journal, the checkpoint log) share one line
codec: :func:`crc_line` envelopes canonical JSON with the CRC32 of exactly
those bytes, which :func:`read_crc_line` checks before decoding, so every
single-bit flip is caught.  :func:`read_crc_log` returns a log's verified
prefix; everything after it is a torn tail.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Callable


def fsync_dir(path: str | Path) -> None:
    """Flush a directory's metadata (its entries) to stable storage.

    Needed after ``os.replace`` so the rename survives power loss.  Silently
    skipped on platforms whose directories cannot be opened for fsync.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | Path,
    text: str,
    before_replace: "Callable[[Path], None] | None" = None,
) -> Path:
    """Write ``text`` at ``path`` atomically: tmp + fsync + rename + dir fsync.

    A reader (or a post-crash restart) observes either the previous content
    or the full new content — never a truncated or empty file.  The tmp
    file is fsynced before the rename and the directory after it, so the
    new content also survives power loss.

    Parameters
    ----------
    path:
        Destination; parent directories are created.
    text:
        Full new content.
    before_replace:
        Test/chaos hook invoked with the flushed tmp path just before
        ``os.replace``; raising from it models a crash at the narrowest
        window (tmp durable, rename never happened).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    if before_replace is not None:
        before_replace(tmp)
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return path


def append_line_durable(path: str | Path, line: str) -> None:
    """Append one newline-terminated line and fsync the file.

    The journal primitive: an append either lands completely or leaves a
    torn tail that a CRC-checking reader detects and truncates away.  The
    containing directory is synced only by the journal's creation path (the
    first append), not per line.
    """
    path = Path(path)
    existed = path.exists()
    if not existed:
        path.parent.mkdir(parents=True, exist_ok=True)
    if not line.endswith("\n"):
        line += "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    if not existed:
        fsync_dir(path.parent)


def canonical_json(value) -> str:
    """``value`` as canonical JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_crc(value) -> int:
    """CRC32 of ``value``'s canonical JSON."""
    return zlib.crc32(canonical_json(value).encode("utf-8"))


def crc_line(canonical: str) -> str:
    """One log line (without its newline) for an entry encoded as
    :func:`canonical_json`: ``{"crc":<crc32 of canonical>,"entry":<canonical>}``."""
    return f'{{"crc":{zlib.crc32(canonical.encode("utf-8"))},"entry":{canonical}}}'


def read_crc_line(line: str) -> dict | None:
    """The entry of one :func:`crc_line` line, or ``None`` if torn, corrupt
    or not a JSON object; never raises.  The entry text must be ASCII, as
    :func:`canonical_json` writes it."""
    head, _, tail = line.removesuffix("\n").partition(',"entry":')
    canonical = tail[:-1]
    if not (tail.endswith("}") and canonical.isascii()):
        return None
    if head != f'{{"crc":{zlib.crc32(canonical.encode("ascii"))}':
        return None
    try:
        entry = json.loads(canonical)
    except (ValueError, RecursionError):
        return None
    return entry if isinstance(entry, dict) else None


def read_crc_log(text: str) -> tuple[list[dict], int]:
    """The entries of ``text``'s leading run of valid :func:`crc_line` lines,
    and the offset where that verified prefix ends.

    The run stops at the first blank, torn or corrupt line.  A valid last
    line without its newline is kept: a cut inside a line leaves a shorter
    entry text under the whole entry's CRC, and no proper prefix of a JSON
    object decodes as one, so only the newline was lost.  Its writer must
    end the log with a newline before appending again.
    """
    entries: list[dict] = []
    end = 0
    while end < len(text):
        stop = text.find("\n", end) + 1 or len(text)
        entry = read_crc_line(text[end:stop])
        if entry is None:
            break
        entries.append(entry)
        end = stop
    return entries, end
