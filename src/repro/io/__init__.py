"""Persistence: run results and checkpoints, CSV export, the LLM cache store."""

from repro.io.atomic import append_line_durable, atomic_write_text, fsync_dir
from repro.io.cachedb import CacheCorruptionError, SQLiteCacheStore
from repro.io.runs import (
    CheckpointCorruptionError,
    CheckpointState,
    RunCheckpointer,
    backup_path,
    load_checkpoint,
    load_run,
    run_to_rows,
    save_checkpoint,
    save_run,
    write_csv,
)

__all__ = [
    "save_run",
    "load_run",
    "run_to_rows",
    "write_csv",
    "CheckpointCorruptionError",
    "CheckpointState",
    "RunCheckpointer",
    "backup_path",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write_text",
    "append_line_durable",
    "fsync_dir",
    "SQLiteCacheStore",
    "CacheCorruptionError",
]
