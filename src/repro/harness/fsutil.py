"""Crash-safe filesystem primitives shared by the harness.

Every artifact the harness persists — ``BENCH_*.json`` records, generated
reports, compile-cache entries, checkpoint journals — goes through the same
discipline: write the full content to a temporary file *in the same
directory*, fsync it, then atomically rename over the destination.  A crash
(or SIGKILL) at any instant leaves either the old complete file or the new
complete file, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_write_json",
           "fsync_dir"]


def fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory, making a rename durable.

    Not all platforms/filesystems allow opening a directory for fsync; a
    failure here costs durability of the *rename* (not file contents) and is
    deliberately ignored.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename),
    creating any missing parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: Path | str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path | str, obj, indent: int = 2) -> None:
    """Atomically write ``obj`` as JSON with a trailing newline."""
    atomic_write_text(path, json.dumps(obj, indent=indent) + "\n")

