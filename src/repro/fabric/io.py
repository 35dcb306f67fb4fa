"""Crash-safe file primitives shared by the sweep fabric.

Every durable byte the fabric writes goes through one of two idioms:

* :func:`append_record` — a single ``os.write`` on an ``O_APPEND`` fd.
  POSIX guarantees the kernel serialises such writes, so concurrent
  workers appending to the same shard never interleave partial lines,
  and a crash can tear at most the final line of a file (which loaders
  detect and skip).
* :func:`atomic_write_text` / :func:`atomic_write_json` — write to a
  temp file in the same directory, then ``os.replace`` over the target.
  Readers see either the old file or the new one, never a torn mix.

Lint rule FAB001 flags any other write path inside ``repro/fabric/``
and ``experiments/runner.py``; this module is the sanctioned exception.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any

__all__ = ["append_record", "atomic_write_text", "atomic_write_json",
           "canonical_json"]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift.

    The byte form of every store record, and what point keys hash."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def append_record(path: str, data: bytes) -> None:
    """Append ``data`` to ``path`` with a single atomic ``os.write``.

    With ``O_APPEND`` the kernel picks the offset at write time, so
    concurrent appenders never overwrite each other.  Raises
    ``OSError`` on a short write (the caller's record would be torn;
    better to fail loudly than leave a half-line behind).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(
                f"short write to {path}: {written} of {len(data)} bytes"
            )
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` via temp-file + ``os.replace``.

    The temp file lives in the target directory so the rename never
    crosses a filesystem boundary (which would lose atomicity), and is
    named per process and thread, so concurrent writers of one path
    (the service's jobs share a pid) never rename each other's file.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.{os.getpid()}."
        f"{threading.get_ident()}.tmp"
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        data = text.encode("utf-8")
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(
                f"short write to {tmp}: {written} of {len(data)} bytes"
            )
    finally:
        os.close(fd)
    try:
        os.replace(tmp, path)
    except OSError:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload: Any) -> None:
    """Atomically serialise ``payload`` as pretty JSON at ``path``."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    atomic_write_text(path, text + "\n")
