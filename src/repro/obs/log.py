"""Structured run logging: a JSONL event stream plus a console renderer.

Every record is one self-contained JSON object::

    {"ts": 1690000000.0, "run_id": "3f9c2a1b04de", "span_id": "1a2f.3",
     "level": "info", "event": "point_done",
     "payload": {"key": "ab12...", "cached": false, "elapsed": 0.42}}

Records are appended with the PR 4 store discipline — one ``os.write``
on an ``O_APPEND`` fd per record — so concurrent sweep workers (threads
*or* processes) can log to the same file without ever interleaving
partial lines; a threaded test asserts this.  ``span_id`` is filled
from the calling thread's innermost open tracer span, which is how a
log line links back to the execution trace.

The renderer (:func:`render_event`) is the human view of the same
stream: ``repro trace events`` replays a stored stream through it.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple, Union,
)

from repro.obs.trace import TRACER

#: Numeric severities (subset of stdlib logging, by design: the stream
#: is an event log, not a debug firehose).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}


def new_run_id() -> str:
    """A short, collision-resistant id naming one sweep/run."""
    return uuid.uuid4().hex[:12]


def render_event(record: Dict[str, Any]) -> str:
    """One human-readable line for a structured event record."""
    ts = record.get("ts", 0.0)
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    millis = int((ts % 1.0) * 1000)
    level = str(record.get("level", "info")).upper()
    payload = record.get("payload") or {}
    detail = " ".join(f"{key}={_compact(value)}"
                      for key, value in payload.items())
    line = (f"{clock}.{millis:03d} {level:<7} "
            f"{record.get('event', '?')}")
    return f"{line}  {detail}" if detail else line


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, str):
        return value if len(value) <= 40 else value[:37] + "..."
    return json.dumps(value, sort_keys=True, default=str)


class EventLog:
    """Structured event sink: appends every event to a JSONL file.

    Parameters
    ----------
    path:
        JSONL destination.
    run_id:
        Stamped into every record so multi-run files stay separable.

    Every level is written; readers filter (``repro trace events
    --level``), so a run's log holds everything that happened in it.
    """

    def __init__(self, path: str, run_id: Optional[str] = None) -> None:
        self.path = path
        self.run_id = run_id or new_run_id()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def emit(self, event: str, level: str = "info",
             **payload: Any) -> Dict[str, Any]:
        """Append one event; returns the record written."""
        record = {
            "ts": time.time(),
            "run_id": self.run_id,
            "span_id": TRACER.current_span_id(),
            "level": level,
            "event": event,
            "payload": payload,
        }
        # One O_APPEND fd + one os.write per record, as the result
        # store appends: concurrent writers append whole lines
        # atomically.
        data = (json.dumps(record, sort_keys=True, default=str)
                + "\n").encode("utf-8")
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(
                f"short write to {self.path}: {written} of "
                f"{len(data)} bytes"
            )
        return record

    # Severity shorthands ------------------------------------------------
    def debug(self, event: str, **payload: Any):
        return self.emit(event, level="debug", **payload)

    def info(self, event: str, **payload: Any):
        return self.emit(event, level="info", **payload)

    def warning(self, event: str, **payload: Any):
        return self.emit(event, level="warning", **payload)

    def error(self, event: str, **payload: Any):
        return self.emit(event, level="error", **payload)


def _parse_event_line(line: bytes, floor: int,
                      run_id: Optional[str]) -> Optional[Dict[str, Any]]:
    """Decode + filter one log line; ``None`` for noise/filtered."""
    text = line.strip()
    if not text:
        return None
    try:
        record = json.loads(text.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "event" not in record:
        return None
    if LEVELS.get(record.get("level", "info"), 0) < floor:
        return None
    if run_id and record.get("run_id") != run_id:
        return None
    return record


#: How far one :func:`tail_events` call reads: it stops at the first
#: line end at or past this many bytes, so a reader far behind a long
#: log holds about one chunk of it at a time, never the whole tail.
TAIL_CHUNK = 256 * 1024


def tail_events(
    path: str,
    offset: int = 0,
    level: Optional[str] = None,
    run_id: Optional[str] = None,
) -> Tuple[List[Dict[str, Any]], int]:
    """One incremental poll of an event log: ``(records, new_offset)``.

    Reads whole lines from ``offset`` until :data:`TAIL_CHUNK` bytes are
    consumed or the file ends, so an offset that moved by the chunk or
    more means more lines may be waiting.  Only complete lines (ending
    in ``\\n``) are consumed, so a torn final line — a writer caught
    mid-append — stays beyond the returned offset and is retried on the
    next poll.  A missing file is an empty poll (the sweep may not have
    started yet); a file *shorter* than the watermark
    (rotated/truncated) restarts from byte zero.  A ``level`` outside
    :data:`LEVELS` is a ValueError.
    """
    if level and level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; choose from "
                         f"{', '.join(LEVELS)}")
    floor = LEVELS[level] if level else 0
    try:
        size = os.path.getsize(path)
    except OSError:
        return [], offset
    if size < offset:
        offset = 0
    if size == offset:
        return [], offset
    records: List[Dict[str, Any]] = []
    consumed = 0
    with open(path, "rb") as handle:
        handle.seek(offset)
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # torn final line: leave for the next poll
            consumed += len(raw)
            record = _parse_event_line(raw, floor, run_id)
            if record is not None:
                records.append(record)
            if consumed >= TAIL_CHUNK:
                break
    return records, offset + consumed


class EventTailer:
    """Stateful wrapper over :func:`tail_events` (one watermark).

    A live subscriber passes the ``offset`` it captured when it
    attached (the service takes the file's size at submit), so it sees
    only the events appended since, not the whole multi-run history.
    ``behind`` is true when the last poll stopped at
    :data:`TAIL_CHUNK`: poll again before waiting for new lines.
    """

    def __init__(self, path: str, offset: int = 0,
                 level: Optional[str] = None,
                 run_id: Optional[str] = None) -> None:
        self.path = path
        self.level = level
        self.run_id = run_id
        self.offset = offset
        self.behind = False

    def poll(self) -> List[Dict[str, Any]]:
        """Records appended since the last poll (watermark advances)."""
        start = self.offset
        records, self.offset = tail_events(
            self.path, self.offset, self.level, self.run_id)
        self.behind = self.offset - start >= TAIL_CHUNK
        return records


def read_events(
    path: str,
    level: Optional[str] = None,
    run_id: Optional[str] = None,
    follow: bool = False,
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
) -> Union[List[Dict[str, Any]], Iterator[Dict[str, Any]]]:
    """Load an event-log file, optionally filtered by level / run id.

    Corrupt lines are skipped (the same tolerance as the result store:
    a crashed writer must not take the whole log down with it).  The
    file is read a :data:`TAIL_CHUNK` at a time, to its end.

    ``follow=True`` returns an *iterator* instead: existing records
    first, then new ones as they are appended (``tail -f`` semantics,
    as ``repro trace events --follow`` shows them).  The optional
    ``stop`` callable is checked whenever the reader has caught up,
    before it waits ``poll_interval`` for more.
    """
    if follow:
        return _follow_events(path, level, run_id, poll_interval, stop)
    tailer = EventTailer(path, level=level, run_id=run_id)
    records = tailer.poll()
    while tailer.behind:
        records += tailer.poll()
    return records


def _follow_events(path: str, level: Optional[str],
                   run_id: Optional[str], poll_interval: float,
                   stop: Optional[Callable[[], bool]],
                   ) -> Iterator[Dict[str, Any]]:
    tailer = EventTailer(path, level=level, run_id=run_id)
    while True:
        yield from tailer.poll()
        if tailer.behind:
            continue
        if stop is not None and stop():
            return
        time.sleep(poll_interval)
