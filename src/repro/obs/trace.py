"""Span-based execution tracer with Chrome trace-event export.

The tracer is the *when/where* leg of the telemetry triad (the metrics
tree is the *values* leg, the event log the *what happened* leg).  Code
wraps interesting regions in spans::

    from repro.obs.trace import TRACER

    with TRACER.span("replay", addrs=len(stream)):
        cache.replay(stream)

or, on hot paths where a ``with`` block would re-indent a large loop,
the allocation-free token form::

    _t = TRACER.begin()
    ...                       # the traced region
    if _t is not None:
        TRACER.end(_t, "cache.replay", accesses=n)

Design constraints (DESIGN.md §7):

- **Near-zero cost disabled.**  ``begin()`` is one attribute test
  returning ``None``; ``span()`` returns a shared no-op singleton; no
  argument dicts, records or timestamps are materialised.  The kernel
  benches gate this at <1% of the seed-counter replay.
- **Bounded memory enabled.**  Records land in a ``deque(maxlen=
  capacity)`` ring: a multi-year simulated run keeps the most recent
  ``capacity`` spans instead of growing without bound.
- **Cross-process mergeable.**  Records are plain dicts with epoch
  timestamps and the recording pid/tid, so sweep worker processes can
  hand their spans back in a span file and the parent's ring holds one
  coherent timeline (:meth:`Tracer.extend`).

Export targets the Chrome trace-event JSON format (``"X"`` complete
events), loadable in Perfetto / ``about://tracing`` — see
:func:`to_chrome_trace` / :func:`export_chrome_trace`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default ring capacity: enough for ~10k sweep points' worth of spans
#: while staying a few MB at worst.
DEFAULT_CAPACITY = 65_536

#: Schema tag carried by saved span files.
SPANS_SCHEMA = "repro.spans/1"


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Ignore late attributes (mirrors :meth:`_Span.set`)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records itself into the tracer's ring on exit."""

    __slots__ = ("_tracer", "name", "args", "_wall", "_perf", "span_id",
                 "parent_id")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (counts, outcomes)."""
        self.args.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.parent_id = tracer.current_span_id()
        self.span_id = tracer._next_id()
        tracer._push(self.span_id)
        self._wall = time.time()
        self._perf = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._perf
        tracer = self._tracer
        tracer._pop()
        tracer._record(self.name, self._wall, duration, self.span_id,
                       self.parent_id, self.args)
        return False


class Tracer:
    """Bounded in-memory span recorder (one per process, usually).

    All state-changing methods are cheap and the ring is append-only
    (``deque.append`` is atomic under the GIL), so tracing from worker
    threads is safe; span *nesting* is tracked per thread.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._stacks = threading.local()

    # -- lifecycle ------------------------------------------------------
    def enable(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity != self.capacity:
            self.capacity = capacity
            self._ring = deque(self._ring, maxlen=capacity)
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    # -- span identity --------------------------------------------------
    def _next_id(self) -> str:
        return f"{os.getpid():x}.{next(self._ids):x}"

    def _stack(self) -> List[str]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _push(self, span_id: str) -> None:
        self._stack().append(span_id)

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def current_span_id(self) -> Optional[str]:
        """Innermost open span of the calling thread (None at top level)."""
        stack = getattr(self._stacks, "stack", None)
        return stack[-1] if stack else None

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attrs: Any):
        """Context manager tracing one region (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def begin(self) -> Optional[Tuple[float, float, Optional[str]]]:
        """Token form for hot paths: ``None`` (free) while disabled."""
        if not self.enabled:
            return None
        return (time.time(), time.perf_counter(), self.current_span_id())

    def end(self, token, name: str, **attrs: Any) -> None:
        """Close a :meth:`begin` token.  ``end(None, ...)`` is a no-op,
        but guard the call with ``if token is not None`` anyway so the
        ``attrs`` dict is never built on the disabled path."""
        if token is None:
            return
        wall, perf, parent_id = token
        self._record(name, wall, time.perf_counter() - perf,
                     self._next_id(), parent_id, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Zero-duration marker (rare discrete events, e.g. a scheme
        activation decision)."""
        if not self.enabled:
            return
        self._record(name, time.time(), 0.0, self._next_id(),
                     self.current_span_id(), attrs, phase="i")

    def _record(self, name: str, wall: float, duration: float,
                span_id: str, parent_id: Optional[str],
                args: Dict[str, Any], phase: str = "X") -> None:
        self._ring.append({
            "name": name,
            "ph": phase,
            "ts": wall,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span_id": span_id,
            "parent_id": parent_id,
            "args": args,
        })

    # -- access / merge -------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of the ring, oldest first."""
        return list(self._ring)

    def drain(self) -> List[Dict[str, Any]]:
        """Pop every record (how sweep workers ship spans back)."""
        records = list(self._ring)
        self._ring.clear()
        return records

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge records from another process into this ring."""
        self._ring.extend(records)

    def record_span(self, name: str, wall: float, duration: float,
                    **attrs: Any) -> None:
        """Append a span observed externally (e.g. a queue wait whose
        endpoints were measured in two different processes)."""
        if not self.enabled:
            return
        self._record(name, wall, duration, self._next_id(), None, attrs)


#: The process-global tracer every instrumented module shares.
TRACER = Tracer()


# ----------------------------------------------------------------------
# Persistence: raw span JSONL <-> Chrome trace-event JSON
# ----------------------------------------------------------------------
def spans_text(records: Iterable[Dict[str, Any]]) -> str:
    """The body of a span file: one header line + one line per span."""
    records = list(records)
    lines = [json.dumps({"schema": SPANS_SCHEMA, "spans": len(records)})]
    lines += [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + "\n"


def save_spans(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Write records as JSONL (:func:`spans_text`).

    Returns the number of spans written.  The raw form (not Chrome
    JSON) is what sweeps persist: it keeps span/parent ids and epoch
    timestamps, so later exports can filter, merge, or re-anchor.
    """
    records = list(records)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_text(records))
    return len(records)


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Read a :func:`save_spans` file back; validates the header."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in (l.strip() for l in handle) if line]
    if not lines:
        raise ValueError(f"{path}: empty span file")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise ValueError(f"{path}: not a span file (bad header)") from None
    if not isinstance(header, dict) or header.get("schema") != SPANS_SCHEMA:
        raise ValueError(
            f"{path}: not a span file (expected schema {SPANS_SCHEMA!r})"
        )
    return [json.loads(line) for line in lines[1:]]


def to_chrome_trace(records: Iterable[Dict[str, Any]],
                    label: str = "repro") -> Dict[str, Any]:
    """Convert span records to a Chrome trace-event JSON object.

    Timestamps are re-anchored to the earliest span (Perfetto renders
    microseconds since trace start far better than epoch microseconds)
    and each pid gets a ``process_name`` metadata event so sweeps show
    one named track per worker.
    """
    records = list(records)
    if records:
        origin = min(record["ts"] for record in records)
    else:
        origin = 0.0
    events: List[Dict[str, Any]] = []
    pids = []
    for record in records:
        pid = record.get("pid", 0)
        if pid not in pids:
            pids.append(pid)
        event = {
            "name": record["name"],
            "cat": record["name"].split(".", 1)[0],
            "ph": record.get("ph", "X"),
            "ts": (record["ts"] - origin) * 1e6,
            "pid": pid,
            "tid": record.get("tid", 0),
            "args": dict(record.get("args", {})),
        }
        if event["ph"] == "X":
            event["dur"] = record.get("dur", 0.0) * 1e6
        else:  # instant events carry a scope instead of a duration
            event["s"] = "t"
        if record.get("span_id"):
            event["args"].setdefault("span_id", record["span_id"])
        events.append(event)
    for index, pid in enumerate(sorted(pids)):
        name = label if index == 0 else f"{label}-worker"
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{name} (pid {pid})"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs.trace",
                          "schema": SPANS_SCHEMA}}


def export_chrome_trace(records: Iterable[Dict[str, Any]], path: str,
                        label: str = "repro") -> int:
    """Write Chrome trace JSON for the records; returns the event count."""
    payload = to_chrome_trace(records, label=label)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return len(payload["traceEvents"])
