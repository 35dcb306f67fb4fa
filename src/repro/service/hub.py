"""Bounded fan-out of job messages to event-stream subscribers.

One :class:`Hub` per job bridges the executor thread running the sweep
(and the event-log tailer) to any number of subscribers of
``GET /v1/jobs/{id}/events``.  Two rules keep a slow or dead consumer
from ever touching the run:

1. **Bounded queues.**  Each subscription is a bounded
   ``asyncio.Queue``; ``publish`` uses ``put_nowait`` only.  The
   publisher never awaits a consumer.
2. **Drop the subscriber, not the messages.**  A full queue means the
   consumer fell behind by the whole buffer; rather than silently
   skipping records (a gap a client can't detect), the subscription is
   marked dropped, its queue is cleared, and it is handed a close
   sentinel — the stream handler then sends one ``{"type":
   "dropped"}`` message and closes, and the client knows to
   reconnect/resync via ``GET /v1/jobs/{id}``.

A bounded replay backlog lets subscribers who attach mid-run still see
the run from ``run_start`` — the acceptance contract for streams is
"run_start, ≥1 telemetry snapshot, run_end", however late the client
arrived.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = ["CLOSE", "Hub", "Subscription"]

#: Queue sentinel: the hub is finished with this subscriber (either the
#: job ended or the subscriber was dropped); the stream handler closes.
CLOSE = object()

BACKLOG = 512
QUEUE_SIZE = 2 * BACKLOG


class Subscription:
    """One consumer's bounded view of a hub."""

    __slots__ = ("queue", "dropped")

    def __init__(self, maxsize: int) -> None:
        self.queue: "asyncio.Queue[Any]" = asyncio.Queue(maxsize=maxsize)
        self.dropped = False


class Hub:
    """Per-job broadcast hub (single event loop, many subscribers)."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 backlog: int = BACKLOG,
                 queue_size: int = QUEUE_SIZE) -> None:
        self._loop = loop
        self._subs: List[Subscription] = []
        self._backlog: Deque[Dict[str, Any]] = deque(maxlen=backlog)
        self._queue_size = queue_size
        self.closed = False
        self.drops = 0

    def subscribe(self) -> Subscription:
        """Attach a consumer; the backlog replays immediately.

        Subscribing to a closed hub still replays the backlog and then
        closes — a late client of a finished job sees the full
        (bounded) history plus the terminal message.
        """
        sub = Subscription(self._queue_size)
        for message in self._backlog:
            sub.queue.put_nowait(message)
        if self.closed:
            sub.queue.put_nowait(CLOSE)
        else:
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        if sub in self._subs:
            self._subs.remove(sub)

    # ------------------------------------------------------------------
    def publish(self, message: Dict[str, Any]) -> None:
        """Fan a message out; must run on the hub's event loop."""
        if self.closed:
            return
        self._backlog.append(message)
        for sub in list(self._subs):
            if sub.dropped:
                continue
            try:
                sub.queue.put_nowait(message)
            except asyncio.QueueFull:
                self._drop(sub)

    def publish_threadsafe(self, message: Dict[str, Any]) -> None:
        """Publish from a worker thread (executor → loop handoff)."""
        self._loop.call_soon_threadsafe(self.publish, message)

    def _drop(self, sub: Subscription) -> None:
        sub.dropped = True
        self.drops += 1
        self._subs.remove(sub)
        # Clear the stale buffer so the close sentinel is seen *now*,
        # not after the consumer chews through QUEUE_SIZE old messages.
        while True:
            try:
                sub.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        sub.queue.put_nowait(CLOSE)

    def close(self, final: Optional[Dict[str, Any]] = None) -> None:
        """Publish an optional terminal message, then end every stream."""
        if final is not None:
            self.publish(final)
        if self.closed:
            return
        self.closed = True
        for sub in self._subs:
            try:
                sub.queue.put_nowait(CLOSE)
            except asyncio.QueueFull:
                self._drop_closed(sub)
        self._subs.clear()

    def _drop_closed(self, sub: Subscription) -> None:
        sub.dropped = True
        while True:
            try:
                sub.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        sub.queue.put_nowait(CLOSE)
