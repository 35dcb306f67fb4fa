"""Live sweep progress: rate / ETA rendering over point completions.

The runner reports each finished :class:`~repro.experiments.runner.
PointResult` through its ``progress`` callback; :class:`SweepProgress`
turns that stream into one of three renderings:

- ``line``  — one human line per point with running rate and ETA
  (what ``repro sweep --progress line`` shows);
- ``json``  — one JSON object per point (machine consumers tail this);
- ``none``  — silent (the default, and ``--quiet``).

Worker *heartbeats* (which process picked up which point, and when)
travel separately through the structured event log — this module is
only the foreground rendering of completions.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, IO, Optional

MODES = ("line", "json", "none")


def _format_eta(seconds: float) -> str:
    if seconds < 0 or seconds != seconds:  # negative or NaN
        return "?"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


class SweepProgress:
    """Render sweep completions as progress lines or JSON events."""

    def __init__(self, total: int, mode: str = "line",
                 stream: Optional[IO[str]] = None,
                 clock=time.monotonic) -> None:
        if mode not in MODES:
            raise ValueError(
                f"unknown progress mode {mode!r}; choose from "
                f"{', '.join(MODES)}"
            )
        self.total = total
        self.mode = mode
        self.stream = stream
        self._clock = clock
        self._started = clock()
        self.done = 0
        self.run_id: Optional[str] = None

    # ------------------------------------------------------------------
    def begin(self, run_id: Optional[str] = None,
              store: Optional[str] = None) -> None:
        """Announce run identity *before* the first point completes.

        In ``json`` mode this emits a ``start`` event carrying the
        run_id and store path, so machine consumers (and humans) can
        attach to the event log / store mid-run instead of learning
        both only from the final summary.
        """
        self.run_id = run_id
        if self.mode != "json":
            return
        print(json.dumps({
            "event": "start",
            "run_id": run_id,
            "store": store,
            "total": self.total,
        }, sort_keys=True), file=self.stream or sys.stdout)

    # ------------------------------------------------------------------
    def update(self, result: Any) -> None:
        """Consume one finished point (the runner's progress callback)."""
        self.done += 1
        if self.mode == "none":
            return
        elapsed = max(self._clock() - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if rate > 0 else float("nan")
        if self.mode == "json":
            print(json.dumps({
                "event": "point",
                "done": self.done,
                "total": self.total,
                "key": result.point.key,
                "cached": result.cached,
                "elapsed": round(result.elapsed, 6),
                "rate_per_s": round(rate, 3),
                "eta_s": round(eta, 1) if remaining else 0.0,
            }, sort_keys=True), file=self.stream or sys.stdout)
            return
        tag = "cached" if result.cached else f"{result.elapsed:6.2f}s"
        pace = (f"{rate:5.1f}/s eta {_format_eta(eta)}" if remaining
                else f"{rate:5.1f}/s done")
        print(f"  [{self.done:3d}/{self.total}] {tag:>7}  "
              f"{result.point.describe()}  | {pace}",
              file=self.stream or sys.stdout)
