"""Explicitly managed blocks: the register files and the scheduler.

Section 3.2.2 treats both as one kind of block.  The workload allocates
and releases their entries, a free entry keeps its stale contents, and
the NBTI mechanism may write a special (RINV) value into a free entry
through a port the workload leaves idle.  :class:`EntryArray` owns that
machinery; :class:`~repro.uarch.regfile.RegisterFile` and
:class:`~repro.uarch.scheduler.Scheduler` say how values are made.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.metrics import MetricSet
from repro.uarch.bitbias import BitBiasAccumulator


class EntryArray:
    """``entries`` values of ``width`` bits, with a free list, ``ports``
    ports per cycle and residency accounting (``bias``).  ``name`` tells
    structures apart (the ISV hooks pick a register file by it).

    Timing contract
    ---------------
    The trace-driven core computes event times uop-by-uop, so calls are
    monotonic *per entry* but not globally (a release may carry a
    timestamp later than the next uop's allocation).  The free list is
    therefore a heap keyed by the time each entry becomes available:
    :meth:`allocate` only hands out entries already free at the
    requested time, and :meth:`next_free_time` tells a stalled caller
    how far to advance.  Allocations and releases advance the horizon,
    writes the accumulator's ``latest``; :meth:`_finish` closes every
    interval no earlier than either.

    Every value enters through ``bias.set_value``, called directly (one
    call per residency write).  :meth:`_write` is the write through a
    port, which it books first; :meth:`_write_special` is the
    mechanism's gate, busy and port checks and booking in one body.

    :meth:`TraceDrivenCore.run <repro.uarch.core.TraceDrivenCore.run>`
    does the workload interface's bookkeeping in its own loop, on these
    same containers and counters; the methods here are the reference
    it is tested against (``tests/test_core_loop_differential.py``), so
    a change to what an event does belongs in both.
    """

    __slots__ = ("name", "entries", "width", "ports", "bias", "port_use",
                 "values", "_free", "_counter", "_busy", "_busy_since",
                 "_busy_time", "_allocations", "_releases",
                 "_special_writes", "_discarded_special", "_port_checks",
                 "_port_free_hits", "_horizon")

    def __init__(self, entries: int, width: int, ports: int, name: str,
                 initial_value: int = 0) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if ports <= 0:
            raise ValueError("the port count must be positive")
        self.name = name
        self.entries = entries
        self.width = width
        self.ports = ports
        self.bias = BitBiasAccumulator(entries, width, initial_value)
        self._init_run_state()

    def _init_run_state(self) -> None:
        entries = self.entries
        #: current value of each entry (the accumulator's list, read-only)
        self.values = self.bias.values
        # (available_time, tiebreak, entry); FIFO tiebreak keeps reuse fair.
        self._free: List[Tuple[float, int, int]] = [
            (0.0, i, i) for i in range(entries)
        ]
        heapq.heapify(self._free)
        self._counter = entries
        self._busy = [False] * entries
        self._busy_since = [0.0] * entries
        self._busy_time = 0.0
        self._allocations = 0
        self._releases = 0
        self._special_writes = 0
        self._discarded_special = 0
        #: cycle -> ports used in it (workload and special writes)
        self.port_use: Dict[int, int] = {}
        self._port_checks = 0
        self._port_free_hits = 0
        self._horizon = 0.0

    def reset(self) -> None:
        """Restore the freshly-constructed state (reusable across runs)."""
        self.bias.reset()
        self._init_run_state()

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def allocate(self, now: float) -> Optional[int]:
        """Take an entry free at time ``now`` (None when none is)."""
        if not self._free or self._free[0][0] > now:
            return None
        __, __, entry = heapq.heappop(self._free)
        self._busy[entry] = True
        self._busy_since[entry] = now
        self._allocations += 1
        if now > self._horizon:
            self._horizon = now
        return entry

    def next_free_time(self) -> Optional[float]:
        """Earliest time an entry becomes available (None if all busy)."""
        if not self._free:
            return None
        return self._free[0][0]

    def release(self, entry: int, now: float) -> None:
        """Return an entry to the free list; its contents stay (stale)."""
        self._check_entry(entry)
        if not self._busy[entry]:
            raise ValueError(f"{self.name} entry {entry} is not busy")
        busy = now - self._busy_since[entry]
        if busy < 0.0:
            raise ValueError(
                f"{self.name} entry {entry} released at {now}, before its "
                f"allocation at {self._busy_since[entry]}")
        self._busy[entry] = False
        self._busy_time += busy
        self._counter += 1
        heapq.heappush(self._free, (now, self._counter, entry))
        self._releases += 1
        if now > self._horizon:
            self._horizon = now

    def is_busy(self, entry: int) -> bool:
        self._check_entry(entry)
        return self._busy[entry]

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def _write_special(self, entry: int, value: int, now: float) -> bool:
        """The special-write gate: a busy entry, or no port idle in the
        cycle containing ``now``, discards the update (Section 4.4
        allows it) and returns False; otherwise the write books the
        port.  Only a free entry counts as a port check."""
        if self._busy[entry]:
            self._discarded_special += 1
            return False
        self._port_checks += 1
        cycle = int(now)
        used = self.port_use.get(cycle, 0)
        if used >= self.ports:
            self._discarded_special += 1
            return False
        self._port_free_hits += 1
        self.port_use[cycle] = used + 1
        self.bias.set_value(entry, value, now)
        self._special_writes += 1
        return True

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _write(self, entry: int, value: int, now: float) -> None:
        """A write through a port: book the port, then store the value."""
        cycle = int(now)
        self.port_use[cycle] = self.port_use.get(cycle, 0) + 1
        self.bias.set_value(entry, value, now)

    def _check_entry(self, entry: int) -> None:
        if not 0 <= entry < self.entries:
            raise IndexError(f"{self.name} index out of range: {entry}")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _finish(self, now: Optional[float]) -> Tuple[float, float]:
        """Close every interval at ``now`` (the horizon and the latest
        write at the earliest); returns the busy fraction of entry-time
        and the fraction of port checks that found a port free."""
        end = max(now if now is not None else 0.0, self._horizon,
                  self.bias.latest)
        for entry in range(self.entries):
            if self._busy[entry]:
                self._busy_time += end - self._busy_since[entry]
                self._busy_since[entry] = end
        self.bias.finalize(end)
        total_time = end * self.entries
        occupancy = self._busy_time / total_time if total_time > 0.0 else 0.0
        port_free = (
            self._port_free_hits / self._port_checks
            if self._port_checks else 1.0
        )
        return occupancy, port_free

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree (no interval-closing: reads never mutate,
        unlike ``finalize``)."""
        ms = MetricSet()
        ms.counter("allocations", read=lambda: self._allocations)
        ms.counter("releases", read=lambda: self._releases)
        ms.counter("special_writes", read=lambda: self._special_writes)
        ms.counter("discarded_special_writes",
                   read=lambda: self._discarded_special)
        ms.counter("port_checks", read=lambda: self._port_checks)
        ms.counter("port_free_hits", read=lambda: self._port_free_hits)
        ms.ratio("port_free_fraction", numerator="port_free_hits",
                 denominator="port_checks", zero=1.0,
                 help="no checks yet means every port is free "
                      "(finalize()'s convention)")
        ms.child("bias", self.bias.metrics())
        return ms
