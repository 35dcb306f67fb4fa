"""Physical register files with free lists and residency accounting.

The paper's register-file case study (Section 4.4) needs four things from
this model:

1. values written by the workload (to measure the baseline bit bias of
   Figure 6),
2. allocate/release timing (INT registers are free 54% of the time, FP
   69%),
3. write-port availability at release time (ports are found free 92% /
   86% of the time, so ISV updates are rarely discarded), and
4. a way for the NBTI mechanism to write special values into *free*
   entries through ports left idle by the workload.

Free entries keep their stale contents in the baseline — that is exactly
why biased data keeps stressing the same PMOS even when a register is
dead.

Timing contract
---------------
The trace-driven core computes event times uop-by-uop, so calls are
monotonic *per entry* but not globally (a release may carry a timestamp
later than the next uop's allocation).  The free list is therefore a heap
keyed by the time each entry becomes available: :meth:`allocate` only
hands out entries already free at the requested time, and
:meth:`next_free_time` tells a stalled caller how far to advance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from repro.metrics import MetricSet
from repro.uarch.bitbias import BitBiasAccumulator, check_fits


@dataclass(frozen=True, slots=True)
class RegisterFileStats:
    """End-of-run statistics of a register file."""

    entries: int
    width: int
    allocations: int
    releases: int
    special_writes: int
    discarded_special_writes: int
    free_fraction: float
    port_free_fraction: float
    bias_to_zero: "np.ndarray"
    worst_bias: float

    @property
    def worst_imbalance(self) -> float:
        """Distance of the worst aggregated bit from the 50% optimum."""
        return self.worst_bias - 0.5


class RegisterFile:
    """A physical register file with an availability-ordered free list.

    Parameters
    ----------
    entries:
        Number of physical registers.
    width:
        Bits per register (32 INT / 80 FP).
    write_ports:
        Number of write ports; mechanism writes may only use a port left
        idle by the workload in the same cycle.
    """

    __slots__ = ("name", "entries", "width", "write_ports", "bias",
                 "port_use", "_free", "_counter", "_busy", "_busy_since",
                 "_busy_time", "_allocations", "_releases",
                 "_special_writes", "_discarded_special", "_port_checks",
                 "_port_free_hits", "_horizon")

    def __init__(
        self,
        entries: int = 64,
        width: int = 32,
        write_ports: int = 4,
        name: str = "regfile",
        initial_value: int = 0,
    ) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if write_ports <= 0:
            raise ValueError("write_ports must be positive")
        self.name = name
        self.entries = entries
        self.width = width
        self.write_ports = write_ports
        self.bias = BitBiasAccumulator(entries, width, initial_value)
        self._init_run_state()

    def _init_run_state(self) -> None:
        entries = self.entries
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
        #: cycle -> write ports used in it (workload and special writes)
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
        """Take a register free at time ``now`` (None when none is)."""
        if not self._free or self._free[0][0] > now:
            return None
        __, __, entry = heapq.heappop(self._free)
        self._busy[entry] = True
        self._busy_since[entry] = now
        self._allocations += 1
        self._horizon = max(self._horizon, now)
        return entry

    def next_free_time(self) -> Optional[float]:
        """Earliest time an entry becomes available (None if all busy)."""
        if not self._free:
            return None
        return self._free[0][0]

    def write(self, entry: int, value: int, now: float) -> None:
        """Workload write through a regular port."""
        self._check_entry(entry)
        self._use_port(now)
        self.bias.set_value(entry, value, now)
        self._horizon = max(self._horizon, now)

    def read(self, entry: int) -> int:
        self._check_entry(entry)
        return self.bias.current_value(entry)

    def release(self, entry: int, now: float) -> None:
        """Return a register to the free list; contents remain (stale)."""
        self._check_entry(entry)
        if not self._busy[entry]:
            raise ValueError(f"register {entry} is not busy")
        self._busy[entry] = False
        self._busy_time += now - self._busy_since[entry]
        self._counter += 1
        heapq.heappush(self._free, (now, self._counter, entry))
        self._releases += 1
        self._horizon = max(self._horizon, now)

    # ------------------------------------------------------------------
    # Mechanism interface (NBTI special writes)
    # ------------------------------------------------------------------
    def port_available(self, now: float) -> bool:
        """Whether a write port is idle in the cycle containing ``now``."""
        self._port_checks += 1
        free = self.port_use.get(int(now), 0) < self.write_ports
        if free:
            self._port_free_hits += 1
        return free

    def write_special(self, entry: int, value: int, now: float) -> bool:
        """Mechanism write into a *free* entry through an idle port.

        Returns False (and discards the update, as Section 4.4 allows)
        when no port is available or the entry is busy.  A value that
        does not fit raises before any port is looked at.
        """
        self._check_entry(entry)
        check_fits(value, self.width)
        if self._busy[entry] or not self.port_available(now):
            self._discarded_special += 1
            return False
        self._use_port(now)
        self.bias.set_value(entry, value, now)
        self._special_writes += 1
        return True

    def is_busy(self, entry: int) -> bool:
        self._check_entry(entry)
        return self._busy[entry]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def finalize(self, now: Optional[float] = None) -> RegisterFileStats:
        """Close all intervals and produce statistics."""
        end = max(now if now is not None else 0.0, self._horizon)
        for entry in range(self.entries):
            if self._busy[entry]:
                self._busy_time += end - self._busy_since[entry]
                self._busy_since[entry] = end
        self.bias.finalize(end)
        total_time = end * self.entries
        free_fraction = (
            1.0 - self._busy_time / total_time if total_time > 0.0 else 1.0
        )
        port_free = (
            self._port_free_hits / self._port_checks
            if self._port_checks else 1.0
        )
        return RegisterFileStats(
            entries=self.entries,
            width=self.width,
            allocations=self._allocations,
            releases=self._releases,
            special_writes=self._special_writes,
            discarded_special_writes=self._discarded_special,
            free_fraction=free_fraction,
            port_free_fraction=port_free,
            bias_to_zero=self.bias.bias_to_zero(),
            worst_bias=self.bias.worst_bias(),
        )

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree (no interval-closing: reads never mutate,
        unlike :meth:`finalize`)."""
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

    # ------------------------------------------------------------------
    def _use_port(self, now: float) -> None:
        cycle = int(now)
        self.port_use[cycle] = self.port_use.get(cycle, 0) + 1

    def _check_entry(self, entry: int) -> None:
        if not 0 <= entry < self.entries:
            raise IndexError(f"register index out of range: {entry}")
