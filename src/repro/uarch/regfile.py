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
dead.  The free list, ports and timing contract are
:class:`~repro.uarch.entries.EntryArray`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

from repro.uarch.bitbias import check_fits
from repro.uarch.entries import EntryArray


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


class RegisterFile(EntryArray):
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

    __slots__ = ()

    def __init__(
        self,
        entries: int = 64,
        width: int = 32,
        write_ports: int = 4,
        name: str = "regfile",
        initial_value: int = 0,
    ) -> None:
        super().__init__(entries, width, write_ports, name, initial_value)

    def write(self, entry: int, value: int, now: float) -> None:
        """Workload write through a regular port."""
        self._check_entry(entry)
        self._write(entry, value, now)

    def read(self, entry: int) -> int:
        self._check_entry(entry)
        return self.values[entry]

    def write_special(self, entry: int, value: int, now: float) -> bool:
        """Mechanism write into a *free* entry through an idle port.

        Returns False (and discards the update, as Section 4.4 allows)
        when no port is available or the entry is busy.  A value that
        does not fit raises before any port is looked at.
        """
        self._check_entry(entry)
        check_fits(value, self.width)
        return self._write_special(entry, value, now)

    def finalize(self, now: Optional[float] = None) -> RegisterFileStats:
        """Close all intervals and produce statistics."""
        occupancy, port_free = self._finish(now)
        return RegisterFileStats(
            entries=self.entries,
            width=self.width,
            allocations=self._allocations,
            releases=self._releases,
            special_writes=self._special_writes,
            discarded_special_writes=self._discarded_special,
            free_fraction=1.0 - occupancy,
            port_free_fraction=port_free,
            bias_to_zero=self.bias.bias_to_zero(),
            worst_bias=self.bias.worst_bias(),
        )
