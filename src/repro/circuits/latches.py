"""Input-latch banks and the Section 3.3 latch strategy.

Latches are memory-like (bit cells) but cannot hold arbitrary repair
values: they feed combinational blocks, so their contents are dictated
by whatever the idle-input mechanism writes for the *block's* sake.
Section 3.3 argues this is acceptable — latch transistors are large —
and Section 4.3 adds that alternating the <0,0,0>/<1,1,1> pair keeps
the latches themselves balanced ("latches hold similar amounts of time
opposite values").

:class:`LatchBank` models one block's input latches with per-bit-cell
residency so that claim can be measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.metrics import ordered_sum
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL, GuardbandModel
from repro.nbti.stress import BitCellStress


class LatchBank:
    """The input latches of a combinational block.

    Latch cells are tracked individually; :meth:`capture` records a new
    input vector being held for a duration, exactly mirroring what the
    aging simulator does for the combinational nodes behind them.
    """

    def __init__(self, pins: Sequence[str]) -> None:
        if not pins:
            raise ValueError("a latch bank needs at least one pin")
        self.pins: Tuple[str, ...] = tuple(pins)
        self._cells: Dict[str, BitCellStress] = {
            pin: BitCellStress() for pin in self.pins
        }

    def capture(self, values: Mapping[str, int], duration: float = 1.0) -> None:
        """Hold ``values`` in the latches for ``duration`` time units."""
        missing = [pin for pin in self.pins if pin not in values]
        if missing:
            raise ValueError(f"missing latch values: {missing[:8]}")
        for pin in self.pins:
            self._cells[pin].observe(values[pin], duration)

    def bias_to_zero(self, pin: str) -> float:
        return self._cell(pin).bias_to_zero

    def worst_duty(self) -> float:
        """Worst per-cell PMOS duty across the bank."""
        return max(cell.worst_duty for cell in self._cells.values())

    def worst_pin(self) -> Tuple[str, float]:
        pin = max(self.pins, key=lambda p: self._cells[p].worst_duty)
        return pin, self._cells[pin].worst_duty

    def imbalances(self) -> Dict[str, float]:
        """Pin -> distance from the balanced 50% point."""
        return {pin: cell.imbalance for pin, cell in self._cells.items()}

    def guardband(
        self, model: GuardbandModel = DEFAULT_GUARDBAND_MODEL
    ) -> float:
        """Cycle-time guardband required by the worst latch cell."""
        return model.guardband_for_duty(self.worst_duty())

    def _cell(self, pin: str) -> BitCellStress:
        try:
            return self._cells[pin]
        except KeyError:
            raise KeyError(f"unknown latch pin {pin!r}") from None


@dataclass(frozen=True)
class LatchStudy:
    """Latch-bank stress under a weighted input schedule."""

    worst_duty: float
    worst_pin: str
    guardband: float
    mean_imbalance: float


def study_latch_bank(
    pins: Sequence[str],
    schedule: Sequence[Tuple[Mapping[str, int], float]],
    model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
) -> LatchStudy:
    """Drive a latch bank with ``(vector, duration)`` pairs and report.

    This is the Section 3.3 measurement: feed the same schedule the
    idle-input mechanism produces for the block and check the latches
    stay balanced enough to skip dedicated latch protection.
    """
    bank = LatchBank(pins)
    for values, duration in schedule:
        bank.capture(values, duration)
    pin, duty = bank.worst_pin()
    imbalances = bank.imbalances()
    return LatchStudy(
        worst_duty=duty,
        worst_pin=pin,
        guardband=bank.guardband(model),
        mean_imbalance=ordered_sum(imbalances.values()) / len(imbalances),
    )
