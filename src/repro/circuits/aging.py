"""Aging simulation of combinational circuits.

:class:`AgingSimulator` is the open-source stand-in for the "Hspice-like
Intel production simulator for aging at electrical level" of Section 4.1.
It drives a :class:`~repro.circuits.netlist.Circuit` with weighted input
vectors, accumulates the zero-signal residency of every node, and derives
per-PMOS duty cycles, the Figure 4 metric (fraction of *narrow*
transistors with ~100% zero-signal probability), and the guardband the
block would require (Figure 5).

The electrical layer is replaced by the calibrated duty->guardband map of
:mod:`repro.nbti.guardband`; see DESIGN.md for the substitution argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.circuits.netlist import Circuit
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL, GuardbandModel
from repro.nbti.stress import StressLedger
from repro.nbti.transistor import PMOSTransistor

#: Duty cycle above which a transistor counts as "100% zero-signal
#: probability" for the Figure 4 metric (allows float slack).
FULL_STRESS_THRESHOLD = 0.999


@dataclass(frozen=True)
class AgingReport:
    """Summary of an aging run.

    Attributes
    ----------
    total_transistors:
        All transistors in the design (PMOS + the matching NMOS of static
        CMOS); Figure 4 normalises by this count.
    narrow_fully_stressed:
        Narrow PMOS whose duty exceeded :data:`FULL_STRESS_THRESHOLD`.
    wide_fully_stressed:
        Wide PMOS whose duty exceeded the threshold (the paper tolerates
        these: "wide PMOS ... do not suffer from NBTI significantly").
    worst_narrow_duty:
        Highest duty among narrow PMOS.
    guardband:
        Cycle-time guardband required by the worst *narrow* PMOS.
    """

    total_transistors: int
    narrow_count: int
    narrow_fully_stressed: int
    wide_fully_stressed: int
    worst_narrow_duty: float
    guardband: float

    @property
    def narrow_fully_stressed_fraction(self) -> float:
        """Figure 4 metric: narrow 100%-stressed over total transistors."""
        if self.total_transistors == 0:
            return 0.0
        return self.narrow_fully_stressed / self.total_transistors


class AgingSimulator:
    """Drive a circuit with weighted vectors and account PMOS stress.

    Examples
    --------
    >>> from repro.circuits import build_ladner_fischer_adder
    >>> adder = build_ladner_fischer_adder(width=4)
    >>> sim = AgingSimulator(adder.circuit)
    >>> sim.apply(adder.input_vector(0, 0, 0), duration=1.0)
    >>> sim.apply(adder.input_vector(15, 15, 1), duration=1.0)
    >>> 0.0 <= sim.report().worst_narrow_duty <= 1.0
    True
    """

    def __init__(
        self,
        circuit: Circuit,
        guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
    ) -> None:
        self.circuit = circuit
        self.guardband_model = guardband_model
        self.ledger = StressLedger()
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def apply(self, input_values: Mapping[str, int], duration: float = 1.0) -> None:
        """Hold one input vector for ``duration`` time units."""
        self.apply_sequence([input_values], duration)

    def apply_sequence(
        self,
        vectors: Iterable[Mapping[str, int]],
        duration_each: float = 1.0,
    ) -> None:
        """Hold each vector of a sequence for the same duration.

        The whole sequence is evaluated in one bit-sliced gate walk; each
        node's lane popcount gives how many vectors drive it to "1".  The
        ledger and :attr:`elapsed` end bit-identical to applying the
        vectors one at a time (see :meth:`StressLedger.observe_counts`).
        """
        if duration_each < 0.0:
            raise ValueError("duration must be non-negative")
        vectors = list(vectors)
        if duration_each == 0.0 or not vectors:
            return
        count = len(vectors)
        packed = self.circuit.evaluate_packed(vectors)
        self.ledger.observe_counts(
            ((node, count - lanes.bit_count(), lanes.bit_count())
             for node, lanes in packed.items()),
            duration_each,
        )
        for __ in range(count):
            self._elapsed += duration_each

    def apply_weighted(
        self, weighted_vectors: Iterable[Tuple[Mapping[str, int], float]]
    ) -> None:
        """Apply ``(vector, weight)`` pairs; weights are durations."""
        for vector, weight in weighted_vectors:
            self.apply(vector, weight)

    @property
    def elapsed(self) -> float:
        """Total simulated residency time."""
        return self._elapsed

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def pmos_duty(self, transistor: PMOSTransistor) -> float:
        """Zero-signal probability accumulated by one transistor."""
        return self.ledger.duty(transistor.gate_node)

    def pmos_duties(self) -> Dict[str, float]:
        """Mapping of transistor name -> duty for the whole design."""
        return {
            pmos.name: self.pmos_duty(pmos)
            for pmos in self.circuit.pmos_transistors()
        }

    def fully_stressed(
        self, threshold: float = FULL_STRESS_THRESHOLD
    ) -> List[PMOSTransistor]:
        """Transistors whose duty meets/exceeds ``threshold``."""
        return [
            pmos
            for pmos in self.circuit.pmos_transistors()
            if self.pmos_duty(pmos) >= threshold
        ]

    def report(
        self, threshold: float = FULL_STRESS_THRESHOLD
    ) -> AgingReport:
        """Summarise the run into an :class:`AgingReport`."""
        narrow = self.circuit.narrow_pmos()
        all_pmos = self.circuit.pmos_transistors()
        stressed = self.fully_stressed(threshold)
        narrow_stressed = sum(1 for p in stressed if p.is_narrow)
        wide_stressed = len(stressed) - narrow_stressed
        worst_narrow = max(
            (self.pmos_duty(p) for p in narrow), default=0.0
        )
        return AgingReport(
            total_transistors=2 * len(all_pmos),
            narrow_count=len(narrow),
            narrow_fully_stressed=narrow_stressed,
            wide_fully_stressed=wide_stressed,
            worst_narrow_duty=worst_narrow,
            guardband=self.guardband_model.guardband_for_duty(worst_narrow),
        )

    def reset(self) -> None:
        """Discard all accumulated stress."""
        self.ledger = StressLedger()
        self._elapsed = 0.0
