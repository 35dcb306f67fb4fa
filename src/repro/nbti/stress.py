"""Zero-signal residency accounting.

Every architectural mechanism in the paper works by changing *how long*
each PMOS gate (equivalently: each circuit node or stored bit) spends at
logic "0".  This module provides the two ledgers the rest of the library
uses to measure that:

- :class:`StressLedger` — per-named-node accumulation of time at "0" and
  at "1", used by the gate-level aging simulator and by structure-level
  bias studies.
- :class:`BitCellStress` — the SRAM-cell view, where a stored bit value
  stresses one of the two cross-coupled PMOS and its complement stresses
  the other one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple


@dataclass
class NodeStress:
    """Accumulated residency of a single node."""

    time_at_zero: float = 0.0
    time_at_one: float = 0.0

    @property
    def total_time(self) -> float:
        return self.time_at_zero + self.time_at_one

    @property
    def duty(self) -> float:
        """Zero-signal probability observed so far (0.0 if never driven)."""
        total = self.total_time
        if total == 0.0:
            return 0.0
        return self.time_at_zero / total

    def observe(self, value: int, duration: float = 1.0) -> None:
        """Record the node holding ``value`` for ``duration`` time units."""
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        if value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {value!r}")
        if value == 0:
            self.time_at_zero += duration
        else:
            self.time_at_one += duration

    def merge(self, other: "NodeStress") -> None:
        self.time_at_zero += other.time_at_zero
        self.time_at_one += other.time_at_one


class StressLedger:
    """Per-node zero-signal residency ledger.

    Keys are arbitrary hashable node identifiers (gate-level simulations
    use netlist node names; structure-level studies use ``(entry, bit)``
    tuples or plain bit indices).

    Examples
    --------
    >>> ledger = StressLedger()
    >>> ledger.observe("carry_in", 0, duration=9.0)
    >>> ledger.observe("carry_in", 1, duration=1.0)
    >>> ledger.duty("carry_in")
    0.9
    """

    def __init__(self) -> None:
        self._nodes: Dict[object, NodeStress] = {}

    def observe(self, node: object, value: int, duration: float = 1.0) -> None:
        """Record ``node`` holding ``value`` for ``duration`` time units."""
        self._node(node).observe(value, duration)

    def observe_counts(
        self, counts: Iterable[Tuple[object, int, int]], duration: float
    ) -> None:
        """Record ``(node, zeros, ones)`` observations of equal duration.

        Each node holds "0" for ``zeros`` observations and "1" for
        ``ones``, each lasting ``duration``.  The result is bit-identical
        to calling :meth:`observe` once per observation, in node order:
        a residency grows by adding ``duration`` once per observation,
        left to right, however the observations interleave.  Those
        repeated sums are memoised per start value, so nodes that share
        a start (a fresh ledger's 0.0) share the work.
        """
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        chains: Dict[float, List[float]] = {}

        def grown(start: float, count: int) -> float:
            if not count:
                return start
            chain = chains.get(start)
            if chain is None:
                chain = chains[start] = [start]
            while len(chain) <= count:
                chain.append(chain[-1] + duration)
            return chain[count]

        for node, zeros, ones in counts:
            stress = self._node(node)
            stress.time_at_zero = grown(stress.time_at_zero, zeros)
            stress.time_at_one = grown(stress.time_at_one, ones)

    def observe_word(
        self, prefix: object, word: int, width: int, duration: float = 1.0
    ) -> None:
        """Record every bit of an integer word.

        Bit ``i`` of ``word`` is recorded under node ``(prefix, i)``.
        """
        if width <= 0:
            raise ValueError("width must be positive")
        for bit in range(width):
            self.observe((prefix, bit), (word >> bit) & 1, duration)

    def duty(self, node: object) -> float:
        """Zero-signal probability of ``node`` (0.0 if never observed)."""
        stress = self._nodes.get(node)
        return 0.0 if stress is None else stress.duty

    def total_time(self, node: object) -> float:
        stress = self._nodes.get(node)
        return 0.0 if stress is None else stress.total_time

    def nodes(self) -> Iterable[object]:
        return self._nodes.keys()

    def duties(self) -> Mapping[object, float]:
        """Mapping of node -> duty for all observed nodes."""
        return {node: stress.duty for node, stress in self._nodes.items()}

    def worst(self) -> Tuple[object, float]:
        """Node with the highest zero-signal probability.

        Raises :class:`ValueError` on an empty ledger.
        """
        if not self._nodes:
            raise ValueError("ledger is empty")
        node = max(self._nodes, key=lambda n: self._nodes[n].duty)
        return node, self._nodes[node].duty

    def merge(self, other: "StressLedger") -> None:
        """Fold another ledger's residency into this one."""
        for node, stress in other._nodes.items():
            self._node(node).merge(stress)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def _node(self, node: object) -> NodeStress:
        stress = self._nodes.get(node)
        if stress is None:
            stress = NodeStress()
            self._nodes[node] = stress
        return stress


@dataclass
class BitCellStress:
    """Stress view of one SRAM bit cell (two cross-coupled inverters).

    Storing "0" stresses the PMOS of the inverter whose input is the cell
    node, storing "1" stresses the opposite one (Section 3.2: "there is
    always one of the inverters with negative voltage at its gate").  The
    cell fails when the *more* stressed of the two PMOS exceeds its
    budget, so the figure of merit is ``worst_duty``.
    """

    time_at_zero: float = 0.0
    time_at_one: float = 0.0

    def observe(self, value: int, duration: float = 1.0) -> None:
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        if value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {value!r}")
        if value == 0:
            self.time_at_zero += duration
        else:
            self.time_at_one += duration

    @property
    def total_time(self) -> float:
        return self.time_at_zero + self.time_at_one

    @property
    def bias_to_zero(self) -> float:
        """Fraction of time the cell stored "0" (0.0 if never written)."""
        total = self.total_time
        if total == 0.0:
            return 0.0
        return self.time_at_zero / total

    @property
    def worst_duty(self) -> float:
        """Duty cycle of the more stressed PMOS in the cell."""
        bias = self.bias_to_zero
        if self.total_time == 0.0:
            return 0.0
        return max(bias, 1.0 - bias)

    @property
    def imbalance(self) -> float:
        """Distance of the cell's bias from the optimal 50% point."""
        if self.total_time == 0.0:
            return 0.0
        return abs(self.bias_to_zero - 0.5)
