"""Issue ports and adder-allocation policies.

Section 4.3 of the paper reports adder utilisation under two allocation
policies: "if additions are allocated to adders with priorities, the
utilization of the adders ranges between 11% and 30%, but if additions
are distributed uniformly across adders, the utilization of adders is
21%".  :class:`AdderPool` models both policies, tracks per-adder
utilisation, and keeps a reservoir sample of the operand vectors each
adder saw — the "inputs sampled from the traces" that drive the aging
simulation of Figures 4 and 5.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.metrics import ordered_sum
from repro.uarch.uop import Uop

#: (input_a, input_b, carry_in) as presented to an adder.
AdderVector = Tuple[int, int, int]


class AdderPolicy(enum.Enum):
    """How additions are distributed across the adder-equipped ports."""

    #: Always pick the lowest-numbered free adder (skewed utilisation).
    PRIORITY = "priority"
    #: Round-robin across adders (uniform utilisation).
    UNIFORM = "uniform"


@dataclass(slots=True)
class AdderSlot:
    """One adder instance bound to an issue port."""

    index: int
    busy_until: float = 0.0
    busy_cycles: float = 0.0
    operations: int = 0


class AdderPool:
    """The integer/AGU adders of the issue ports.

    Parameters
    ----------
    n_adders:
        One adder per integer-ALU and address-generation port (Section
        4.1: "there is an adder in each integer and address generation
        port").
    policy:
        Allocation policy (see :class:`AdderPolicy`).
    sample_capacity:
        Reservoir size for sampled operand vectors, per adder.
    """

    __slots__ = ("policy", "sample_capacity", "_n_adders", "_seed",
                 "adders", "_samples", "_seen", "_rng", "_rr", "_horizon")

    def __init__(
        self,
        n_adders: int = 4,
        policy: AdderPolicy = AdderPolicy.UNIFORM,
        sample_capacity: int = 256,
        seed: int = 0,
    ) -> None:
        if n_adders <= 0:
            raise ValueError("n_adders must be positive")
        if sample_capacity <= 0:
            raise ValueError("sample_capacity must be positive")
        self.policy = policy
        self.sample_capacity = sample_capacity
        self._n_adders = n_adders
        self._seed = seed
        self._init_run_state()

    def _init_run_state(self) -> None:
        n_adders = self._n_adders
        self.adders = [AdderSlot(i) for i in range(n_adders)]
        self._samples: List[List[AdderVector]] = [[] for _ in range(n_adders)]
        self._seen: List[int] = [0] * n_adders
        self._rng = random.Random(self._seed)
        self._rr = 0
        self._horizon = 0.0

    def reset(self) -> None:
        """Restore the freshly-constructed state, re-seeding the RNG."""
        self._init_run_state()

    # ------------------------------------------------------------------
    def issue(self, uop: Uop, cycle: float, duration: float = 1.0) -> Optional[int]:
        """Issue an adder-using uop at ``cycle``; returns the adder index.

        Returns None when every adder is busy (the caller retries next
        cycle).  The chosen adder records utilisation and adds the
        operand vector to its reservoir sample.
        """
        adders = self.adders
        n = len(adders)
        # PRIORITY scans from the lowest-numbered adder; UNIFORM rotates
        # the starting point each issue.
        uniform = self.policy is AdderPolicy.UNIFORM
        start = self._rr if uniform else 0
        for offset in range(n):
            adder = adders[(start + offset) % n]
            if adder.busy_until <= cycle:
                break
        else:
            return None
        index = adder.index
        if uniform:
            self._rr = (index + 1) % n
        end = cycle + duration
        adder.busy_until = end
        adder.busy_cycles += duration
        adder.operations += 1
        if end > self._horizon:
            self._horizon = end
        seen = self._seen[index] + 1
        self._seen[index] = seen
        samples = self._samples[index]
        if len(samples) < self.sample_capacity:
            samples.append(uop.adder_operands())
        else:
            slot = self._rng.randrange(seen)
            if slot < self.sample_capacity:
                samples[slot] = uop.adder_operands()
        return index

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def utilization(self, total_cycles: Optional[float] = None) -> List[float]:
        """Busy fraction per adder."""
        horizon = total_cycles if total_cycles is not None else self._horizon
        if horizon <= 0.0:
            return [0.0] * len(self.adders)
        return [min(1.0, a.busy_cycles / horizon) for a in self.adders]

    def utilization_range(
        self, total_cycles: Optional[float] = None
    ) -> Tuple[float, float]:
        """(min, max) per-adder utilisation — the paper's 11%-30% span."""
        utils = self.utilization(total_cycles)
        return min(utils), max(utils)

    def mean_utilization(self, total_cycles: Optional[float] = None) -> float:
        utils = self.utilization(total_cycles)
        return ordered_sum(utils) / len(utils)

    def sampled_vectors(self, index: int) -> Sequence[AdderVector]:
        """Reservoir sample of operand vectors seen by one adder."""
        if not 0 <= index < len(self.adders):
            raise IndexError(f"adder index out of range: {index}")
        return tuple(self._samples[index])

    def all_sampled_vectors(self) -> Sequence[AdderVector]:
        return tuple(v for samples in self._samples for v in samples)
