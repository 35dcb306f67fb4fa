"""The NBTIefficiency metric (Section 4.2).

Equation (1) of the paper combines delay, the NBTI guardband and TDP:

    NBTIefficiency = (Delay * (1 + NBTIguardband))^3 * TDP

(The typesetting of eq. (1) is ambiguous about the scope of the cube,
but every worked example in the paper — 1.73 baseline, 1.41 inverting,
1.24 adder, 1.12 register file, 1.24 scheduler, 1.09 DL0, 1.28 whole
processor — matches the form above exactly, mirroring how PD^3 cubes
delay.)

All quantities are *relative* to a guardband-free baseline: delay 1.0,
TDP 1.0.  Equations (2)–(4) combine blocks into a processor: delay is the
combined CPI times the worst cycle time, TDP accumulates, and the
guardband is the maximum over blocks ("all paths ... have been adjusted
to fit the cycle time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics import ordered_sum

#: The whole NBTI guardband paid by an unprotected design (Section 4.2).
BASELINE_GUARDBAND = 0.20

#: The minimum guardband left after perfect balancing (10x reduction).
MIN_GUARDBAND = 0.02

#: Relative delay of operating in inverted mode half the time: an XNOR
#: (1 FO4) on a 10 FO4 cycle (Section 4.2).
INVERT_MODE_DELAY = 1.10


def nbti_efficiency(delay: float, guardband: float, tdp: float) -> float:
    """Equation (1): lower is better.

    Parameters
    ----------
    delay:
        Relative delay (cycle-count x cycle-time product), 1.0 = baseline.
    guardband:
        NBTI guardband as a fraction of the cycle time (e.g. 0.02).
    tdp:
        Relative thermal design power, 1.0 = baseline.

    Examples
    --------
    >>> round(nbti_efficiency(1.0, 0.20, 1.0), 2)   # pay the guardband
    1.73
    >>> round(nbti_efficiency(1.10, 0.02, 1.0), 2)  # inverted mode
    1.41
    """
    if delay <= 0.0 or tdp <= 0.0:
        raise ValueError("delay and tdp must be positive")
    if guardband < 0.0:
        raise ValueError("guardband must be non-negative")
    return (delay * (1.0 + guardband)) ** 3 * tdp


@dataclass(frozen=True)
class BlockCost:
    """Delay / guardband / TDP contribution of one protected block."""

    name: str
    delay: float = 1.0
    guardband: float = MIN_GUARDBAND
    tdp: float = 1.0
    #: Relative weight of this block in the processor TDP budget
    #: (Section 4.7 assumes the five studied blocks weigh equally).
    tdp_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0.0 or self.tdp <= 0.0 or self.tdp_weight < 0.0:
            raise ValueError(f"invalid cost parameters for {self.name!r}")
        if self.guardband < 0.0:
            raise ValueError("guardband must be non-negative")

    @property
    def efficiency(self) -> float:
        """Block-level NBTIefficiency."""
        return nbti_efficiency(self.delay, self.guardband, self.tdp)


@dataclass(frozen=True)
class ProcessorCost:
    """Whole-processor combination of block costs (eqs. 2–4)."""

    blocks: Sequence[BlockCost]
    #: Combined normalised CPI of all mechanisms run together; the paper
    #: measures 1.007 for LineFixed50% on DL0 + DTLB simultaneously.
    combined_cpi: float = 1.0

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a processor needs at least one block")
        if self.combined_cpi <= 0.0:
            raise ValueError("combined_cpi must be positive")

    @property
    def delay(self) -> float:
        """Eq. (2): CPI times the worst relative cycle time."""
        return self.combined_cpi * max(b.delay for b in self.blocks)

    @property
    def tdp(self) -> float:
        """Eq. (3): TDP-weight-normalised accumulation."""
        total_weight = ordered_sum(b.tdp_weight for b in self.blocks)
        return ordered_sum(b.tdp * b.tdp_weight
                           for b in self.blocks) / total_weight

    @property
    def guardband(self) -> float:
        """Eq. (4): the worst guardband over all blocks."""
        return max(b.guardband for b in self.blocks)

    @property
    def efficiency(self) -> float:
        return nbti_efficiency(self.delay, self.guardband, self.tdp)


def baseline_block_cost(name: str = "baseline") -> BlockCost:
    """A block that pays the whole 20% guardband (efficiency 1.73)."""
    return BlockCost(name=name, guardband=BASELINE_GUARDBAND)


def invert_periodically_cost(
    name: str = "invert-periodically", tdp: float = 1.0
) -> BlockCost:
    """A memory-like block operating in inverted mode half of the time.

    The XNOR in the data path costs ~10% delay; balancing is near
    perfect, so the guardband drops to the 2% floor (efficiency 1.41).
    This is the conventional alternative Penelope is compared against —
    note it does not exist for combinational blocks.
    """
    return BlockCost(
        name=name,
        delay=INVERT_MODE_DELAY,
        guardband=MIN_GUARDBAND,
        tdp=tdp,
    )
