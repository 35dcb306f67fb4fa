"""The conventional alternative: operating in inverted mode (Section 3).

Prior work [Kumar et al., ISQED 2006] flips a memory-like structure
between normal and inverted modes so each bit cell statistically holds
"0" half of the time.  The costs the paper charges it with:

- an XNOR in every read/write data path (~1 FO4 on a 10 FO4 cycle:
  ~10% cycle-time impact),
- no coverage of combinational blocks (inverted and non-inverted inputs
  may stress the same PMOS), and
- for caches, either flushing on every mode flip or tolerating stale
  inverted contents.

:class:`PeriodicInversionScheme` implements it for cache-like blocks so
the trade-off is measurable rather than asserted, and
:func:`inverted_mode_block_cost` prices it for the metric.
"""

from __future__ import annotations

import random
from repro.core.cache_like import InversionScheme
from repro.core.metric import (
    BlockCost,
    INVERT_MODE_DELAY,
    MIN_GUARDBAND,
)
from repro.uarch.backends import Cache


class PeriodicInversionScheme(InversionScheme):
    """Whole-structure periodic inversion for cache-like blocks.

    Every ``period`` accesses the mode flips.  With ``flush_on_flip``
    (the conservative implementation) the whole structure is invalidated
    at each flip — contents stored in the old polarity are unreadable in
    the new one without the double-pumped arrays the paper deems too
    expensive.  ``flush_on_flip=False`` models dual-polarity arrays that
    re-interpret contents on the fly (no misses, pure delay cost).
    """

    __slots__ = ("period", "flush_on_flip", "_accesses",
                 "_inverted_accesses", "inverted_mode", "flips")

    def __init__(self, period: int = 100_000,
                 flush_on_flip: bool = True) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period
        self.flush_on_flip = flush_on_flip
        self.name = "InvertPeriodically"
        self._accesses = 0
        self._inverted_accesses = 0
        self.inverted_mode = False
        self.flips = 0

    def attach(self, cache: Cache, rng: random.Random) -> None:
        super().attach(cache, rng)

    def reset(self) -> None:
        """Forget access counts and mode so a re-attach starts cold.

        Without this, a :class:`~repro.core.cache_like.ProtectedCache`
        ``reset()`` (e.g. between two ``replay()`` runs of one study
        point) kept the scheme mid-period and possibly inverted —
        the second run was not bit-identical to the first.
        """
        self._accesses = 0
        self._inverted_accesses = 0
        self.inverted_mode = False
        self.flips = 0

    def access(self, address: int) -> bool:
        self._accesses += 1
        if self.inverted_mode:
            self._inverted_accesses += 1
        if self._accesses % self.period == 0:
            self._flip()
        return self.cache.access(address)

    @property
    def mode_balance(self) -> float:
        """Fraction of time spent inverted (-> 0.5 after many periods)."""
        if self._accesses == 0:
            return 0.0
        return self._inverted_accesses / self._accesses

    def _flip(self) -> None:
        self.inverted_mode = not self.inverted_mode
        self.flips += 1
        if self.flush_on_flip:
            for set_index in range(self.cache.config.sets):
                for way in range(self.cache.config.ways):
                    self.cache.invalidate_line(set_index, way)


def inverted_mode_block_cost(
    name: str = "invert-periodically",
    cpi_factor: float = 1.0,
    tdp: float = 1.0,
) -> BlockCost:
    """Metric cost of a memory-like block run in inverted mode.

    ``cpi_factor`` carries any measured flush-induced CPI loss (use a
    :class:`PeriodicInversionScheme` study to obtain it); the cycle-time
    cost of the data-path XNOR and the post-balancing guardband floor
    are the paper's Section 4.2 constants.
    """
    if cpi_factor < 1.0:
        raise ValueError("cpi_factor cannot be below 1.0")
    return BlockCost(
        name=name,
        delay=INVERT_MODE_DELAY * cpi_factor,
        guardband=MIN_GUARDBAND,
        tdp=tdp,
    )
