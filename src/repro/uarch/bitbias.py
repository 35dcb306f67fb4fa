"""Interval-based residency accounting per bit position.

Storage structures accrue NBTI stress according to *how long* each bit
cell holds "0" vs "1" (Section 3.2).  Figures 6 and 8 report that per
bit position, summed over a structure's entries, and so does
:class:`BitBiasAccumulator`.  Accounting naively (every cell, every
cycle) is prohibitively slow; instead the accumulator closes a
residency interval only when an entry's value changes, and records it
*by value*, as one scalar add with no bit unpacking:

    pending[value] += now - since[entry]

Pending durations are folded into two per-position totals, ``zero``
and ``one``, in batches of at most :data:`FOLD_KEYS` values: whenever
``pending`` fills up, and before every read.  That keeps memory bounded
on long streams.  With numpy a fold unpacks the whole batch at once and
takes one product of its bits with the durations per total; without
numpy (the ``fast`` extra) it walks each value's bits.

Regrouping the additions is exact: the trace-driven core closes
intervals at whole cycles, so every duration and every partial sum is
an integer below 2**53, where float64 addition is associative.  The
totals are therefore bit-identical to adding each interval to each of
its bits as it closes (DESIGN.md, "Bias accounting").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.metrics import MetricSet, ordered_sum

#: Pending values that trigger a fold; also the largest batch one fold
#: unpacks, which bounds its scratch memory.
FOLD_KEYS = 256

#: Closed intervals awaiting a fold: ``(value, duration)`` pairs.
Pending = List[Tuple[int, float]]


def check_fits(value: int, width: int) -> None:
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value!r} does not fit in {width} bits")


def fold_numpy(zero, one, items: Pending, width: int) -> None:
    """Add a batch of closed intervals to float64 position totals: the
    batch is unpacked once into a ``values x width`` bit matrix, and
    each total takes one product with the durations, exactly (module
    docstring)."""
    count = len(items)
    durations = np.fromiter((held for __, held in items),
                            dtype=np.float64, count=count)
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(value.to_bytes(nbytes, "little") for value, __ in items),
        dtype=np.uint8).reshape(count, nbytes)
    bits = np.unpackbits(raw, axis=1, count=width, bitorder="little")
    one += durations @ bits
    zero += durations @ (1 - bits)


def fold_python(zero, one, items: Pending, width: int) -> None:
    """:func:`fold_numpy` on lists, for hosts without numpy."""
    for value, held in items:
        for bit in range(width):
            if (value >> bit) & 1:
                one[bit] += held
            else:
                zero[bit] += held


#: The fold of this host: numpy, or pure Python without numpy.
fold = fold_python if np is None else fold_numpy


def totals(width: int):
    """A zeroed per-position float vector for :func:`fold`."""
    return [0.0] * width if np is None else np.zeros(width)


def as_list(vector) -> List[float]:
    """A :func:`totals` vector as a list of Python floats."""
    return vector if isinstance(vector, list) else vector.tolist()


def _vector(values):
    return values if np is None else np.array(values, dtype=np.float64)


class BitBiasAccumulator:
    """Residency accounting for ``entries`` values of ``width`` bits.

    Parameters
    ----------
    entries:
        Number of structure entries.
    width:
        Number of bit cells per entry.
    initial_value:
        Value every entry holds at time zero (real silicon powers up to
        *something*; the paper's FP discussion notes the impact of the
        initial non-inverted content).

    ``values`` holds each entry's current value; change it only through
    :meth:`set_value`.  ``latest`` is the latest time a write or
    :meth:`finalize` has seen.
    """

    __slots__ = ("entries", "width", "initial_value", "values", "latest",
                 "_since", "_pending", "_zero", "_one")

    def __init__(self, entries: int, width: int, initial_value: int = 0) -> None:
        if entries <= 0 or width <= 0:
            raise ValueError("entries and width must be positive")
        check_fits(initial_value, width)
        self.entries = entries
        self.width = width
        self.initial_value = initial_value
        self._init_state()

    def _init_state(self) -> None:
        self.values = [self.initial_value] * self.entries
        self.latest = 0.0
        self._since = [0.0] * self.entries
        self._pending: Dict[int, float] = {}
        #: closed time any entry held "0" / "1", per bit position
        self._zero = totals(self.width)
        self._one = totals(self.width)

    def reset(self) -> None:
        """Discard all residency history and restart at time zero."""
        self._init_state()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_value(self, entry: int, value: int, now: float) -> None:
        """Record that ``entry`` changes to ``value`` at time ``now``:
        close its open interval, store the value and advance ``latest``,
        in one body (~10 writes per simulated uop).  No since-time is
        later than ``latest``, so only a closing interval advances it."""
        if value < 0 or value >> self.width:
            check_fits(value, self.width)
        since = self._since[entry]
        if now > since:
            held = self.values[entry]
            pending = self._pending
            if held in pending:
                pending[held] += now - since
            else:
                pending[held] = now - since
                if len(pending) >= FOLD_KEYS:
                    self._fold()
            if now > self.latest:
                self.latest = now
        elif now < since:
            raise ValueError(
                f"time went backwards for entry {entry}: {since} -> {now}"
            )
        self._since[entry] = now
        self.values[entry] = value

    def current_value(self, entry: int) -> int:
        return self.values[entry]

    def finalize(self, now: float) -> None:
        """Close all open intervals at time ``now`` (end of simulation)."""
        for entry, value in enumerate(self.values):
            self.set_value(entry, value, now)

    def _fold(self) -> None:
        if self._pending:
            fold(self._zero, self._one, list(self._pending.items()),
                 self.width)
            self._pending.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def bias_to_zero(self):
        """Per-bit-position bias towards "0", aggregated over entries.

        This is the quantity plotted on the Y axis of Figures 6 and 8.
        Positions never exercised report 0.5 (no stress information).
        Returns a float64 array, or a list without numpy.
        """
        self._fold()
        return _vector([z / (z + o) if z + o > 0.0 else 0.5
                        for z, o in zip(as_list(self._zero),
                                        as_list(self._one))])

    def worst_bias(self) -> float:
        """Worst per-bit-position imbalance, as max(bias, 1-bias)."""
        bias = self.bias_to_zero()
        return float(max(max(b, 1.0 - b) for b in bias))

    def worst_bit(self) -> Tuple[int, float]:
        """(bit position, bias) of the most imbalanced aggregated bit."""
        bias = self.bias_to_zero()
        best_index, best = 0, -1.0
        for index, b in enumerate(bias):
            imbalance = max(b, 1.0 - b)
            if imbalance > best:
                best_index, best = index, imbalance
        return best_index, float(bias[best_index])

    def total_observed_time(self) -> float:
        self._fold()
        return float(ordered_sum(as_list(self._zero))
                     + ordered_sum(as_list(self._one)))

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over the residency accounting.

        Bias reads aggregate only *closed* intervals; intervals still
        open at snapshot time contribute after the next value change or
        :meth:`finalize`.  Reading folds pending intervals into the
        totals but never changes what any later read reports.
        """
        ms = MetricSet()
        ms.counter("observed_time", read=self.total_observed_time,
                   help="sum of all closed residency intervals")
        ms.gauge("worst_bias", read=self.worst_bias)
        return ms
