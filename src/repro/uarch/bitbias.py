"""Interval-based per-bit-cell residency accounting.

Storage structures accrue NBTI stress according to *how long* each bit
cell holds "0" vs "1" (Section 3.2).  Accounting naively (every cell,
every cycle) is prohibitively slow; instead :class:`BitBiasAccumulator`
closes a residency interval only when an entry's value changes, and
records it *by value*, as one scalar add with no bit unpacking:

    pending[(entry, value)] += now - since[entry]

Pending durations are folded into the ``entries x width`` matrices
``time_zero`` / ``time_one`` in batches of at most :data:`FOLD_KEYS`
keys: whenever ``pending`` fills up, and before every read.  That keeps
memory bounded on long streams.  The fold unpacks a whole batch at once
with numpy and sums it per entry; without numpy (the ``fast`` extra) a
pure-Python fold builds the same matrices.

Regrouping the additions is exact: the trace-driven core closes
intervals at whole cycles, so every duration and every partial sum is
an integer below 2**53, where float64 addition is associative.  The
matrices are therefore bit-identical to adding each interval to each of
its bits as it closes (DESIGN.md, "Bias accounting").
"""

from __future__ import annotations

from typing import Dict, List, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.metrics import MetricSet

#: Pending ``(entry, value)`` keys that trigger a fold; also the largest
#: batch one fold unpacks, which bounds its scratch memory.
FOLD_KEYS = 256

#: Closed intervals awaiting a fold: ``((entry, value), duration)``.
Pending = List[Tuple[Tuple[int, int], float]]


def check_fits(value: int, width: int) -> None:
    if value < 0:
        raise ValueError("value must be non-negative")
    if value >> width:
        raise ValueError(f"value {value!r} does not fit in {width} bits")


def unpack_bits(value: int, width: int):
    """Little-endian bit vector (uint8 array, or tuple without numpy)."""
    check_fits(value, width)
    if np is None:
        return tuple((value >> i) & 1 for i in range(width))
    raw = np.frombuffer(value.to_bytes((width + 7) // 8, "little"),
                        dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width]


def pack_bits(bits) -> int:
    """Inverse of :func:`unpack_bits`."""
    return sum(int(b) << i for i, b in enumerate(bits))


def fold_numpy(zero, one, items: Pending, width: int) -> None:
    """Add a batch of closed intervals to float64 ``zero``/``one``: a
    stable sort by entry and ``np.add.reduceat`` sum each entry's keys,
    exactly (module docstring), so each touched row takes one add."""
    count = len(items)
    entries = np.fromiter((key[0] for key, __ in items), dtype=np.intp,
                          count=count)
    durations = np.fromiter((held for __, held in items),
                            dtype=np.float64, count=count)
    nbytes = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(key[1].to_bytes(nbytes, "little") for key, __ in items),
        dtype=np.uint8).reshape(count, nbytes)
    order = np.argsort(entries, kind="stable")
    entries, durations = entries[order], durations[order]
    bits = np.unpackbits(raw[order], axis=1, bitorder="little")[:, :width]
    starts = np.flatnonzero(np.diff(entries, prepend=-1))
    touched = entries[starts]
    at_one = np.add.reduceat(bits * durations[:, None], starts, axis=0)
    held = np.add.reduceat(durations, starts)
    one[touched] += at_one
    zero[touched] += held[:, None] - at_one


def fold_python(zero, one, items: Pending, width: int) -> None:
    """:func:`fold_numpy` on nested lists, for hosts without numpy."""
    for (entry, value), held in items:
        zero_row, one_row = zero[entry], one[entry]
        for bit in range(width):
            if (value >> bit) & 1:
                one_row[bit] += held
            else:
                zero_row[bit] += held


#: The fold of this host: numpy, or pure Python without numpy.
fold = fold_python if np is None else fold_numpy


def matrix(entries: int, width: int):
    """A zeroed ``entries x width`` float matrix for :func:`fold`."""
    if np is None:
        return [[0.0] * width for _ in range(entries)]
    return np.zeros((entries, width), dtype=np.float64)


def rows(cells) -> List[List[float]]:
    """A :func:`matrix` as nested lists of Python floats."""
    return cells if isinstance(cells, list) else cells.tolist()


def _vector(values):
    return values if np is None else np.array(values, dtype=np.float64)


class BitBiasAccumulator:
    """Residency accounting for a matrix of bit cells.

    Parameters
    ----------
    entries:
        Number of rows (structure entries).
    width:
        Number of bit cells per entry.
    initial_value:
        Value every entry holds at time zero (real silicon powers up to
        *something*; the paper's FP discussion notes the impact of the
        initial non-inverted content).
    """

    __slots__ = ("entries", "width", "initial_value", "_zero", "_one",
                 "_values", "_since", "_pending")

    def __init__(self, entries: int, width: int, initial_value: int = 0) -> None:
        if entries <= 0 or width <= 0:
            raise ValueError("entries and width must be positive")
        check_fits(initial_value, width)
        self.entries = entries
        self.width = width
        self.initial_value = initial_value
        self._init_state()

    def _init_state(self) -> None:
        self._zero = matrix(self.entries, self.width)
        self._one = matrix(self.entries, self.width)
        self._values = [self.initial_value] * self.entries
        self._since = [0.0] * self.entries
        self._pending: Dict[Tuple[int, int], float] = {}

    def reset(self) -> None:
        """Discard all residency history and restart at time zero."""
        self._init_state()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_value(self, entry: int, value: int, now: float) -> None:
        """Record that ``entry`` changes to ``value`` at time ``now``."""
        if value < 0 or value >> self.width:
            check_fits(value, self.width)
        self._close(entry, now)
        self._values[entry] = value

    def current_value(self, entry: int) -> int:
        return self._values[entry]

    def finalize(self, now: float) -> None:
        """Close all open intervals at time ``now`` (end of simulation)."""
        for entry in range(self.entries):
            self._close(entry, now)

    def _close(self, entry: int, now: float) -> None:
        since = self._since[entry]
        if now > since:
            key = (entry, self._values[entry])
            pending = self._pending
            if key in pending:
                pending[key] += now - since
            else:
                pending[key] = now - since
                if len(pending) >= FOLD_KEYS:
                    self._fold()
        elif now < since:
            raise ValueError(
                f"time went backwards for entry {entry}: {since} -> {now}"
            )
        self._since[entry] = now

    def _fold(self) -> None:
        if self._pending:
            fold(self._zero, self._one, list(self._pending.items()),
                 self.width)
            self._pending.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    @property
    def time_zero(self):
        """Closed time each cell held "0" (entries x width)."""
        self._fold()
        return self._zero

    @property
    def time_one(self):
        """Closed time each cell held "1" (entries x width)."""
        self._fold()
        return self._one

    def bias_to_zero(self):
        """Per-bit-position bias towards "0", aggregated over entries.

        This is the quantity plotted on the Y axis of Figures 6 and 8.
        Positions never exercised report 0.5 (no stress information).
        Returns a float64 array, or a list without numpy.
        """
        zero = [sum(column) for column in zip(*rows(self.time_zero))]
        one = [sum(column) for column in zip(*rows(self.time_one))]
        return _vector([z / (z + o) if z + o > 0.0 else 0.5
                        for z, o in zip(zero, one)])

    def cell_bias_to_zero(self):
        """Per-cell (entries x width) bias towards "0"."""
        return _vector([
            [z / (z + o) if z + o > 0.0 else 0.5
             for z, o in zip(zero_row, one_row)]
            for zero_row, one_row in zip(rows(self.time_zero),
                                         rows(self.time_one))
        ])

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
        return float(sum(map(sum, rows(self.time_zero)))
                     + sum(map(sum, rows(self.time_one))))

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over the residency accounting.

        Bias reads aggregate only *closed* intervals; intervals still
        open at snapshot time contribute after the next value change or
        :meth:`finalize`.  Reading folds pending intervals into the
        matrices but never changes what any later read reports.
        """
        ms = MetricSet()
        ms.counter("observed_time", read=self.total_observed_time,
                   help="sum of all closed residency intervals")
        ms.gauge("worst_bias", read=self.worst_bias)
        return ms
