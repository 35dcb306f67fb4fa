"""Biased operand and address generators.

Section 1.1 of the paper observes that real program data is heavily
biased: "zero-signal probability for the integer register file ranges
between 65% and 90% for all bits", the adder carry-in is "0" more than
90% of the time, and some scheduler fields sit at almost 100%.  The
generators here synthesise operand streams with those fingerprints:

- integers are a mixture of loop counters, aligned addresses, small
  constants and occasional random words — high bits are almost always 0,
  low bits are zero more often than not;
- FP values use the x87 80-bit extended encoding of mostly-small,
  mostly-simple reals, giving the structured bias of Figure 6 (FP);
- addresses follow per-suite working sets with hot regions, strides and
  a random tail.
"""

from __future__ import annotations

import math
import random
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List

from repro.metrics import ordered_sum
from repro.uarch.uop import FP_WIDTH, INT_WIDTH

_INT_MASK = (1 << INT_WIDTH) - 1


def randbelow(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: the draw ``rng.randrange(n)`` makes, for ``n > 0``.

    CPython 3.10-3.13 draw ``randrange(n)`` as ``getrandbits(k)`` with
    ``k = n.bit_length()``, redrawn while it is >= n; ``choice(seq)``
    is ``seq[randrange(len(seq))]`` and ``randrange(a, b)`` is ``a +
    randrange(b - a)``.  ``below`` makes exactly those draws without
    ``randrange``'s argument handling (``tests/test_synthesis_pins.py``
    pins the rules on the running interpreter).
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        bits = n.bit_length()
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        return value

    return below


def encode_x87(value: float) -> int:
    """Encode a float as an x87 80-bit extended-precision integer.

    Layout (little-endian bit order): 63-bit fraction, 1 explicit
    integer bit, 15-bit biased exponent, 1 sign bit.  The encoding goes
    through IEEE-754 double and widens, which is exact for every double.
    """
    if math.isnan(value) or math.isinf(value):
        raise ValueError("NaN/Inf operands are not generated")
    if value == 0.0:
        return 0
    bits64 = struct.unpack("<Q", struct.pack("<d", value))[0]
    sign = bits64 >> 63
    exponent11 = (bits64 >> 52) & 0x7FF
    fraction52 = bits64 & ((1 << 52) - 1)
    if exponent11 == 0:
        # Subnormal double: normalise into the explicit-integer-bit form.
        shift = 52 - fraction52.bit_length() + 1
        fraction52 = (fraction52 << shift) & ((1 << 52) - 1)
        exponent15 = 16383 - 1022 - shift
    else:
        exponent15 = exponent11 - 1023 + 16383
    integer_bit = 1
    fraction63 = fraction52 << 11
    return (sign << 79) | (exponent15 << 64) | (integer_bit << 63) | fraction63


@dataclass
class BiasedIntGenerator:
    """Mixture model for integer operand values.

    The mixture weights are per-suite knobs; defaults give the 65-90%
    per-bit zero bias of Section 1.1.
    """

    rng: random.Random
    counter_weight: float = 0.35
    address_weight: float = 0.25
    constant_weight: float = 0.15
    medium_weight: float = 0.15
    random_weight: float = 0.10
    #: Address region base / size for address-like values.
    region_base: int = 0x0040_0000
    region_bytes: int = 1 << 22

    def __post_init__(self) -> None:
        weights = [
            self.counter_weight,
            self.address_weight,
            self.constant_weight,
            self.medium_weight,
            self.random_weight,
        ]
        total = ordered_sum(weights)
        if any(w < 0 for w in weights) or total <= 0:
            raise ValueError("mixture weights must be non-negative, sum > 0")
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._below = randbelow(self.rng)
        # A start counter nothing reads; every trace depends on the draw.
        self._below(256)

    def next(self) -> int:
        random, below = self.rng.random, self._below
        draw = random()
        if draw < self._cdf[0]:
            # Loop counters / indices: geometric magnitudes with sparse
            # set bits (ANDed uniforms: each bit is 1 only 25% of the
            # time), word-stride biased so low bits are often 0.  A small
            # negative (two's-complement) tail keeps high bits from being
            # 0 *all* the time, as real index arithmetic does.
            bits = (3, 4, 5, 6, 8, 10)[below(6)]
            value = (below(1 << bits) & below(1 << bits)) * 4
            if random() < 0.08:
                return (-value - 4) & _INT_MASK
            return value
        if draw < self._cdf[1]:
            # Word-aligned addresses: region base plus a sparse geometric
            # offset (most accesses land near the base of the hot region).
            bits = (6, 8, 10, 12, 14, 16)[below(6)]
            offset = (below(1 << bits) & below(1 << bits)) * 4
            return (self.region_base + offset) & _INT_MASK
        if draw < self._cdf[2]:
            # Small constants: 0, 1, powers of two, -1-ish masks.
            choice = random()
            if choice < 0.5:
                return (0, 1, 2, 4, 8)[below(5)]
            if choice < 0.85:
                return 1 << below(12)
            return _INT_MASK  # an all-ones mask now and then
        if draw < self._cdf[3]:
            # Medium magnitudes: 16-bit-ish quantities, sparse set bits.
            return below(1 << 16) & below(1 << 16)
        return below(1 << INT_WIDTH)


@dataclass
class FPValueGenerator:
    """Biased x87 operand values.

    Real FP data is dominated by small magnitudes, integers stored as
    floats and simple fractions; random 64-bit-mantissa reals are rare.
    """

    rng: random.Random
    small_int_weight: float = 0.35
    simple_real_weight: float = 0.35
    uniform_weight: float = 0.20
    zero_weight: float = 0.10

    #: Fraction of non-zero values that are negative (sign bit set).
    negative_fraction: float = 0.15

    def next_float(self) -> float:
        draw = self.rng.random()
        if draw < self.zero_weight:
            return 0.0
        if draw < self.zero_weight + self.small_int_weight:
            magnitude = float(self.rng.randrange(1, 1000))
        elif draw < (self.zero_weight + self.small_int_weight
                     + self.simple_real_weight):
            magnitude = (self.rng.randrange(1, 64)
                         / self.rng.choice((2, 4, 8, 10, 100)))
        else:
            magnitude = self.rng.uniform(1e-3, 1e6)
        if self.rng.random() < self.negative_fraction:
            return -magnitude
        return magnitude

    def next(self) -> int:
        """Next operand as an 80-bit x87 pattern."""
        return encode_x87(self.next_float()) & ((1 << FP_WIDTH) - 1)


@dataclass
class AddressGenerator:
    """Per-suite memory address streams.

    A working set is a few hot regions accessed with strides plus a
    random tail; the working-set size is the per-suite knob that drives
    the Table 3 cache results (programs with working sets larger than
    the shrunk cache lose performance under inversion; small ones do
    not).
    """

    rng: random.Random
    working_set_bytes: int = 16 * 1024
    hot_fraction: float = 0.92
    stride_bytes: int = 4
    regions: int = 4
    base: int = 0x1000_0000
    #: Look-back window of the cold stream's backward jumps; small, so
    #: cold traffic is compulsory-miss-dominated at any cache size.
    cold_bytes: int = 32 * 1024

    def __post_init__(self) -> None:
        if self.working_set_bytes <= 0:
            raise ValueError("working_set_bytes must be positive")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be within [0, 1]")
        region_bytes = max(self.stride_bytes,
                           self.working_set_bytes // max(self.regions, 1))
        if region_bytes < 4:
            raise ValueError(
                f"hot regions of {region_bytes} bytes are narrower than one "
                "4-byte word; widen working_set_bytes or stride_bytes")
        self._region_bytes = region_bytes
        self._bases = [
            self.base + i * (region_bytes + 64 * 1024)
            for i in range(max(self.regions, 1))
        ]
        self._cursors = [0] * len(self._bases)
        self._cold_base = self.base + len(self._bases) * (
            region_bytes + 64 * 1024
        )
        self._cold_cursor = 0
        # Zipf-like region weights: real programs concentrate most of
        # their reuse in a small hot core, so halving the cache mostly
        # sacrifices the rarely-touched tail regions (this is what keeps
        # the paper's Table 3 losses under ~2%).
        weights = [0.6 ** i for i in range(len(self._bases))]
        total = ordered_sum(weights)
        self._region_cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._region_cdf.append(acc)

    def next(self) -> int:
        return self.take(1)[0]

    def take(self, n: int) -> List[int]:
        """The next ``n`` addresses, drawn in one loop.

        Each address makes the same draws from ``rng`` however a stream
        is split into calls, so ``take(a) + take(b)`` is ``take(a + b)``
        and :meth:`next` is ``take(1)[0]``.  ``randrange`` draws are
        made as :func:`randbelow` makes them.
        """
        random, getrandbits = self.rng.random, self.rng.getrandbits
        hot_fraction, stride = self.hot_fraction, self.stride_bytes
        region_bytes, cdf = self._region_bytes, self._region_cdf
        last_region = len(cdf) - 1
        bases, cursors = self._bases, self._cursors
        words = region_bytes // 4
        word_bits = words.bit_length()
        cold_base, cold_bytes = self._cold_base, self.cold_bytes
        cold_cursor = self._cold_cursor
        addresses: List[int] = []
        append = addresses.append
        for __ in range(n):
            if random() < hot_fraction:
                # The first region whose CDF edge lies above the draw,
                # else the last (the edges may round below 1.0).
                region = bisect_right(cdf, random(), 0, last_region)
                if random() < 0.9:
                    # Word-by-word stride: consecutive accesses land in
                    # the same cache line most of the time (spatial
                    # locality is what puts 90% of DL0 hits in the MRU
                    # way).
                    offset = (cursors[region] + stride) % region_bytes
                    cursors[region] = offset
                else:
                    # A random word: randrange(words) * 4.
                    offset = getrandbits(word_bits)
                    while offset >= words:
                        offset = getrandbits(word_bits)
                    offset *= 4
                append(bases[region] + offset)
            # Cold tail: a monotonic stream (compulsory misses for any
            # cache size — no reuse a bigger structure could exploit)
            # with nearby backward jumps that stay within a recent,
            # small window.
            elif random() < 0.6:
                cold_cursor += 64
                append(cold_base + cold_cursor)
            else:
                # A jump back of randrange(lines) lines.  max(), not
                # `or 1`: a negative cold_bytes makes the window
                # negative, and that must still draw below 1.
                lines = max(1, min(cold_cursor, cold_bytes) // 64)
                bits = lines.bit_length()
                offset = getrandbits(bits)
                while offset >= lines:
                    offset = getrandbits(bits)
                append(cold_base + cold_cursor - offset * 64)
        self._cold_cursor = cold_cursor
        return addresses
