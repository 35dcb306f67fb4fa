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
from dataclasses import dataclass
from typing import List

from repro.metrics import ordered_sum
from repro.uarch.uop import FP_WIDTH, INT_WIDTH

_INT_MASK = (1 << INT_WIDTH) - 1


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
        self._counter = self.rng.randrange(256) * 4

    def next(self) -> int:
        draw = self.rng.random()
        if draw < self._cdf[0]:
            # Loop counters / indices: geometric magnitudes with sparse
            # set bits (ANDed uniforms: each bit is 1 only 25% of the
            # time), word-stride biased so low bits are often 0.  A small
            # negative (two's-complement) tail keeps high bits from being
            # 0 *all* the time, as real index arithmetic does.
            bits = self.rng.choice((3, 4, 5, 6, 8, 10))
            value = (self.rng.randrange(1 << bits)
                     & self.rng.randrange(1 << bits)) * 4
            if self.rng.random() < 0.08:
                return (-value - 4) & _INT_MASK
            return value
        if draw < self._cdf[1]:
            # Word-aligned addresses: region base plus a sparse geometric
            # offset (most accesses land near the base of the hot region).
            bits = self.rng.choice((6, 8, 10, 12, 14, 16))
            offset = (self.rng.randrange(1 << bits)
                      & self.rng.randrange(1 << bits)) * 4
            return (self.region_base + offset) & _INT_MASK
        if draw < self._cdf[2]:
            # Small constants: 0, 1, powers of two, -1-ish masks.
            choice = self.rng.random()
            if choice < 0.5:
                return self.rng.choice((0, 1, 2, 4, 8))
            if choice < 0.85:
                return 1 << self.rng.randrange(12)
            return _INT_MASK  # an all-ones mask now and then
        if draw < self._cdf[3]:
            # Medium magnitudes: 16-bit-ish quantities, sparse set bits.
            return (self.rng.randrange(1 << 16)
                    & self.rng.randrange(1 << 16))
        return self.rng.randrange(1 << INT_WIDTH)


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

    def _pick_region(self) -> int:
        draw = self.rng.random()
        for region, edge in enumerate(self._region_cdf):
            if draw < edge:
                return region
        return len(self._region_cdf) - 1

    def next(self) -> int:
        if self.rng.random() < self.hot_fraction:
            region = self._pick_region()
            if self.rng.random() < 0.9:
                # Word-by-word stride: consecutive accesses land in the
                # same cache line most of the time (spatial locality is
                # what puts 90% of DL0 hits in the MRU way).
                self._cursors[region] = (
                    self._cursors[region] + self.stride_bytes
                ) % self._region_bytes
                offset = self._cursors[region]
            else:
                offset = self.rng.randrange(self._region_bytes // 4) * 4
            return self._bases[region] + offset
        # Cold tail: a monotonic stream (compulsory misses for any cache
        # size — no reuse a bigger structure could exploit) with nearby
        # backward jumps that stay within a recent, small window.
        if self.rng.random() < 0.6:
            self._cold_cursor += 64
            return self._cold_base + self._cold_cursor
        lookback = min(self._cold_cursor, self.cold_bytes)
        offset = self.rng.randrange(max(1, lookback // 64)) * 64
        return self._cold_base + self._cold_cursor - offset
