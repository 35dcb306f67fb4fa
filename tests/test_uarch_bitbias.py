"""Unit tests for interval-based residency accounting per bit position."""

import pytest

np = pytest.importorskip("numpy")

from repro.uarch.bitbias import BitBiasAccumulator


def held_bits(value, width):
    """Hold ``value`` in one entry for one unit; returns the positions
    read back as always one, packed into an int (little-endian)."""
    acc = BitBiasAccumulator(entries=1, width=width, initial_value=value)
    acc.finalize(1.0)
    return sum(1 << bit for bit, bias in enumerate(acc.bias_to_zero())
               if bias == 0.0)


class TestUnpackPack:
    """The fold unpacks each value into its bit positions, little-endian."""

    @pytest.mark.parametrize("value,width", [
        (0, 8), (1, 8), (255, 8), (0b1010, 4), (1 << 79, 80), (12345, 16),
    ])
    def test_roundtrip(self, value, width):
        assert held_bits(value, width) == value

    def test_little_endian_order(self):
        acc = BitBiasAccumulator(entries=1, width=3, initial_value=0b110)
        acc.finalize(1.0)
        assert list(acc.bias_to_zero()) == [1.0, 0.0, 0.0]

    def test_width_overflow_rejected(self):
        acc = BitBiasAccumulator(entries=1, width=8)
        with pytest.raises(ValueError):
            acc.set_value(0, 256, 1.0)

    def test_negative_rejected(self):
        acc = BitBiasAccumulator(entries=1, width=8)
        with pytest.raises(ValueError):
            acc.set_value(0, -1, 1.0)

    def test_cached_small_width_consistent(self):
        # Closed intervals wait in a cache keyed by value; a read folds
        # them early, which must not change any later read.
        read, unread = (BitBiasAccumulator(entries=2, width=8)
                        for __ in range(2))
        for acc in (read, unread):
            acc.set_value(0, 5, 1.0)
            acc.set_value(1, 5, 2.0)
        read.bias_to_zero()
        for acc in (read, unread):
            acc.set_value(0, 0xF0, 4.0)
            acc.finalize(6.0)
        assert np.array_equal(read.bias_to_zero(), unread.bias_to_zero())


class TestBitBiasAccumulator:
    def test_single_entry_residency(self):
        acc = BitBiasAccumulator(entries=1, width=4)
        acc.set_value(0, 0b1111, now=2.0)   # zeros held for 2 units
        acc.finalize(6.0)                   # ones held for 4 units
        bias = acc.bias_to_zero()
        assert np.allclose(bias, [2 / 6] * 4)

    def test_initial_value(self):
        acc = BitBiasAccumulator(entries=2, width=2, initial_value=0b11)
        acc.finalize(1.0)
        assert np.allclose(acc.bias_to_zero(), [0.0, 0.0])

    def test_aggregated_bias_weights_by_time(self):
        acc = BitBiasAccumulator(entries=2, width=1)
        acc.set_value(0, 1, now=0.0)  # entry 0 holds 1 forever
        acc.finalize(4.0)             # entry 1 holds 0 forever
        assert acc.bias_to_zero()[0] == pytest.approx(0.5)

    def test_worst_bias_and_bit(self):
        acc = BitBiasAccumulator(entries=1, width=3)
        acc.set_value(0, 0b010, now=0.0)
        acc.finalize(10.0)
        assert acc.worst_bias() == pytest.approx(1.0)
        bit, bias = acc.worst_bit()
        assert bit in (0, 2)
        assert bias == pytest.approx(1.0)

    def test_time_backwards_rejected(self):
        acc = BitBiasAccumulator(entries=1, width=1)
        acc.set_value(0, 1, now=5.0)
        with pytest.raises(ValueError):
            acc.set_value(0, 0, now=3.0)

    def test_out_of_order_across_entries_allowed(self):
        acc = BitBiasAccumulator(entries=2, width=1)
        acc.set_value(0, 1, now=5.0)
        acc.set_value(1, 1, now=3.0)  # earlier time, different entry: fine
        acc.finalize(10.0)

    def test_current_value(self):
        acc = BitBiasAccumulator(entries=1, width=8)
        acc.set_value(0, 171, now=1.0)
        assert acc.current_value(0) == 171

    def test_unobserved_reports_half(self):
        acc = BitBiasAccumulator(entries=1, width=2)
        assert np.allclose(acc.bias_to_zero(), [0.5, 0.5])

    def test_total_observed_time(self):
        acc = BitBiasAccumulator(entries=2, width=4)
        acc.finalize(3.0)
        assert acc.total_observed_time() == pytest.approx(2 * 4 * 3.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            BitBiasAccumulator(entries=0, width=4)
        with pytest.raises(ValueError):
            BitBiasAccumulator(entries=4, width=0)
