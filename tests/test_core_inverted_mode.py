"""Tests for the conventional periodic-inversion alternative."""

import pytest

from repro.core.inverted_mode import (
    PeriodicInversionScheme,
    inverted_mode_block_cost,
)
from repro.core.cache_like import ProtectedCache
from repro.uarch.backends import Cache, CacheConfig

CONFIG = CacheConfig(name="L2ish", size_bytes=8 * 1024, ways=4)


class TestPeriodicInversionScheme:
    def test_mode_flips_at_period(self):
        scheme = PeriodicInversionScheme(period=100)
        protected = ProtectedCache(Cache(CONFIG), scheme)
        for i in range(250):
            protected.access(i % 16 * 64)
        assert scheme.flips == 2
        assert scheme.inverted_mode is False  # two flips: back to normal

    def test_mode_balance_converges_to_half(self):
        scheme = PeriodicInversionScheme(period=50)
        protected = ProtectedCache(Cache(CONFIG), scheme)
        for i in range(1000):
            protected.access(i % 16 * 64)
        assert scheme.mode_balance == pytest.approx(0.5, abs=0.05)

    def test_flush_costs_misses(self):
        hot = [i % 32 * 64 for i in range(600)]
        flush = PeriodicInversionScheme(period=100, flush_on_flip=True)
        p_flush = ProtectedCache(Cache(CONFIG), flush)
        noflush = PeriodicInversionScheme(period=100, flush_on_flip=False)
        p_noflush = ProtectedCache(Cache(CONFIG), noflush)
        for address in hot:
            p_flush.access(address)
            p_noflush.access(address)
        assert p_flush.stats.misses > p_noflush.stats.misses

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicInversionScheme(period=0)


class TestInvertedModeBlockCost:
    def test_paper_number(self):
        cost = inverted_mode_block_cost()
        assert cost.efficiency == pytest.approx(1.41, abs=0.005)

    def test_cpi_factor_compounds(self):
        slower = inverted_mode_block_cost(cpi_factor=1.05)
        assert slower.efficiency > inverted_mode_block_cost().efficiency

    def test_validation(self):
        with pytest.raises(ValueError):
            inverted_mode_block_cost(cpi_factor=0.9)
