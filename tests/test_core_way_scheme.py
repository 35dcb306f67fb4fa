"""Tests for the way-granularity inversion scheme."""

import random

import pytest

from repro.core.cache_like import ProtectedCache, WayFixedScheme
from repro.uarch.backends import Cache, CacheConfig, LineState

CONFIG = CacheConfig(name="DL0-8K-4w", size_bytes=8 * 1024, ways=4)


def stream(n=4000, span=2048, seed=0):
    rng = random.Random(seed)
    return [rng.randrange(span // 4) * 4 for __ in range(n)]


class TestWayFixedScheme:
    def test_inverted_ways_stay_inverted(self):
        cache = Cache(CONFIG)
        scheme = WayFixedScheme(0.5, rotation_period=10_000)
        protected = ProtectedCache(cache, scheme)
        for address in stream():
            protected.access(address)
        for way in scheme.inverted_ways():
            for set_index in range(CONFIG.sets):
                assert cache.line_state(set_index, way) is \
                    LineState.INVERTED

    def test_population_is_exact(self):
        cache = Cache(CONFIG)
        scheme = WayFixedScheme(0.5, rotation_period=10_000)
        ProtectedCache(cache, scheme)
        assert cache.inverted_count() == CONFIG.lines // 2
        assert len(scheme.inverted_ways()) == 2

    def test_acts_as_lower_associativity(self):
        # A working set needing all four ways per set thrashes.
        cache = Cache(CONFIG)
        protected = ProtectedCache(cache, WayFixedScheme(0.5,
                                                         rotation_period=10**6))
        sets = CONFIG.sets
        line = CONFIG.line_bytes
        # Four lines mapping to set 0.
        addresses = [i * sets * line for i in range(4)]
        for __ in range(8):
            for address in addresses:
                protected.access(address)
        # Only two live ways: at most two of the four lines resident.
        hits = protected.stats.hits
        protected_rate = hits / protected.stats.accesses
        baseline = Cache(CONFIG)
        for __ in range(8):
            for address in addresses:
                baseline.access(address)
        assert protected_rate < baseline.stats.hit_rate

    def test_small_working_set_unharmed(self):
        base = Cache(CONFIG)
        addresses = stream(span=1024)
        for address in addresses:
            base.access(address)
        protected = ProtectedCache(Cache(CONFIG),
                                   WayFixedScheme(0.5,
                                                  rotation_period=10**6))
        for address in addresses:
            protected.access(address)
        assert protected.stats.miss_rate <= base.stats.miss_rate + 0.02

    def test_rotation_moves_window(self):
        cache = Cache(CONFIG)
        scheme = WayFixedScheme(0.5, rotation_period=50)
        protected = ProtectedCache(cache, scheme)
        before = tuple(scheme.inverted_ways())
        # 120 accesses = 2 rotations (not a multiple of the 4-way cycle).
        for address in stream(120):
            protected.access(address)
        assert tuple(scheme.inverted_ways()) != before
        assert cache.inverted_count() == CONFIG.lines // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WayFixedScheme(ratio=1.0)
        with pytest.raises(ValueError):
            WayFixedScheme(rotation_period=0)
        cache = Cache(CacheConfig(name="direct", size_bytes=4096, ways=1))
        with pytest.raises(ValueError):
            ProtectedCache(cache, WayFixedScheme(0.5))


class TestVictimPolicyInteraction:
    def test_fills_never_land_in_inverted_ways(self):
        cache = Cache(CONFIG)
        scheme = WayFixedScheme(0.5, rotation_period=10**6)
        protected = ProtectedCache(cache, scheme)
        inverted = set(scheme.inverted_ways())
        for address in stream(2000, span=64 * 1024):
            protected.access(address)
        for set_index in range(CONFIG.sets):
            for way in inverted:
                assert cache.line_state(set_index, way) is \
                    LineState.INVERTED

    def test_cached_lines_are_rereferencable(self):
        protected = ProtectedCache(Cache(CONFIG),
                                   WayFixedScheme(0.5,
                                                  rotation_period=10**6))
        protected.access(0x100)
        assert protected.access(0x100)
