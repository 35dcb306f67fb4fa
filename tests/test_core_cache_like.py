"""Tests for the cache inversion schemes and the Table 3 harness."""

import random

import pytest

from repro.core.cache_like import (
    LineDynamicScheme,
    LineFixedScheme,
    ProtectedCache,
    SetFixedScheme,
    performance_loss,
    run_cache_study,
)
from repro.uarch.backends import Cache, CacheConfig
from repro.workloads import generate_address_stream

CONFIG = CacheConfig(name="DL0-8K-4w", size_bytes=8 * 1024, ways=4)


def hot_stream(n=4000, span=2048, seed=0):
    """A stream that fits comfortably in half the cache."""
    rng = random.Random(seed)
    return [rng.randrange(span // 4) * 4 for __ in range(n)]


def big_stream(n=4000, span=16 * 1024, seed=0):
    """A stream that uses the full cache (and then some)."""
    rng = random.Random(seed)
    return [rng.randrange(span // 4) * 4 for __ in range(n)]


class TestSetFixedScheme:
    def test_everything_stays_cacheable(self):
        cache = Cache(CONFIG)
        protected = ProtectedCache(cache, SetFixedScheme(0.5))
        # Addresses mapping to inverted sets are folded into live sets:
        # they hit on re-access.
        for address in (0x0, 0x40, 0x1000, 0x12345 & ~0x3F):
            protected.access(address)
        for address in (0x0, 0x40, 0x1000, 0x12345 & ~0x3F):
            assert protected.access(address)

    def test_inverted_population(self):
        cache = Cache(CONFIG)
        scheme = SetFixedScheme(0.5)
        ProtectedCache(cache, scheme)
        assert cache.inverted_count() == CONFIG.lines // 2
        assert len(scheme.inverted_sets()) == CONFIG.sets // 2

    def test_capacity_effectively_halved(self):
        # A working set equal to the full cache thrashes under SetFixed.
        base = Cache(CONFIG)
        stream = big_stream(6000, span=CONFIG.size_bytes)
        for address in stream:
            base.access(address)
        prot_cache = Cache(CONFIG)
        protected = ProtectedCache(prot_cache, SetFixedScheme(0.5))
        for address in stream:
            protected.access(address)
        assert protected.stats.miss_rate > base.stats.miss_rate

    def test_distinct_lines_stay_distinct_after_folding(self):
        cache = Cache(CONFIG)
        protected = ProtectedCache(cache, SetFixedScheme(0.5))
        # Two lines that fold into the same live set must not alias.
        a = 0x0
        b = CONFIG.sets // 2 * CONFIG.line_bytes
        protected.access(a)
        protected.access(b)
        assert protected.access(a)
        assert protected.access(b)

    def test_ratio_zero_rotation_leaves_live_sets_alone(self):
        # With no inverted window a rotation's leaving and entering set
        # are one set: it used to be invalidated and fully inverted.
        stream = generate_address_stream("office", length=20_000, seed=0)
        baseline = Cache(CONFIG)
        baseline.replay(stream)
        protected = ProtectedCache(Cache(CONFIG),
                                   SetFixedScheme(0.0, rotation_period=1000))
        for address in stream:
            protected.access(address)
        assert protected.stats.misses == baseline.stats.misses
        assert protected.stats.inversions == 0
        assert protected.cache.inverted_count() == 0

    def test_rotation_preserves_population(self):
        cache = Cache(CONFIG)
        scheme = SetFixedScheme(0.5, rotation_period=10)
        protected = ProtectedCache(cache, scheme)
        for i in range(10 * (CONFIG.sets // 2 + 1)):
            protected.access(i * 64)
        assert cache.inverted_count() >= CONFIG.lines // 2 - CONFIG.ways

    def test_validation(self):
        with pytest.raises(ValueError):
            SetFixedScheme(ratio=1.0)
        with pytest.raises(ValueError):
            SetFixedScheme(rotation_period=0)


class TestLineFixedScheme:
    def test_maintains_invert_ratio_on_realistic_stream(self):
        cache = Cache(CONFIG)
        protected = ProtectedCache(cache, LineFixedScheme(0.5))
        for address in generate_address_stream("office", 6000, seed=3):
            protected.access(address)
        ratio = cache.inverted_count() / CONFIG.lines
        assert ratio == pytest.approx(0.5, abs=0.06)

    def test_ratio_degrades_gracefully_under_thrash(self):
        # A uniformly random working set twice the cache size consumes
        # inverted lines on ~70% of accesses; the mechanism keeps the
        # ratio within reach of the target without evicting MRU lines.
        cache = Cache(CONFIG)
        protected = ProtectedCache(cache, LineFixedScheme(0.5))
        for address in big_stream():
            protected.access(address)
        ratio = cache.inverted_count() / CONFIG.lines
        assert 0.3 < ratio <= 0.5

    def test_small_working_set_loses_nothing(self):
        base = Cache(CONFIG)
        stream = hot_stream()
        for address in stream:
            base.access(address)
        prot_cache = Cache(CONFIG)
        protected = ProtectedCache(prot_cache, LineFixedScheme(0.5))
        for address in stream:
            protected.access(address)
        assert (protected.stats.miss_rate
                <= base.stats.miss_rate + 0.02)

    def test_big_working_set_pays(self):
        base = Cache(CONFIG)
        stream = big_stream()
        for address in stream:
            base.access(address)
        prot_cache = Cache(CONFIG)
        protected = ProtectedCache(prot_cache, LineFixedScheme(0.5))
        for address in stream:
            protected.access(address)
        assert protected.stats.miss_rate > base.stats.miss_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            LineFixedScheme(ratio=-0.1)


class TestLineDynamicScheme:
    def _scheme(self, threshold):
        return LineDynamicScheme(ratio=0.6, threshold=threshold,
                                 warmup=300, test_window=300, period=2000)

    def test_activates_for_small_working_sets(self):
        cache = Cache(CONFIG)
        scheme = self._scheme(threshold=0.02)
        protected = ProtectedCache(cache, scheme)
        for address in hot_stream(8000):
            protected.access(address)
        assert scheme.activation_history
        assert any(scheme.activation_history)
        assert cache.inverted_count() > 0

    def test_deactivates_for_cache_fillers(self):
        cache = Cache(CONFIG)
        scheme = self._scheme(threshold=0.01)
        protected = ProtectedCache(cache, scheme)
        for address in big_stream(8000, span=32 * 1024):
            protected.access(address)
        assert scheme.activation_history
        assert not all(scheme.activation_history)

    def test_dynamic_beats_fixed_on_cache_fillers(self):
        stream = big_stream(8000, span=32 * 1024)
        fixed_cache = Cache(CONFIG)
        fixed = ProtectedCache(fixed_cache, LineFixedScheme(0.5))
        dynamic_cache = Cache(CONFIG)
        dynamic = ProtectedCache(dynamic_cache, self._scheme(0.01))
        for address in stream:
            fixed.access(address)
            dynamic.access(address)
        assert dynamic.stats.miss_rate <= fixed.stats.miss_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            LineDynamicScheme(period=100, warmup=60, test_window=60)
        with pytest.raises(ValueError):
            LineDynamicScheme(threshold=-0.1)


class TestPerformanceModel:
    def test_loss_proportional_to_delta(self):
        loss = performance_loss(0.02, 0.03, accesses_per_uop=0.36,
                                effective_penalty=3.0, base_cpi=0.8)
        assert loss == pytest.approx(0.36 * 0.01 * 3.0 / 0.8)

    def test_negative_delta_floored(self):
        assert performance_loss(0.05, 0.04, 0.36, 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            performance_loss(0.0, 0.0, -1.0, 3.0)


class TestRunCacheStudy:
    def test_baseline_factory_none(self):
        streams = [generate_address_stream("office", 2000, seed=1)]
        result = run_cache_study(CONFIG, None, streams)
        assert result.mean_loss == 0.0
        assert result.scheme_name == "baseline"

    def test_scheme_name_without_streams(self):
        # Regression: with no streams the name used to come from a loop
        # side effect and silently fell back to "baseline".
        result = run_cache_study(CONFIG, lambda: LineFixedScheme(0.5), [])
        assert result.scheme_name == "LineFixed50%"
        assert result.per_stream_loss == ()
        baseline = run_cache_study(CONFIG, None, [])
        assert baseline.scheme_name == "baseline"

    def test_linefixed_study_fields(self):
        streams = [
            generate_address_stream("office", 2000, seed=1),
            generate_address_stream("server", 2000, seed=1),
        ]
        result = run_cache_study(CONFIG, lambda: LineFixedScheme(0.5),
                                 streams)
        assert result.scheme_name == "LineFixed50%"
        assert len(result.per_stream_loss) == 2
        assert result.mean_loss >= 0.0
        assert 0.3 < result.mean_inverted_ratio <= 0.55
        assert 0.0 <= result.fraction_above.above(0.05) <= 1.0
