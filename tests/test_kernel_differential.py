"""Differential tests pinning the hot-path kernel refactor.

The cache keeps incremental ``inverted_count()`` / ``shadow_count()``
counters and a position-indexed LRU, and offers a batched ``replay()``
next to per-access ``access()``.  These tests compare all of that
against brute-force oracles:

- counters vs. an O(sets x ways) rescan of the public line state,
- ``replay()`` vs. an ``access()``-per-address run (hit/miss sequence,
  stats, counters, final line states, scheme state and RNG state),
- a reset ``ProtectedCache`` vs. a freshly-built one,
- the batched line-scheme set draw vs. ``random.Random.randrange``.

Streams are random but seeded; every scheme granularity of Section
3.2.1 is covered.
"""

import random

import pytest

from repro.core.cache_like import (
    LineDynamicScheme,
    LineFixedScheme,
    ProtectedCache,
    SetFixedScheme,
    WayFixedScheme,
)
from repro.experiments.registry import AnyPositionLineFixedScheme
from repro.uarch.backends import Cache, CacheConfig, LineState
from repro.uarch.tlb import TLB, TLBConfig

CONFIG = CacheConfig(name="diff-2K-4w", size_bytes=2 * 1024, ways=4)

SCHEME_FACTORIES = {
    "set_fixed": lambda: SetFixedScheme(0.5, rotation_period=500),
    "way_fixed": lambda: WayFixedScheme(0.5, rotation_period=500),
    "line_fixed": lambda: LineFixedScheme(0.5),
    "line_dynamic": lambda: LineDynamicScheme(
        ratio=0.6, threshold=0.02, warmup=200, test_window=200,
        period=1200,
    ),
}

#: Structures the replay oracle runs every scheme on: CONFIG, a
#: direct-mapped, a 2-way and an 8-way cache, and a TLB (fed the
#: stream scaled from lines to pages).
STRUCTURES = {
    "4w": lambda: Cache(CONFIG),
    "1w": lambda: Cache(CacheConfig(name="diff-1K-1w", size_bytes=1024,
                                    ways=1)),
    "2w": lambda: Cache(CacheConfig(name="diff-2K-2w", size_bytes=2048,
                                    ways=2)),
    "8w": lambda: Cache(CacheConfig(name="diff-4K-8w", size_bytes=4096,
                                    ways=8)),
    "tlb": lambda: TLB(TLBConfig(name="diff-TLB-32", entries=32, ways=4)),
}

#: Extra phase variants the replay oracle runs on CONFIG: LineDynamic
#: periods with a test boundary on the 3000-address stream's last
#: address (3000 % 1400 == 200 == warmup, 3000 % 11 == 8 == test end),
#: and SetFixed rotating every access and every 7.
PHASE_VARIANTS = {
    "line_dynamic": (
        lambda: LineDynamicScheme(ratio=0.6, threshold=0.02, warmup=200,
                                  test_window=200, period=1400),
        lambda: LineDynamicScheme(ratio=0.6, threshold=0.5, warmup=3,
                                  test_window=5, period=11),
    ),
    "set_fixed": (
        lambda: SetFixedScheme(0.5, rotation_period=1),
        lambda: SetFixedScheme(0.5, rotation_period=7),
    ),
}

#: Cut points splitting one stream across several replay calls; 200 and
#: 1600 are test boundaries of the default LineDynamic (period 1200).
SPLITS = (1, 200, 1600, 2001)


def random_stream(seed: int, length: int = 3000,
                  span_lines: int = 128) -> list:
    """Mixed locality: hot lines plus a uniform tail."""
    rng = random.Random(seed)
    hot = [rng.randrange(span_lines // 4) * 64 for __ in range(16)]
    stream = []
    for __ in range(length):
        if rng.random() < 0.6:
            stream.append(rng.choice(hot))
        else:
            stream.append(rng.randrange(span_lines) * 64)
    return stream


def oracle_inverted_count(cache: Cache) -> int:
    """Brute-force rescan through the public line-state API."""
    return sum(
        1
        for set_index in range(cache.config.sets)
        for way in range(cache.config.ways)
        if cache.line_state(set_index, way) is LineState.INVERTED
    )


def oracle_shadow_count(cache: Cache) -> int:
    return sum(
        1
        for set_index in range(cache.config.sets)
        for way in range(cache.config.ways)
        if cache.is_shadow(set_index, way)
    )


def snapshot(cache: Cache):
    """Full observable line state, via the public API."""
    return [
        (cache.line_state(s, w), cache.is_shadow(s, w),
         cache.lru_position(s, p))
        for s in range(cache.config.sets)
        for p in range(cache.config.ways)
        for w in range(cache.config.ways)
    ]


def scheme_state(scheme):
    """The scheme's RNG state and whichever phase state it keeps."""
    return (scheme.rng.getstate(),) + tuple(
        getattr(scheme, name, None)
        for name in ("_accesses", "_active", "activation_history",
                     "_first_inverted", "_live")
    )


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestCountersMatchOracle:
    def test_counters_track_rescan(self, scheme_name, seed):
        protected = ProtectedCache(
            Cache(CONFIG), SCHEME_FACTORIES[scheme_name](), seed=seed
        )
        cache = protected.cache
        for index, address in enumerate(random_stream(seed)):
            protected.access(address)
            if index % 97 == 0:
                assert cache.inverted_count() == \
                    oracle_inverted_count(cache)
                assert cache.shadow_count() == oracle_shadow_count(cache)
        assert cache.inverted_count() == oracle_inverted_count(cache)
        assert cache.shadow_count() == oracle_shadow_count(cache)

    def test_replay_matches_per_access_run(self, scheme_name, seed):
        line_stream = random_stream(seed + 100)
        cases = [(name, make, SCHEME_FACTORIES[scheme_name])
                 for name, make in STRUCTURES.items()
                 # Way inversion cannot invert the only way.
                 if not (scheme_name == "way_fixed" and name == "1w")]
        cases += [("4w", STRUCTURES["4w"], factory)
                  for factory in PHASE_VARIANTS.get(scheme_name, ())]
        for name, make_cache, make_scheme in cases:
            # A TLB sees each 64-byte line as its own 4 KB page.
            stream = ([address * 64 for address in line_stream]
                      if name == "tlb" else line_stream)
            one = ProtectedCache(make_cache(), make_scheme(), seed=seed)
            hit_sequence = [one.access(address) for address in stream]
            for cuts in ((), SPLITS):
                two = ProtectedCache(make_cache(), make_scheme(), seed=seed)
                bounds = (0, *cuts, len(stream))
                replay_hits = sum(two.replay(stream[lo:hi])
                                  for lo, hi in zip(bounds, bounds[1:]))

                assert replay_hits == sum(hit_sequence), (name, cuts)
                assert one.stats == two.stats
                assert one.cache.inverted_count() == \
                    two.cache.inverted_count()
                assert one.cache.shadow_count() == two.cache.shadow_count()
                assert snapshot(one.cache) == snapshot(two.cache)
                assert scheme_state(one.scheme) == scheme_state(two.scheme)

    def test_reset_reproduces_first_run(self, scheme_name, seed):
        stream = random_stream(seed + 200)
        protected = ProtectedCache(
            Cache(CONFIG), SCHEME_FACTORIES[scheme_name](), seed=seed
        )
        protected.replay(stream)
        first_stats = protected.stats
        first_state = snapshot(protected.cache)

        protected.reset()
        assert protected.stats.accesses == 0
        protected.replay(stream)
        assert protected.stats == first_stats
        assert snapshot(protected.cache) == first_state


class TestReplayPaths:
    def test_exact_type_replays_make_no_access_call(self, monkeypatch):
        """The batched scheme replays never fall back to per-access
        lookups; a subclass, which may override them, still does."""
        calls = []
        access = Cache.access

        def counting_access(cache, address):
            calls.append(address)
            return access(cache, address)

        monkeypatch.setattr(Cache, "access", counting_access)
        stream = random_stream(9)
        for name in ("line_fixed", "line_dynamic", "set_fixed"):
            ProtectedCache(Cache(CONFIG), SCHEME_FACTORIES[name](),
                           seed=1).replay(stream)
            assert calls == [], name
        ProtectedCache(Cache(CONFIG), AnyPositionLineFixedScheme(0.5),
                       seed=1).replay(stream)
        assert calls == stream


class TestSetDraw:
    def test_getrandbits_redraw_is_randrange(self):
        """``Cache.replay_inverting`` draws a set as
        ``getrandbits(n.bit_length())`` redrawn while >= n; that must be
        exactly ``randrange(n)``, values and final RNG state alike."""
        for n in range(1, 1025):
            batched, reference = random.Random(n), random.Random(n)
            bits = n.bit_length()
            for __ in range(8):
                value = batched.getrandbits(bits)
                while value >= n:
                    value = batched.getrandbits(bits)
                assert value == reference.randrange(n), n
            assert batched.getstate() == reference.getstate(), n


class TestBaselineReplay:
    def test_replay_matches_access_loop(self):
        stream = random_stream(7)
        one, two = Cache(CONFIG), Cache(CONFIG)
        hit_sequence = [one.access(address) for address in stream]
        assert two.replay(stream) == sum(hit_sequence)
        assert one.stats == two.stats
        assert snapshot(one) == snapshot(two)

    def test_replay_hit_sequence_prefixes(self):
        # replay() over any prefix leaves the same state as access():
        # replaying the rest must produce the same totals.
        stream = random_stream(8)
        one, two = Cache(CONFIG), Cache(CONFIG)
        for address in stream:
            one.access(address)
        two.replay(stream[:1000])
        two.replay(stream[1000:])
        assert one.stats == two.stats


class TestCandidateHelpers:
    def test_invert_candidate_prefers_invalid(self):
        cache = Cache(CONFIG)
        cache.access(0)  # fill one line of set 0
        assert cache.invert_candidate(0, 1)
        # A free win: the inverted line is not the freshly-filled one.
        assert cache.line_state(0, 0) is LineState.VALID or \
            cache.inverted_count() == 1
        assert cache.inverted_count() == oracle_inverted_count(cache)

    def test_invert_candidate_respects_min_position(self):
        cache = Cache(CONFIG)
        ways = CONFIG.ways
        # Fill every way of set 0 -> no INVALID left in that set.
        for way in range(ways):
            cache.access(way * CONFIG.sets * CONFIG.line_bytes)
        assert cache.invert_candidate(0, ways - 1)
        # Only the LRU position was eligible.
        victim = cache.lru_position(0, ways - 1)
        assert cache.line_state(0, victim) is LineState.INVERTED
        # That slot is INVERTED now (and not a free INVALID win), so no
        # further candidate exists at this min_position.
        assert not cache.invert_candidate(0, ways - 1)

    def test_shadow_candidate_marks_lru_valid(self):
        cache = Cache(CONFIG)
        for way in range(CONFIG.ways):
            cache.access(way * CONFIG.sets * CONFIG.line_bytes)
        assert cache.shadow_candidate(0, 1)
        assert cache.shadow_count() == 1
        marked = [w for w in range(CONFIG.ways) if cache.is_shadow(0, w)]
        assert marked == [cache.lru_position(0, CONFIG.ways - 1)]

    def test_shadow_candidate_empty_set(self):
        cache = Cache(CONFIG)
        assert not cache.shadow_candidate(0, 1)
        assert cache.shadow_count() == 0
