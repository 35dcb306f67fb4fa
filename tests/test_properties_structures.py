"""Property-based tests on the stateful structures (cache, scheduler,
register file) — the invariants every mechanism relies on."""

from hypothesis import given, settings, strategies as st

from repro.uarch.backends import Cache, CacheConfig, LineState
from repro.uarch.regfile import RegisterFile
from repro.uarch.scheduler import Scheduler
from repro.uarch.uop import SCHEDULER_LAYOUT

CONFIG = CacheConfig(name="prop-2K-4w", size_bytes=2048, ways=4,
                     line_bytes=64)

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestCacheInvariants:
    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=200))
    def test_lru_stack_is_always_a_permutation(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
        for set_index in range(CONFIG.sets):
            stack = [cache.lru_position(set_index, p)
                     for p in range(CONFIG.ways)]
            assert sorted(stack) == list(range(CONFIG.ways))

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(stream)

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=100))
    def test_immediate_reaccess_always_hits(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
            assert cache.probe(address)

    @settings(max_examples=30, deadline=None)
    @given(
        stream=st.lists(addresses, min_size=1, max_size=100),
        inversions=st.lists(
            st.tuples(st.integers(0, CONFIG.sets - 1),
                      st.integers(0, CONFIG.ways - 1)),
            max_size=20,
        ),
    )
    def test_inverted_count_matches_states(self, stream, inversions):
        cache = Cache(CONFIG)
        for (set_index, way), address in zip(inversions, stream):
            cache.access(address)
            cache.invert_line(set_index, way)
        counted = sum(
            1
            for s in range(CONFIG.sets)
            for w in range(CONFIG.ways)
            if cache.line_state(s, w) is LineState.INVERTED
        )
        assert cache.inverted_count() == counted


class TestSchedulerInvariants:
    field_names = list(SCHEDULER_LAYOUT.fields())

    @settings(max_examples=50, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.sampled_from(field_names),
                st.integers(min_value=0, max_value=(1 << 32) - 1),
            ),
            min_size=1, max_size=40,
        )
    )
    def test_field_roundtrip_through_flattened_row(self, writes):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        now = 0.0
        expected = {}
        for name, raw in writes:
            width = SCHEDULER_LAYOUT.fields()[name]
            value = raw & ((1 << width) - 1)
            now += 1.0
            sched.set_field(slot, name, value, now)
            expected[name] = value
        for name, value in expected.items():
            assert sched.field_value(slot, name) == value

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_allocation_never_double_books(self, data):
        sched = Scheduler(entries=4)
        live = set()
        now = 0.0
        for __ in range(30):
            now += 1.0
            if data.draw(st.booleans()) and len(live) < 4:
                slot = sched.allocate(now)
                assert slot is not None
                assert slot not in live
                live.add(slot)
            elif live:
                slot = data.draw(st.sampled_from(sorted(live)))
                sched.release(slot, now)
                live.discard(slot)
        assert sum(sched.is_busy(s) for s in range(4)) == len(live)


class TestRegisterFileInvariants:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_free_list_conservation(self, data):
        rf = RegisterFile(entries=6, width=8)
        live = set()
        now = 0.0
        for __ in range(40):
            now += 1.0
            if data.draw(st.booleans()):
                entry = rf.allocate(now)
                if entry is not None:
                    assert entry not in live
                    live.add(entry)
                    rf.write(entry, data.draw(st.integers(0, 255)), now)
                else:
                    assert len(live) == 6
            elif live:
                entry = data.draw(st.sampled_from(sorted(live)))
                rf.release(entry, now)
                live.discard(entry)
        busy = sum(rf.is_busy(e) for e in range(6))
        assert busy == len(live)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=255),
                        min_size=1, max_size=20)
    )
    def test_read_returns_last_write(self, values):
        rf = RegisterFile(entries=2, width=8)
        entry = rf.allocate(0.0)
        for index, value in enumerate(values):
            rf.write(entry, value, float(index + 1))
            assert rf.read(entry) == value
