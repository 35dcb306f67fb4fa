"""Invalidate-and-invert schemes for cache-like blocks (Section 3.2.1).

Most cache contents are dead ("they will be evicted before being
reused"), so a fraction K of the lines can be kept *invalid and holding
inverted repair values* to balance bit-cell stress.  The paper evaluates
three schemes on the DL0 and the DTLB (Section 4.6):

- ``SetFixed50%`` — half of the sets are inverted at any time; the cache
  effectively halves.
- ``LineFixed50%`` — half of the *lines* are inverted; whenever an
  inverted line is refilled, a valid line from a random set is inverted
  (from the LRU position, where hits are rare).
- ``LineDynamic60%`` — 60% of the lines are inverted, but the mechanism
  periodically tests how many extra misses it would induce (via a shadow
  would-be-inverted bit per line) and deactivates itself for programs
  that use the whole cache.

Performance impact is evaluated by replaying per-suite address streams
through a baseline and a protected cache and converting the extra misses
into a CPI loss with an overlap-discounted miss penalty.

Schemes are registered by name in
:data:`repro.config.registry.CACHE_SCHEMES` (``set_fixed``,
``way_fixed``, ``line_fixed``, ``line_dynamic``), which is how JSON
configs, ``repro sweep --config`` and :func:`repro.api.build_scheme`
construct them; register new subclasses there to make them sweepable
by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.metrics import ordered_sum
from repro.obs.trace import TRACER as _TRACER
from repro.uarch.backends import get_backend
from repro.uarch.backends import Cache, CacheConfig, CacheStats, LineState

#: Default fraction of lines kept inverted (perfect balancing needs 50%).
DEFAULT_INVERT_RATIO = 0.5

#: Effective (overlap-discounted) miss penalties in cycles per extra
#: miss, used to convert miss-rate deltas into CPI deltas.
DL0_EFFECTIVE_PENALTY = 3.0
DTLB_EFFECTIVE_PENALTY = 10.0

#: DL0 accesses per uop of the performance-loss model (the loads+stores
#: fraction of the uop mix); shared by every cache study so losses stay
#: comparable across them.
DL0_ACCESSES_PER_UOP = 0.36


class InversionScheme:
    """Base class: owns the inversion policy of one protected cache."""

    __slots__ = ("name", "cache", "rng")

    def __init__(self) -> None:
        self.name = "baseline"

    def attach(self, cache: Cache, rng: random.Random) -> None:
        self.cache = cache
        self.rng = rng

    def access(self, address: int) -> bool:
        """One lookup through the scheme; returns hit/miss."""
        hit = self.cache.access(address)
        self.maintain()
        return hit

    def replay(self, addresses: Iterable[int]) -> int:
        """Access a whole stream through the scheme; returns the hits.

        Bit-exact equivalent of calling :meth:`access` per address with
        the method lookups hoisted out of the loop.
        """
        access = self.access
        hits = 0
        for address in addresses:
            if access(address):
                hits += 1
        return hits

    def maintain(self) -> None:
        """Restore the scheme's invariants after an access."""

    def reset(self) -> None:
        """Forget mutable pre-attach state; :meth:`attach` redoes the rest."""

    # -- helpers shared by line-granularity schemes ---------------------
    def _min_invert_position(self, ratio: float) -> int:
        """First LRU-stack position eligible for inversion.

        The paper picks victims from the LRU end because "most of the
        cache access hits occur in the MRU position"; restricting
        inversion to the bottom of the stack also caps how many lines of
        any single set can be inverted, so hot sets keep their live
        lines.
        """
        ways = self.cache.config.ways
        return max(1, int(ways * (1.0 - ratio)))

    def _invert_one_line(self, min_position: int, tries: int = 4) -> bool:
        """Invert a line from a random set, preferring free wins.

        Empty (INVALID) lines are inverted at no cost; otherwise a valid
        line from the LRU tail of the stack is taken.  Returns False
        when no chosen set has an eligible line (the paper: "another try
        will be done in the future").
        """
        cache = self.cache
        invert_candidate = cache.invert_candidate
        randrange = self.rng.randrange
        sets = cache.config.sets
        for __ in range(max(1, tries)):
            if invert_candidate(randrange(sets), min_position):
                return True
        return False


def _replay_segments(scheme: SetFixedScheme | LineDynamicScheme,
                     addresses: Iterable[int]) -> int:
    """Feed a stream to ``scheme._replay_segment()`` in the segments
    ``scheme._next_segment()`` gives (length, event due before it);
    returns the hits.  As in ``access()``, an event fires only once the
    next address is pulled: a stream ending on a boundary defers it.
    """
    stream, stats, hits = iter(addresses), scheme.cache.stats, 0
    while True:
        run, event = scheme._next_segment()
        segment: Iterable[int] = islice(stream, run)
        if event is not None:
            first = next(stream, None)
            if first is None:
                return hits
            event()
            segment = chain((first,), islice(stream, run - 1))
        before = stats.accesses
        hits += scheme._replay_segment(segment)
        done = stats.accesses - before
        scheme._accesses += done
        if done < run:
            return hits


class SetFixedScheme(InversionScheme):
    """Set-granularity inversion with round-robin rotation.

    A window of sets holds inverted repair values; the index hash folds
    every line address into the remaining *live* sets, so "the cache
    works as if it had half the size" (capacity halves, everything stays
    cacheable).  The window rotates at coarse periods, costing a burst
    of remap misses — which is why the paper rotates rarely.
    """

    __slots__ = ("ratio", "rotation_period", "_first_inverted",
                 "_accesses", "_count", "_live")

    def __init__(
        self,
        ratio: float = DEFAULT_INVERT_RATIO,
        rotation_period: int = 100_000,
    ) -> None:
        if not 0.0 <= ratio < 1.0:
            raise ValueError("ratio must be within [0, 1)")
        if rotation_period <= 0:
            raise ValueError("rotation_period must be positive")
        self.ratio = ratio
        self.rotation_period = rotation_period
        self.name = f"SetFixed{int(round(ratio * 100))}%"
        self._first_inverted = 0
        self._accesses = 0

    def reset(self) -> None:
        self._first_inverted = 0
        self._accesses = 0

    def attach(self, cache: Cache, rng: random.Random) -> None:
        super().attach(cache, rng)
        self._count = int(cache.config.sets * self.ratio)
        self._rebuild_live_sets()
        self._apply_window()

    def access(self, address: int) -> bool:
        self._accesses += 1
        if self._accesses % self.rotation_period == 0:
            self._rotate()
        return self.cache.access(self._remap(address))

    def replay(self, addresses: Iterable[int]) -> int:
        """Rotation-free segments through the plain :meth:`Cache.replay`
        (exact type only: a subclass keeps the generic path)."""
        if type(self) is not SetFixedScheme:
            return super().replay(addresses)
        return _replay_segments(self, addresses)

    def _next_segment(self) -> Tuple[int, Optional[Callable[[], None]]]:
        # The access landing on a period multiple rotates before it runs.
        period = self.rotation_period
        until = -self._accesses % period or period
        return (period, self._rotate) if until == 1 else (until - 1, None)

    def _replay_segment(self, segment: Iterable[int]) -> int:
        # _remap folded into a generator: live set index + whole-line tag.
        config, live = self.cache.config, self._live
        line_bytes, sets, n_live = config.line_bytes, config.sets, len(live)
        return self.cache.replay(
            (live[address // line_bytes % n_live]
             + sets * (address // line_bytes)) * line_bytes
            for address in segment)

    def inverted_sets(self) -> List[int]:
        return [
            s for s in range(self.cache.config.sets)
            if self._is_inverted_set(s)
        ]

    # -- internals ------------------------------------------------------
    def _remap(self, address: int) -> int:
        """Fold the line address into the live sets, preserving the tag.

        The synthetic address is chosen so that its set index is a live
        set and its tag encodes the *entire* original line id, keeping
        distinct lines distinguishable after folding.
        """
        config = self.cache.config
        line = address // config.line_bytes
        target_set = self._live[line % len(self._live)]
        pseudo_line = target_set + config.sets * line
        return pseudo_line * config.line_bytes

    def _is_inverted_set(self, set_index: int) -> bool:
        sets = self.cache.config.sets
        offset = (set_index - self._first_inverted) % sets
        return offset < self._count

    def _rebuild_live_sets(self) -> None:
        self._live = [
            s for s in range(self.cache.config.sets)
            if not self._is_inverted_set(s)
        ]

    def _apply_window(self) -> None:
        for set_index in range(self.cache.config.sets):
            if self._is_inverted_set(set_index):
                for way in range(self.cache.config.ways):
                    self.cache.invert_line(set_index, way)

    def _rotate(self) -> None:
        """Advance the inverted window by one set (coarse round-robin)."""
        if not self._count:
            return  # no window: leaving and entering would be one set
        sets = self.cache.config.sets
        leaving = self._first_inverted
        entering = (self._first_inverted + self._count) % sets
        for way in range(self.cache.config.ways):
            self.cache.invalidate_line(leaving, way)
            self.cache.invert_line(entering, way)
        self._first_inverted = (self._first_inverted + 1) % sets
        self._rebuild_live_sets()


class WayFixedScheme(InversionScheme):
    """Way-granularity inversion with round-robin rotation.

    A subset of the ways in *every* set holds inverted repair values:
    "the cache works as if it had lower associativity and smaller size"
    (Section 3.2.1).  The inverted ways rotate round-robin; on rotation
    the entering way is invalidated-and-inverted (its contents are lost,
    the coarse-period analogue of the set scheme's remap misses).
    """

    __slots__ = ("ratio", "rotation_period", "_first", "_accesses",
                 "_count")

    def __init__(
        self,
        ratio: float = DEFAULT_INVERT_RATIO,
        rotation_period: int = 100_000,
    ) -> None:
        if not 0.0 <= ratio < 1.0:
            raise ValueError("ratio must be within [0, 1)")
        if rotation_period <= 0:
            raise ValueError("rotation_period must be positive")
        self.ratio = ratio
        self.rotation_period = rotation_period
        self.name = f"WayFixed{int(round(ratio * 100))}%"
        self._first = 0
        self._accesses = 0

    def reset(self) -> None:
        self._first = 0
        self._accesses = 0

    def attach(self, cache: Cache, rng: random.Random) -> None:
        super().attach(cache, rng)
        self._count = max(1, int(cache.config.ways * self.ratio))
        if self._count >= cache.config.ways:
            raise ValueError("cannot invert every way")
        # The inverted ways are statically out of service: replacement
        # must spill to the live ways instead of reclaiming them.
        cache.allow_inverted_victims = False
        self._apply_window()

    def access(self, address: int) -> bool:
        self._accesses += 1
        if self._accesses % self.rotation_period == 0:
            self._rotate()
        return self.cache.access(address)

    def inverted_ways(self):
        return [
            (self._first + offset) % self.cache.config.ways
            for offset in range(self._count)
        ]

    def _apply_window(self) -> None:
        for way in self.inverted_ways():
            for set_index in range(self.cache.config.sets):
                self.cache.invert_line(set_index, way)

    def _rotate(self) -> None:
        leaving = self._first
        self._first = (self._first + 1) % self.cache.config.ways
        entering = (self._first + self._count - 1) % self.cache.config.ways
        for set_index in range(self.cache.config.sets):
            self.cache.invalidate_line(set_index, leaving)
            self.cache.invert_line(set_index, entering)


class LineFixedScheme(InversionScheme):
    """Line-granularity inversion at a fixed ratio (INVCOUNT-based)."""

    __slots__ = ("ratio", "threshold", "_min_position")

    def __init__(self, ratio: float = DEFAULT_INVERT_RATIO) -> None:
        if not 0.0 <= ratio < 1.0:
            raise ValueError("ratio must be within [0, 1)")
        self.ratio = ratio
        self.name = f"LineFixed{int(round(ratio * 100))}%"

    def attach(self, cache: Cache, rng: random.Random) -> None:
        super().attach(cache, rng)
        self.threshold = int(cache.config.lines * self.ratio)
        self._min_position = self._min_invert_position(self.ratio)
        # Cold start: every line is invalid, so inverting the target
        # fraction up front costs nothing.  Spread evenly across sets so
        # no set starts with fewer usable ways than its share.
        inverted = 0
        for way in range(cache.config.ways):
            for set_index in range(cache.config.sets):
                if inverted >= self.threshold:
                    return
                cache.invert_line(set_index, way)
                inverted += 1

    def maintain(self) -> None:
        # INVCOUNT below INVTHRESHOLD after a refill consumed an inverted
        # line: invert a valid line from a random set (one try per
        # access; a failed try repeats later because INVCOUNT stays low).
        # inverted_count() is an O(1) counter, so this costs one compare
        # on the (common) balanced path.
        if self.cache.inverted_count() < self.threshold:
            self._invert_one_line(self._min_position)

    def replay(self, addresses: Iterable[int]) -> int:
        """One :meth:`Cache.replay_inverting` call (exact type only: a
        subclass keeps the generic path)."""
        if type(self) is not LineFixedScheme:
            return super().replay(addresses)
        return self.cache.replay_inverting(
            addresses, self.threshold, self._min_position, self.rng)


class AnyPositionLineFixedScheme(LineFixedScheme):
    """Naive ablation variant of :class:`LineFixedScheme`: inverts a
    random valid way at any LRU position (the ``victim_policy`` study)."""

    __slots__ = ()

    def __init__(self, ratio: float = 0.5) -> None:
        super().__init__(ratio)
        self.name = f"AnyPosition{int(round(ratio * 100))}%"

    def maintain(self) -> None:
        if self.cache.inverted_count() < self.threshold:
            set_index = self.rng.randrange(self.cache.config.sets)
            valid = self.cache.valid_ways(set_index)
            if valid:
                self.cache.invert_line(set_index, self.rng.choice(valid))


class LineDynamicScheme(InversionScheme):
    """Line inversion with periodic self-tests (LineDynamic60%).

    Every ``period`` accesses the mechanism re-decides whether to run:
    it warms the cache up, then marks shadow "would-be-inverted" bits on
    LRU lines and counts hits on them as induced extra misses; if the
    induced extra miss rate exceeds ``threshold`` the mechanism stays
    off for the rest of the period.
    """

    __slots__ = ("ratio", "threshold", "warmup", "test_window", "period",
                 "_accesses", "_active", "_test_start_shadow_hits",
                 "_decisions", "_line_target", "_min_position")

    def __init__(
        self,
        ratio: float = 0.6,
        threshold: float = 0.02,
        warmup: int = 20_000,
        test_window: int = 20_000,
        period: int = 200_000,
    ) -> None:
        if not 0.0 <= ratio < 1.0:
            raise ValueError("ratio must be within [0, 1)")
        if threshold < 0.0:
            raise ValueError("threshold must be non-negative")
        if warmup <= 0 or test_window <= 0:
            raise ValueError("warmup and test_window must be positive")
        if period <= warmup + test_window:
            raise ValueError("period must exceed warmup + test_window")
        self.ratio = ratio
        self.threshold = threshold
        self.warmup = warmup
        self.test_window = test_window
        self.period = period
        self.name = f"LineDynamic{int(round(ratio * 100))}%"
        self._accesses = 0
        self._active = False
        self._test_start_shadow_hits = 0
        self._decisions: List[bool] = []

    def reset(self) -> None:
        self._accesses = 0
        self._active = False
        self._test_start_shadow_hits = 0
        self._decisions = []

    def attach(self, cache: Cache, rng: random.Random) -> None:
        super().attach(cache, rng)
        self._line_target = int(cache.config.lines * self.ratio)
        self._min_position = self._min_invert_position(self.ratio)

    def access(self, address: int) -> bool:
        phase = self._accesses % self.period
        if phase == self.warmup:
            self._begin_test()
        elif phase == self.warmup + self.test_window:
            self._end_test()
        self._accesses += 1
        hit = self.cache.access(address)
        self.maintain()
        return hit

    def maintain(self) -> None:
        phase = (self._accesses - 1) % self.period
        in_test = self.warmup <= phase < self.warmup + self.test_window
        if in_test:
            # Keep the shadow population at the target ratio.
            if self.cache.shadow_count() < self._line_target:
                self._shadow_one_line()
        elif self._active:
            if self.cache.inverted_count() < self._line_target:
                self._invert_one_line(self._min_position)

    def replay(self, addresses: Iterable[int]) -> int:
        """Phase segments through :meth:`Cache.replay_inverting` (exact
        type only: a subclass keeps the generic path)."""
        if type(self) is not LineDynamicScheme:
            return super().replay(addresses)
        return _replay_segments(self, addresses)

    def _next_segment(self) -> Tuple[int, Optional[Callable[[], None]]]:
        phase = self._accesses % self.period
        warmup, test_end = self.warmup, self.warmup + self.test_window
        event = {warmup: self._begin_test, test_end: self._end_test}.get(phase)
        if phase < warmup:
            return warmup - phase, event
        if phase < test_end:
            return test_end - phase, event
        return self.period + warmup - phase, event

    def _replay_segment(self, segment: Iterable[int]) -> int:
        phase = self._accesses % self.period
        in_test = self.warmup <= phase < self.warmup + self.test_window
        target = self._line_target if in_test or self._active else 0
        return self.cache.replay_inverting(
            segment, target, self._min_position, self.rng, shadow=in_test)

    @property
    def active(self) -> bool:
        return self._active

    @property
    def activation_history(self) -> Tuple[bool, ...]:
        """The activate/deactivate decision of each completed test."""
        return tuple(self._decisions)

    # -- internals ------------------------------------------------------
    def _begin_test(self) -> None:
        # Tests run with the mechanism disengaged: restore capacity.
        self._set_active(False)
        self.cache.clear_shadow()
        self._test_start_shadow_hits = self.cache.stats.shadow_hits

    def _end_test(self) -> None:
        induced = self.cache.stats.shadow_hits - self._test_start_shadow_hits
        rate = induced / self.test_window
        decision = rate <= self.threshold
        self._decisions.append(decision)
        # Rare discrete event (once per period): worth an instant marker
        # so traces show *why* a run's inversion activity changed.
        _TRACER.instant("scheme.decide", scheme=self.name,
                        active=decision, induced_rate=rate)
        self.cache.clear_shadow()
        self._set_active(decision)

    def _set_active(self, active: bool) -> None:
        if self._active and not active:
            # Deactivation restores the full capacity.
            for set_index in range(self.cache.config.sets):
                for way in range(self.cache.config.ways):
                    if self.cache.line_state(set_index, way) is LineState.INVERTED:
                        self.cache.invalidate_line(set_index, way)
        self._active = active

    def _shadow_one_line(self) -> None:
        cache = self.cache
        cache.shadow_candidate(self.rng.randrange(cache.config.sets),
                               self._min_position)


class ProtectedCache:
    """A cache (or TLB) guarded by an inversion scheme."""

    __slots__ = ("cache", "scheme", "seed")

    def __init__(
        self,
        cache: Cache,
        scheme: InversionScheme,
        seed: int = 0,
    ) -> None:
        self.cache = cache
        self.scheme = scheme
        self.seed = seed
        scheme.attach(cache, random.Random(seed))

    def access(self, address: int) -> bool:
        return self.scheme.access(address)

    def replay(self, addresses) -> int:
        """Replay a whole address stream; returns the number of hits."""
        # One span per protected replay call, delta-annotated with the
        # victim-scan work (inversions) the scheme performed inside it.
        _t = _TRACER.begin()
        if _t is None:
            return self._dispatch_replay(addresses)
        before = self.cache.stats.inversions
        hits = self._dispatch_replay(addresses)
        stats = self.cache.stats
        _TRACER.end(_t, "scheme.replay", scheme=self.scheme.name,
                    cache=self.cache.config.name,
                    inversions=stats.inversions - before,
                    inverted_lines=self.cache.inverted_count())
        return hits

    def _dispatch_replay(self, addresses) -> int:
        """Route the stream through the cache engine's batched scheme
        path when it has one (``replay_scheme``, see
        :mod:`repro.uarch.backends.vectorized`); the engine declines —
        returns ``None`` without consuming the stream — for schemes it
        cannot batch, which run their own ``scheme.replay`` (the line
        schemes: the scalar kernel :meth:`Cache.replay_inverting`)."""
        fast = getattr(self.cache, "replay_scheme", None)
        if fast is not None:
            hits = fast(self.scheme, addresses)
            if hits is not None:
                return hits
        return self.scheme.replay(addresses)

    def translate(self, address: int) -> bool:
        """TLB-compatible alias of :meth:`access`."""
        return self.scheme.access(address)

    def reset(self) -> None:
        """Cold cache + scheme re-attached with the original seed.

        Replaying the same stream after a reset reproduces the first
        run bit-exactly (the scheme RNG is rebuilt from ``seed``).
        """
        self.cache.reset()
        self.scheme.reset()
        self.scheme.attach(self.cache, random.Random(self.seed))

    @property
    def stats(self):
        return self.cache.stats

    @property
    def config(self):
        return self.cache.config

    def metrics(self):
        """The wrapped cache's metric tree plus the scheme annotation."""
        ms = self.cache.metrics()
        ms.text("scheme", read=lambda: self.scheme.name)
        return ms


# ----------------------------------------------------------------------
# Study harness (Table 3)
# ----------------------------------------------------------------------
def performance_loss(
    baseline_miss_rate: float,
    scheme_miss_rate: float,
    accesses_per_uop: float,
    effective_penalty: float,
    base_cpi: float = 0.8,
) -> float:
    """CPI loss from the extra misses a scheme induces.

    ``loss = accesses_per_uop * (Δmiss_rate) * penalty / base_cpi``,
    floored at zero (a scheme cannot speed the program up; tiny negative
    deltas are replacement-policy noise).
    """
    if accesses_per_uop < 0.0 or effective_penalty < 0.0 or base_cpi <= 0.0:
        raise ValueError("invalid performance-model parameters")
    delta = max(0.0, scheme_miss_rate - baseline_miss_rate)
    return accesses_per_uop * delta * effective_penalty / base_cpi


def replay_baseline(config: CacheConfig, addresses: Iterable[int],
                    backend: str = "reference") -> CacheStats:
    """Replay ``addresses`` through an unprotected cache of ``config``.

    Returns the replay's counters alone, so a sweep's stage memo can
    share them between points without holding the cache."""
    cache = get_backend(backend).make_cache(config)
    cache.replay(addresses)
    return cache.stats


@dataclass(frozen=True, slots=True)
class CacheStudyResult:
    """Average performance loss of one (config, scheme) pair."""

    config_name: str
    scheme_name: str
    mean_loss: float
    per_stream_loss: Tuple[float, ...]
    baseline_miss_rate: float
    scheme_miss_rate: float
    mean_inverted_ratio: float

    @property
    def fraction_above(self) -> "LossTail":
        return LossTail(self.per_stream_loss)


@dataclass(frozen=True, slots=True)
class LossTail:
    """Tail statistics over per-stream losses (Section 4.6's 5%/10%)."""

    losses: Tuple[float, ...]

    def above(self, threshold: float) -> float:
        if not self.losses:
            return 0.0
        return sum(1 for loss in self.losses if loss > threshold) / len(
            self.losses
        )


def run_cache_study(
    config: CacheConfig,
    scheme_factory,
    address_streams: Sequence[Sequence[int]],
    accesses_per_uop: float = DL0_ACCESSES_PER_UOP,
    effective_penalty: float = DL0_EFFECTIVE_PENALTY,
    base_cpi: float = 0.8,
    seed: int = 0,
    backend: str = "reference",
    baselines: Optional[Sequence[CacheStats]] = None,
) -> CacheStudyResult:
    """Replay streams through baseline and protected caches.

    Parameters
    ----------
    config:
        Cache geometry under study.
    scheme_factory:
        Zero-argument callable building a fresh scheme per stream (None
        builds a plain baseline run, useful for sanity checks).
    address_streams:
        One address sequence per workload trace.
    backend:
        Kernel backend name building the cache engines
        (:func:`repro.uarch.backends.get_backend`); results are
        bit-identical across backends by contract.
    baselines:
        Each stream's :func:`replay_baseline`, when the caller has them
        already (a sweep's stage memo); ``None`` replays each stream.
    """
    engine = get_backend(backend)
    losses: List[float] = []
    base_rates: List[float] = []
    scheme_rates: List[float] = []
    inverted_ratios: List[float] = []
    # One factory probe names the scheme even when ``address_streams``
    # is empty (deriving it from a loop side effect used to mislabel
    # empty studies as "baseline").
    scheme_name = (
        "baseline" if scheme_factory is None else scheme_factory().name
    )
    for stream_index, stream in enumerate(address_streams):
        base_rate = (replay_baseline(config, stream, backend)
                     if baselines is None
                     else baselines[stream_index]).miss_rate

        if scheme_factory is None:
            scheme_rate = base_rate
        else:
            scheme = scheme_factory()
            protected = ProtectedCache(engine.make_cache(config), scheme,
                                       seed=seed + stream_index)
            protected.replay(stream)
            scheme_rate = protected.stats.miss_rate
            inverted_ratios.append(
                protected.cache.inverted_count() / config.lines
            )
        base_rates.append(base_rate)
        scheme_rates.append(scheme_rate)
        losses.append(
            performance_loss(base_rate, scheme_rate, accesses_per_uop,
                             effective_penalty, base_cpi)
        )
    n = max(1, len(losses))
    return CacheStudyResult(
        config_name=config.name,
        scheme_name=scheme_name,
        mean_loss=ordered_sum(losses) / n,
        per_stream_loss=tuple(losses),
        baseline_miss_rate=ordered_sum(base_rates) / n,
        scheme_miss_rate=ordered_sum(scheme_rates) / n,
        mean_inverted_ratio=(
            ordered_sum(inverted_ratios) / len(inverted_ratios)
            if inverted_ratios else 0.0
        ),
    )


#: Table 3 deactivation thresholds: induced extra miss rate above which
#: LineDynamic disengages, per structure size (Section 4.6).
PAPER_DYNAMIC_THRESHOLDS: Mapping[str, float] = {
    "DL0-32K": 0.02,
    "DL0-16K": 0.03,
    "DL0-8K": 0.04,
    "DTLB-128": 0.005,
    "DTLB-64": 0.01,
    "DTLB-32": 0.02,
}
