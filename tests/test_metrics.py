"""Unit tests for the unified metrics & telemetry API."""

import json

import pytest

from repro.analysis import format_interval_report
from repro.metrics import (
    Counter,
    Distribution,
    IntervalTelemetry,
    MetricSet,
    MetricSource,
    Ratio,
    delta_values,
    kind_of_value,
    payload_deltas,
)
from repro.uarch import TraceDrivenCore
from repro.uarch.backends import Cache, CacheConfig
from repro.workloads import TraceGenerator

CONFIG = CacheConfig(name="DL0-4K-4w", size_bytes=4 * 1024, ways=4)


def _stream(length=3000, seed=5):
    import random

    rng = random.Random(seed)
    return [rng.randrange(1 << 14) * 64 for __ in range(length)]


class TestStatTypes:
    def test_counter_defaults_and_add(self):
        from repro.metrics import CUMULATIVE_KINDS

        stat = Counter()
        assert stat.value() == 0 and stat.kind in CUMULATIVE_KINDS
        stat.add(3)
        assert stat.value() == 3

    def test_live_stats_reject_set(self):
        stat = Counter(read=lambda: 7)
        assert stat.value() == 7
        with pytest.raises(ValueError):
            stat.set(1)
        with pytest.raises(ValueError):
            Counter(5, read=lambda: 7)

    def test_ratio_over_siblings(self):
        ms = MetricSet()
        ms.counter("num", 3)
        ms.counter("den", 4)
        ms.ratio("frac", numerator="num", denominator="den")
        assert ms.get("frac").value() == 0.75

    def test_ratio_zero_denominator_is_zero(self):
        ms = MetricSet()
        ms.counter("num", 3)
        ms.counter("den", 0)
        ms.ratio("frac", numerator="num", denominator="den")
        assert ms.get("frac").value() == 0.0

    def test_ratio_zero_denominator_convention_is_configurable(self):
        ms = MetricSet()
        ms.counter("hits", 0)
        ms.counter("checks", 0)
        ms.ratio("free", numerator="hits", denominator="checks",
                 zero=1.0)
        assert ms.get("free").value() == 1.0
        # ... and the convention survives the schema/delta round trip
        delta = ms.delta(ms.snapshot(), ms.snapshot())
        assert delta["free"] == 1.0

    def test_mixed_reference_ratio_deltas_do_not_crash(self):
        total = [10]
        ms = MetricSet()
        ms.counter("hits", 4)
        ms.ratio("rate", numerator="hits", denominator=lambda: total[0])
        assert ms.get("rate").value() == pytest.approx(0.4)
        # callable refs cannot be re-derived offline: the schema keeps
        # the stat opaque and deltas report the current value.
        assert ms.schema()["rate"] == {"kind": "ratio"}
        first = ms.snapshot()
        ms.get("hits").set(6)
        delta = ms.delta(ms.snapshot(), first)
        assert delta["rate"] == pytest.approx(0.6)

    def test_idle_port_fractions_match_finalize_convention(self):
        from repro.uarch.regfile import RegisterFile
        from repro.uarch.scheduler import Scheduler

        rf = RegisterFile(entries=8, width=8)
        assert (rf.metrics().flatten()["port_free_fraction"]
                == rf.finalize().port_free_fraction == 1.0)
        scheduler = Scheduler(entries=4)
        assert (scheduler.metrics().flatten()["port_free_fraction"]
                == scheduler.finalize().port_free_fraction == 1.0)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            Ratio()  # nothing to read
        with pytest.raises(ValueError):
            Ratio(numerator="a")  # half a reference
        with pytest.raises(ValueError):
            Ratio(0.5, numerator="a", denominator="b")  # both styles

    def test_distribution_copies(self):
        histogram = {0: 5, 1: 2}
        stat = Distribution(histogram)
        assert stat.value() == histogram
        assert stat.value() is not histogram

    def test_kind_of_value(self):
        assert kind_of_value(True) == "text"
        assert kind_of_value(3) == "counter"
        assert kind_of_value(3.0) == "gauge"
        assert kind_of_value("x") == "text"
        assert kind_of_value({0: 1}) == "distribution"
        assert kind_of_value(None) == "text"


class TestMetricSet:
    def _tree(self):
        ms = MetricSet()
        ms.counter("hits", 3)
        child = ms.child("dl0")
        child.counter("misses", 1)
        child.child("inner").gauge("level", 0.5)
        return ms

    def test_dotted_paths_and_flatten(self):
        ms = self._tree()
        assert ms.get("dl0.inner.level").value() == 0.5
        assert ms.flatten() == {"hits": 3, "dl0.misses": 1,
                                "dl0.inner.level": 0.5}
        assert "dl0.misses" in ms and "dl0.nope" not in ms

    def test_duplicate_and_invalid_names_rejected(self):
        ms = self._tree()
        with pytest.raises(ValueError):
            ms.counter("hits", 1)
        with pytest.raises(ValueError):
            ms.child("dl0")
        with pytest.raises(ValueError):
            ms.counter("a.b", 1)
        with pytest.raises(ValueError):
            ms.counter("", 1)

    def test_unknown_path_raises_keyerror(self):
        with pytest.raises(KeyError):
            self._tree().get("dl0.bogus")
        with pytest.raises(KeyError):
            self._tree().get("nowhere.at.all")

    def test_snapshot_and_typed_delta(self):
        ms = MetricSet()
        ms.counter("n", 10)
        ms.gauge("level", 1.5)
        ms.ratio("rate", numerator="n", denominator="total")
        ms.counter("total", 20)
        ms.distribution("histo", {0: 4})
        first = ms.snapshot(1)
        ms.get("n").set(16)
        ms.get("total").set(40)
        ms.get("histo").set({0: 6, 1: 1})
        second = ms.snapshot(2)
        delta = ms.delta(second, first)
        assert delta["n"] == 6
        assert delta["total"] == 20
        assert delta["rate"] == pytest.approx(6 / 20)  # rate OF deltas
        assert delta["level"] == 1.5  # gauges report current level
        assert delta["histo"] == {0: 2, 1: 1}

    def test_delta_against_nothing_is_totals(self):
        ms = MetricSet()
        ms.counter("n", 4)
        assert ms.delta(ms.snapshot()) == {"n": 4}

    def test_schema_survives_json(self):
        ms = MetricSet()
        ms.counter("n", 3)
        ms.counter("total", 6)
        child = ms.child("sub")
        child.counter("k", 1)
        child.counter("all", 2)
        child.ratio("rate", numerator="k", denominator="all")
        schema = json.loads(json.dumps(ms.schema()))
        assert schema["sub.rate"] == {"kind": "ratio",
                                      "numerator": "sub.k",
                                      "denominator": "sub.all"}
        current = {"n": 5, "total": 10, "sub.k": 4, "sub.all": 8,
                   "sub.rate": 0.5}
        previous = {"n": 3, "total": 6, "sub.k": 1, "sub.all": 2,
                    "sub.rate": 0.5}
        delta = delta_values(schema, current, previous)
        assert delta["sub.rate"] == pytest.approx(3 / 6)


class TestComponentSources:
    def test_every_stat_bearing_component_is_a_metric_source(self):
        from repro.core.cache_like import LineFixedScheme, ProtectedCache
        from repro.uarch.bitbias import BitBiasAccumulator
        from repro.uarch.branch_predictor import (
            BimodalPredictor,
            ProtectedBimodalPredictor,
        )
        from repro.uarch.mob import MemoryOrderBuffer
        from repro.uarch.regfile import RegisterFile
        from repro.uarch.scheduler import Scheduler
        from repro.uarch.tlb import TLB, TLBConfig

        sources = [
            Cache(CONFIG),
            TLB(TLBConfig(name="DTLB-32", entries=32)),
            ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5)),
            RegisterFile(entries=8, width=8),
            Scheduler(entries=4),
            MemoryOrderBuffer(entries=8),
            BitBiasAccumulator(4, 4),
            BimodalPredictor(entries=64),
            ProtectedBimodalPredictor(BimodalPredictor(entries=64)),
            TraceDrivenCore(),
        ]
        for source in sources:
            assert isinstance(source, MetricSource), source

    def test_cache_metrics_track_live_counters(self):
        cache = Cache(CONFIG)
        tree = cache.metrics()
        cache.replay(_stream(500))
        flat = tree.flatten()
        assert flat["accesses"] == 500
        assert flat["hits"] == cache.stats.hits
        assert flat["miss_rate"] == pytest.approx(cache.stats.miss_rate)
        assert flat["hit_way_position"] == cache.stats.hit_way_position
        # the tree survives reset() (stats object is swapped)
        cache.reset()
        assert tree.flatten()["accesses"] == 0

    def test_core_metrics_namespaces(self):
        core = TraceDrivenCore()
        trace = TraceGenerator(seed=3).generate("specint2000", length=400)
        result = core.run(trace)
        flat = core.metrics().flatten()
        assert flat["dl0.misses"] == result.dl0.misses
        assert flat["dtlb.accesses"] == result.dtlb.accesses
        assert flat["scheduler.allocations"] == 400
        assert flat["mob.allocations"] == core.mob.allocations
        assert "int_rf.bias.worst_bias" in flat

    def test_protected_cache_metrics_name_the_scheme(self):
        from repro.core.cache_like import LineFixedScheme, ProtectedCache

        protected = ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5))
        flat = protected.metrics().flatten()
        assert flat["scheme"] == "LineFixed50%"
        assert flat["inverted_frac"] == pytest.approx(0.5)


class TestIntervalTelemetry:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            IntervalTelemetry(Cache(CONFIG), every=0)

    def test_is_single_stream(self):
        """Reuse across runs would straddle the consumer's per-run
        reset and yield negative deltas — refused loudly instead."""
        core = TraceDrivenCore()
        telemetry = IntervalTelemetry(core, every=400)
        generator = TraceGenerator(seed=9)
        core.run(telemetry.watch(generator.stream("specint2000", 900)))
        with pytest.raises(RuntimeError, match="new instance per run"):
            core.run(telemetry.watch(
                generator.stream("specint2000", 900)))
        cache = Cache(CONFIG)
        cache_telemetry = IntervalTelemetry(cache, every=400)
        cache_telemetry.replay(_stream(800))
        with pytest.raises(RuntimeError, match="new instance per run"):
            cache_telemetry.replay(_stream(800))

    def test_replay_needs_a_replayable_source(self):
        from repro.metrics import MetricSet

        bare = MetricSet()
        bare.counter("n", 0)
        with pytest.raises(TypeError):
            IntervalTelemetry(bare, every=10).replay([1, 2, 3])

    def test_streaming_core_run_snapshots_and_telescoping_deltas(self):
        """The acceptance property: a streaming run yields >= 2 interval
        snapshots whose deltas sum to the end-of-run totals."""
        core = TraceDrivenCore()
        telemetry = IntervalTelemetry(core, every=800)
        stream = TraceGenerator(seed=9).stream("specint2000", length=2500)
        result = core.run(telemetry.watch(stream))

        deltas = telemetry.deltas()
        assert len(deltas) >= 2
        assert [s.label for s in telemetry.snapshots] == [0, 800, 1600,
                                                          2400, 2500]
        totals = telemetry.totals()
        assert totals["dl0.misses"] == result.dl0.misses
        assert totals["dtlb.accesses"] == result.dtlb.accesses
        for path, kind in telemetry.metric_set.kinds().items():
            if kind != "counter":
                continue
            assert sum(d[path] for d in deltas) == pytest.approx(
                totals[path]), path

    def test_watch_does_not_perturb_the_run(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=1200)
        plain = TraceDrivenCore().run(trace)
        core = TraceDrivenCore()
        telemetry = IntervalTelemetry(core, every=500)
        watched = core.run(telemetry.watch(iter(trace)))
        assert watched.cycles == plain.cycles
        assert watched.dl0.misses == plain.dl0.misses

    def test_chunked_replay_is_bit_identical(self):
        from repro.core.cache_like import LineFixedScheme, ProtectedCache

        stream = _stream(4000)
        reference = ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5),
                                   seed=3)
        reference_hits = reference.replay(stream)

        protected = ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5),
                                   seed=3)
        telemetry = IntervalTelemetry(protected, every=1000)
        hits = telemetry.replay(stream)
        assert hits == reference_hits
        assert protected.stats.misses == reference.stats.misses
        assert telemetry.totals()["misses"] == reference.stats.misses
        assert len(telemetry.deltas()) == 4

    def test_replay_accepts_lazy_iterables(self):
        cache = Cache(CONFIG)
        telemetry = IntervalTelemetry(cache, every=700)
        telemetry.replay(iter(_stream(1500)))
        assert telemetry.totals()["accesses"] == 1500
        assert [s.label for s in telemetry.snapshots] == [0, 700, 1400,
                                                          1500]

    def test_series_and_payload_round_trip(self, tmp_path):
        cache = Cache(CONFIG)
        telemetry = IntervalTelemetry(cache, every=1000)
        telemetry.replay(_stream(3000))
        series = telemetry.series("misses")
        assert list(series) == ["0..1000", "1000..2000", "2000..3000"]
        assert sum(series.values()) == cache.stats.misses

        path = tmp_path / "intervals.json"
        telemetry.save(str(path))
        payload = json.loads(path.read_text())
        labels, deltas = payload_deltas(payload)
        assert labels == list(series)
        assert [d["misses"] for d in deltas] == list(series.values())
        # per-interval miss rate comes from counter deltas, not totals
        for delta in deltas:
            assert delta["miss_rate"] == pytest.approx(
                delta["misses"] / delta["accesses"])

        text = format_interval_report(payload, metrics=["misses"])
        assert text.startswith("misses")
        with pytest.raises(ValueError):
            format_interval_report(payload, metrics=["bogus"])
