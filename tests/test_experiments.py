"""Tests for the experiment orchestration engine."""

import json
import os

import pytest

from repro.experiments import (
    ExperimentPoint,
    SweepRunner,
    SweepSpec,
    aggregate_metric,
    coerce_scalar,
    format_summary,
    get_study,
    group_results,
    metric_names,
    parse_grid_option,
    point_key,
    study_names,
    summarize,
)
from repro.fabric.store import ShardedResultStore, StoredResult

#: A grid small enough to execute many times per test run.
TINY_BASE = {"length": 600, "seed": 3}
TINY_GRID = {"ratio": [0.4, 0.6], "suite": ["office", "kernels"]}


def tiny_spec():
    return SweepSpec("caches", base=dict(TINY_BASE),
                     grid={k: list(v) for k, v in TINY_GRID.items()})


class TestSpec:
    def test_expansion_is_cartesian_product(self):
        spec = tiny_spec()
        points = spec.expand()
        assert len(points) == spec.size == 4
        combos = {(p.as_dict()["ratio"], p.as_dict()["suite"])
                  for p in points}
        assert combos == {(0.4, "office"), (0.4, "kernels"),
                          (0.6, "office"), (0.6, "kernels")}
        for point in points:
            assert point.as_dict()["length"] == 600

    def test_expansion_is_deterministic(self):
        first = [p.key for p in tiny_spec().expand()]
        second = [p.key for p in tiny_spec().expand()]
        assert first == second

    def test_key_ignores_param_order(self):
        a = ExperimentPoint.from_dict("caches", {"x": 1, "y": 2})
        b = ExperimentPoint.from_dict("caches", {"y": 2, "x": 1})
        assert a.key == b.key
        assert point_key("caches", {"y": 2, "x": 1}) == a.key

    def test_key_distinguishes_params_and_study(self):
        a = ExperimentPoint.from_dict("caches", {"x": 1})
        b = ExperimentPoint.from_dict("caches", {"x": 2})
        c = ExperimentPoint.from_dict("regfile", {"x": 1})
        assert len({a.key, b.key, c.key}) == 3

    def test_key_survives_pickling_before_and_after_first_use(self):
        import pickle

        point = ExperimentPoint.from_dict("caches",
                                          {"ratio": 0.4, "ways": [2, 4]})
        unhashed = pickle.loads(pickle.dumps(point))
        key = point.key
        hashed = pickle.loads(pickle.dumps(point))
        assert key == point_key("caches", point.as_dict())
        for clone in (unhashed, hashed):
            assert clone == point and hash(clone) == hash(point)
            assert clone.as_dict() == point.as_dict()
            assert clone.key == key

    def test_rejects_empty_axis_and_unserialisable_param(self):
        with pytest.raises(ValueError):
            SweepSpec("caches", grid={"ratio": []})
        with pytest.raises(TypeError):
            point_key("caches", {"bad": object()})

    @pytest.mark.parametrize("grid, match", [
        ({"suite": "office"}, "grid axis 'suite' must be a JSON array"),
        ({"ratio": [0.4], "suite": {"office": 1}},
         "grid axis 'suite' must be a JSON array"),
        ({"ratio": 0.4}, "grid axis 'ratio' must be a JSON array"),
        ([0.4, 0.6], "grid must be a JSON object"),
    ])
    def test_payload_grid_holds_arrays(self, grid, match):
        """A payload's grid axis is a JSON array: a string is not split
        into its characters, nor an object taken for its keys."""
        from repro import api

        payload = {"study": "caches", "grid": grid}
        with pytest.raises(ValueError, match=match):
            SweepSpec.from_payload(payload)
        with pytest.raises(ValueError, match=match):
            api.sweep_from_payload(payload)

    def test_grid_option_parsing(self):
        assert parse_grid_option("ways=4,8") == ("ways", [4, 8])
        assert parse_grid_option("ratio=0.4,0.5") == ("ratio",
                                                      [0.4, 0.5])
        key, values = parse_grid_option("scheme=line_fixed,set_fixed")
        assert values == ["line_fixed", "set_fixed"]
        assert coerce_scalar("true") is True
        assert coerce_scalar("7") == 7
        with pytest.raises(ValueError):
            parse_grid_option("no-equals")
        with pytest.raises(ValueError):
            parse_grid_option("empty=")


def shard_lines(store):
    lines = []
    for shard in range(store.shards):
        try:
            with open(store.shard_path(shard)) as handle:
                lines += handle.readlines()
        except OSError:
            pass
    return lines


class TestStore:
    """The store's record parser and its write path."""

    @pytest.mark.parametrize("line,match", [
        ("null", "not an object"),
        ("123", "not an object"),
        ("{}", "missing field"),
        ('{"key": "k"}', "missing field.*study"),
    ])
    def test_from_json_rejects_malformed_records(self, line, match):
        with pytest.raises(ValueError, match=match):
            StoredResult.from_json(line)

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """put() is one O_APPEND write per record: hammering one store
        from many threads must yield only whole, parseable lines."""
        import threading

        directory = str(tmp_path / "store")
        ShardedResultStore(directory, shards=2).close()
        n_threads, per_thread = 8, 25
        # Bulky metrics so a buffered writer would plausibly split the
        # line across flushes.
        padding = "x" * 512

        def writer(worker):
            store = ShardedResultStore(directory)
            for i in range(per_thread):
                point = ExperimentPoint.from_dict(
                    "caches", {"worker": worker, "i": i})
                store.put(point, {"value": worker * 1000 + i,
                                  "padding": padding})
            store.close()

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        merged = ShardedResultStore(directory)
        lines = shard_lines(merged)
        assert len(lines) == n_threads * per_thread
        for line in lines:
            record = json.loads(line)  # no interleaved partial lines
            assert record["metrics"]["padding"] == padding
        assert len(merged) == n_threads * per_thread
        merged.close()

    def test_clear(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        store.put(ExperimentPoint.from_dict("caches", {}), {"m": 1.0})
        store.clear()
        assert len(store) == 0
        assert shard_lines(store) == []
        store.close()


class TestRunner:
    def test_bookkeeping_is_paid_once_per_point(self, tmp_path,
                                                monkeypatch):
        """A store-backed sweep hashes each point's key once, cold or
        cached, and reads no factory signature: the registries read
        them at registration."""
        import inspect

        # Imported first: registering the factories reads their
        # signatures, and that is not part of a run.
        import repro.config.registry  # noqa: F401
        from repro.experiments import spec as spec_module

        calls = {"point_key": 0, "signature": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spec_module, "point_key",
                            counted("point_key", spec_module.point_key))
        monkeypatch.setattr(inspect, "signature",
                            counted("signature", inspect.signature))
        spec = SweepSpec("caches", base={"suite": "office", "length": 400},
                         grid={"seed": list(range(8)),
                               "ratio": [0.2, 0.4, 0.6, 0.8]})
        cold = SweepRunner(str(tmp_path), workers=1).run(spec)
        assert cold.executed == 32
        assert calls == {"point_key": 32, "signature": 0}
        calls.update(point_key=0, signature=0)
        warm = SweepRunner(str(tmp_path), workers=1).run(spec)
        assert warm.cache_hits == 32
        assert calls == {"point_key": 32, "signature": 0}
        assert [r.point.key for r in warm] == [r.point.key for r in cold]

    def test_cache_hits_on_rerun(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        first = SweepRunner(store=store, workers=1).run(tiny_spec())
        assert first.executed == 4 and first.cache_hits == 0

        rerun = SweepRunner(
            store=ShardedResultStore(str(tmp_path)), workers=1
        ).run(tiny_spec())
        assert rerun.cache_hits == 4 and rerun.executed == 0
        assert rerun.metrics_by_key() == first.metrics_by_key()

    def test_parallel_equals_serial(self):
        serial = SweepRunner(store=None, workers=1).run(tiny_spec())
        parallel = SweepRunner(store=None, workers=2).run(tiny_spec())
        assert len(serial) == len(parallel) == 4
        assert [r.point.key for r in serial] == [
            r.point.key for r in parallel
        ]
        assert serial.metrics_by_key() == parallel.metrics_by_key()

    def test_a_point_is_one_value_whatever_ran_it(self, tmp_path):
        """In this process, on worker processes or from the store, a
        point's result is one value: only ``cached`` and ``elapsed``
        tell the three apart."""
        import dataclasses

        spec = SweepSpec("caches", base={"suite": "office", "length": 300},
                         grid={"ratio": [0.4, 0.5],
                               "scheme": ["line_fixed", "line_dynamic"]})

        def values(outcome):
            return [dataclasses.replace(r, cached=False, elapsed=0.0)
                    for r in outcome]

        inline = SweepRunner(store=None, workers=1).run(spec)
        on_workers = SweepRunner(store=None, workers=2).run(spec)
        store = ShardedResultStore(str(tmp_path))
        SweepRunner(store=store, workers=1).run(spec)
        hits = SweepRunner(store=store, workers=1).run(spec)
        assert len(inline) == 4 and hits.cache_hits == 4
        assert values(inline) == values(on_workers) == values(hits)

    def test_results_follow_spec_order(self):
        outcome = SweepRunner(workers=2).run(tiny_spec())
        assert [
            (r.params["ratio"], r.params["suite"]) for r in outcome
        ] == [
            (p.as_dict()["ratio"], p.as_dict()["suite"])
            for p in tiny_spec().expand()
        ]

    def test_study_defaults_enter_params_and_key(self, tmp_path):
        """Cache keys cover the full bound parameterisation, so the
        defaulted and explicit spellings of a point are one entry."""
        implicit = SweepRunner().run(tiny_spec()).results
        assert all(r.params["ways"] == 8 for r in implicit)  # default

        explicit_spec = tiny_spec()
        explicit_spec.base["ways"] = 8
        store = ShardedResultStore(str(tmp_path))
        SweepRunner(store=store).run(tiny_spec())
        rerun = SweepRunner(store=store).run(explicit_spec)
        assert rerun.cache_hits == len(rerun) == 4

    def test_duplicate_grid_values_survive_parallel(self):
        spec = SweepSpec(
            "caches",
            base=dict(TINY_BASE),
            grid={"ratio": [0.5, 0.5], "suite": ["office"]},
        )
        outcome = SweepRunner(store=None, workers=2).run(spec)
        assert len(outcome) == 2
        metrics = [r.metrics for r in outcome]
        assert metrics[0] == metrics[1]

    def test_duplicate_points_execute_once_and_fan_out(self, tmp_path):
        """Identical content hashes at different slots are ONE
        computation: a single execution, a single store write, and the
        result fanned back to every slot."""
        spec = SweepSpec(
            "caches",
            base=dict(TINY_BASE),
            grid={"ratio": [0.5, 0.5, 0.5], "suite": ["office"]},
        )
        store = ShardedResultStore(str(tmp_path))
        seen = []
        outcome = SweepRunner(store=store, workers=1,
                              progress=seen.append).run(spec)
        assert len(outcome) == len(seen) == 3
        # One executed primary, two zero-cost fan-outs.
        assert outcome.executed == 1 and outcome.cache_hits == 2
        assert len({r.point.key for r in outcome}) == 1
        assert [r.metrics for r in outcome] == [outcome.results[0].metrics] * 3
        assert len(shard_lines(store)) == 1

    def test_unknown_study_raises(self):
        with pytest.raises(KeyError):
            SweepRunner().run(SweepSpec("no_such_study"))

    def test_unknown_parameter_rejected(self):
        # A typo'd axis would otherwise sweep identical points.
        with pytest.raises(ValueError, match="ratoi"):
            SweepRunner().run(SweepSpec("caches", grid={"ratoi": [0.4, 0.6]}))

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_progress_callback_sees_every_point(self):
        seen = []
        SweepRunner(progress=seen.append).run(tiny_spec())
        assert len(seen) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_slot_logs_exactly_one_point_done(self, tmp_path,
                                                   workers):
        """Executed points are logged by whoever ran them; cached and
        duplicate slots by the planner — one point_done per slot."""
        store = ShardedResultStore(str(tmp_path))
        SweepRunner(store=store).run(SweepSpec(
            "caches", base=dict(TINY_BASE),
            grid={"ratio": [0.4], "suite": ["office"]}))
        spec = SweepSpec(
            "caches", base=dict(TINY_BASE),
            grid={"ratio": [0.4, 0.6, 0.6], "suite": ["office"]})
        outcome = SweepRunner(store=store, workers=workers).run(spec)
        assert [r.cached for r in outcome] == [True, False, True]
        with open(tmp_path / "events.jsonl") as handle:
            events = [json.loads(line) for line in handle]
        done = [e["payload"] for e in events
                if e["event"] == "point_done"
                and e["run_id"] == outcome.run_id]
        assert len(done) == 3
        assert sorted(d["cached"] for d in done) == [False, True, True]

    def test_run_study_on_workers_matches_serial_without_temp_dirs(
            self, tmp_path, monkeypatch):
        """store=None writes nothing on any worker count, and results
        match workers=1."""
        import tempfile

        from repro import api
        from repro.config import with_path

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        spec = api.default_study_spec("caches")
        spec = with_path(spec, "workload.suites", ("office",))
        spec = with_path(spec, "workload.length", 400)
        spec = spec.replace(sweep={
            "protection.dl0.params.ratio": [0.4, 0.5, 0.6]})
        serial = api.run_study(spec, store=None, workers=1)
        assert os.listdir(tmp_path) == []
        parallel = api.run_study(spec, store=None, workers=2)
        assert [r.point.key for r in serial] == [
            r.point.key for r in parallel]
        assert serial.metrics_by_key() == parallel.metrics_by_key()
        assert parallel.executed == 3
        assert os.listdir(tmp_path) == []

    def test_workers_without_store_make_no_directory(self, monkeypatch):
        """Worker processes send results back over their pipes, so a
        store=None run needs no directory to share."""
        import tempfile

        def refuse(*args, **kwargs):
            raise AssertionError("tempfile.mkdtemp called")

        serial = SweepRunner(store=None, workers=1).run(tiny_spec())
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        parallel = SweepRunner(store=None, workers=2).run(tiny_spec())
        assert parallel.executed == 4
        assert [r.point.key for r in parallel] == [
            r.point.key for r in serial]
        assert parallel.metrics_by_key() == serial.metrics_by_key()


class TestRegistry:
    def test_all_studies_registered(self):
        assert {"caches", "regfile", "penelope", "invert_ratio",
                "vmin_power", "victim_policy",
                "multiprog"} <= set(study_names())

    def test_defaults_are_bound(self):
        study = get_study("caches")
        bound = study.bind({"ratio": 0.7})
        assert bound["ratio"] == 0.7
        assert bound["ways"] == 8  # default preserved

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            get_study("caches").execute(
                {"length": 200, "scheme": "bogus"}
            )

    def test_bad_penelope_ratio_fails_before_synthesis(self, monkeypatch):
        from repro.config import SpecError
        from repro.experiments import registry

        def synthesise(*args):
            pytest.fail("a trace was synthesised for an invalid point")

        monkeypatch.setattr(registry, "cached_trace", synthesise)
        with pytest.raises(SpecError, match="protection.dl0"):
            get_study("penelope").execute({"length": 200,
                                           "invert_ratio": 1.5})


class TestSummary:
    def _results(self):
        return SweepRunner(workers=1).run(tiny_spec()).results

    def test_group_and_aggregate(self):
        results = self._results()
        groups = group_results(results, ["ratio"])
        assert set(groups) == {(0.4,), (0.6,)}
        for members in groups.values():
            assert len(members) == 2
            mean = aggregate_metric(members, "mean_loss")
            per_point = [m.metrics["mean_loss"] for m in members]
            assert mean == pytest.approx(sum(per_point) / 2)
            assert aggregate_metric(members, "mean_loss", "min") == min(
                per_point
            )

    def test_uniform_text_metric_passes_through_groups(self):
        results = self._results()
        groups = group_results(results, ["ratio"])
        for (ratio,), members in groups.items():
            # scheme_name is a string; within one ratio group every
            # point agrees, so the value passes through instead of
            # being silently dropped.
            expected = f"LineFixed{int(round(ratio * 100))}%"
            assert aggregate_metric(members, "scheme_name") == expected

    def test_mixed_text_metric_renders_explicit_cell(self):
        from repro.experiments.summary import MIXED

        results = self._results()
        # One group spanning both ratios: scheme_name differs
        # (LineFixed40% vs LineFixed60%), so the cell must say so
        # explicitly instead of dropping the column.
        groups = group_results(results, ["suite"])
        for members in groups.values():
            assert len(members) > 1
            assert aggregate_metric(members, "scheme_name") == MIXED
        text = format_summary(results, ["suite"],
                              metrics=["scheme_name", "mean_loss"])
        assert MIXED in text

    def test_summarize_and_format(self):
        results = self._results()
        headers, rows = summarize(results, ["ratio"],
                                  metrics=["mean_loss"])
        assert headers == ["ratio", "mean_loss"]
        assert len(rows) == 2
        text = format_summary(results, ["ratio"],
                              metrics=["mean_loss"], title="t")
        assert "mean_loss" in text and text.startswith("t")

    def test_metric_names_sorted(self):
        names = metric_names(self._results())
        assert names == sorted(names)
        assert "mean_loss" in names


class TestAcceptance:
    def test_grid_sweep_caches_and_reruns_from_store(self, tmp_path):
        """The ISSUE's acceptance grid, scaled down in trace length."""
        spec = SweepSpec(
            "caches",
            base={"length": 400, "seed": 1},
            grid={
                "ratio": [0.4, 0.5, 0.6],
                "ways": [4, 8],
                "suite": ["office", "kernels", "specint2000",
                          "encoder"],
            },
        )
        assert spec.size == 24
        store = ShardedResultStore(str(tmp_path))
        first = SweepRunner(store=store, workers=4).run(spec)
        assert len(first) == 24 and first.executed == 24

        rerun = SweepRunner(store=store, workers=4).run(spec)
        assert rerun.cache_hits == 24 and rerun.executed == 0
        assert rerun.metrics_by_key() == first.metrics_by_key()

        serial = SweepRunner(store=None, workers=1).run(spec)
        assert serial.metrics_by_key() == first.metrics_by_key()
