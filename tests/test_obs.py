"""Tests for the observability subsystem (tracer, event log,
provenance manifests, sweep progress) and its runner integration."""

import io
import json
import os
import threading
import time

import pytest

from repro.obs.log import (
    EventLog,
    new_run_id,
    read_events,
    render_event,
)
from repro.obs.progress import SweepProgress
from repro.obs.provenance import (
    MANIFEST_SCHEMA,
    build_manifest,
    describe_manifest,
    list_runs,
    load_manifest,
    manifest_path_for,
    spec_hash,
    write_manifest,
)
from repro.obs.trace import (
    TRACER,
    Tracer,
    export_chrome_trace,
    load_spans,
    save_spans,
    to_chrome_trace,
)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Leave the process-global tracer disabled and empty after each
    test, whatever the test did to it."""
    yield
    TRACER.disable()
    TRACER.clear()


def tracer():
    t = Tracer()
    t.enable()
    return t


class TestTracerDisabled:
    def test_span_is_shared_noop_singleton(self):
        t = Tracer()
        first = t.span("a", k=1)
        second = t.span("b")
        assert first is second  # no per-call allocation
        with first:
            first.set(extra=2)
        assert len(t) == 0

    def test_begin_returns_none_and_end_ignores_it(self):
        t = Tracer()
        token = t.begin()
        assert token is None
        t.end(token, "never")
        t.instant("never")
        t.record_span("never", 0.0, 1.0)
        assert len(t) == 0


class TestTracerEnabled:
    def test_span_nesting_parent_linkage_and_order(self):
        t = tracer()
        with t.span("outer", depth=0):
            with t.span("inner", depth=1):
                pass
        inner, outer = t.records()
        # The inner span closes (and records) first.
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert inner["span_id"] != outer["span_id"]
        assert inner["args"] == {"depth": 1}

    def test_timing_monotonicity(self):
        t = tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.records()
        assert inner["dur"] >= 0.0 and outer["dur"] >= 0.0
        # A nested span starts no earlier and runs no longer than its
        # parent.
        assert inner["ts"] >= outer["ts"]
        assert inner["dur"] <= outer["dur"]

    def test_sibling_spans_record_in_completion_order(self):
        t = tracer()
        for name in ("first", "second", "third"):
            with t.span(name):
                pass
        names = [r["name"] for r in t.records()]
        assert names == ["first", "second", "third"]
        timestamps = [r["ts"] for r in t.records()]
        assert timestamps == sorted(timestamps)

    def test_begin_end_token_form(self):
        t = tracer()
        with t.span("outer"):
            token = t.begin()
            assert token is not None
            t.end(token, "tokened", n=3)
        tokened, outer = t.records()
        assert tokened["name"] == "tokened"
        assert tokened["args"] == {"n": 3}
        assert tokened["parent_id"] == outer["span_id"]

    def test_set_attaches_mid_span_attributes(self):
        t = tracer()
        with t.span("work", planned=4) as span:
            span.set(done=4)
        (record,) = t.records()
        assert record["args"] == {"planned": 4, "done": 4}

    def test_instant_marker(self):
        t = tracer()
        t.instant("decision", active=True)
        (record,) = t.records()
        assert record["ph"] == "i"
        assert record["dur"] == 0.0
        assert record["args"] == {"active": True}

    def test_ring_is_bounded(self):
        t = Tracer(capacity=4, enabled=True)
        for index in range(10):
            with t.span(f"s{index}"):
                pass
        assert len(t) == 4
        assert [r["name"] for r in t.records()] == ["s6", "s7", "s8",
                                                    "s9"]

    def test_drain_and_extend_merge_across_tracers(self):
        worker = tracer()
        with worker.span("remote"):
            pass
        shipped = worker.drain()
        assert len(worker) == 0
        parent = tracer()
        with parent.span("local"):
            pass
        parent.extend(shipped)
        assert {r["name"] for r in parent.records()} == {"local",
                                                         "remote"}


class TestChromeTraceExport:
    def _records(self):
        t = tracer()
        with t.span("sweep.run", points=2):
            with t.span("cache.replay", accesses=100):
                pass
            t.instant("scheme.decide", active=False)
        return t.records()

    def test_event_schema(self):
        payload = to_chrome_trace(self._records())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2 and len(instants) == 1
        assert len(metadata) == 1  # one process_name per pid
        for event in complete:
            for field in ("name", "cat", "ts", "dur", "pid", "tid",
                          "args"):
                assert field in event
            # category = the span-name prefix before the first dot
            assert event["cat"] == event["name"].split(".")[0]
            assert event["dur"] >= 0.0
        for event in instants:
            assert event["s"] == "t" and "dur" not in event
        assert metadata[0]["name"] == "process_name"

    def test_timestamps_reanchored_to_trace_start(self):
        events = to_chrome_trace(self._records())["traceEvents"]
        timed = [e["ts"] for e in events if e["ph"] != "M"]
        assert min(timed) == 0.0
        assert all(ts >= 0.0 for ts in timed)

    def test_empty_records(self):
        payload = to_chrome_trace([])
        assert payload["traceEvents"] == []

    def test_save_load_round_trip(self, tmp_path):
        records = self._records()
        path = str(tmp_path / "spans.jsonl")
        assert save_spans(path, records) == len(records)
        assert load_spans(path) == records

    def test_load_rejects_non_span_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"study": "caches", "metrics": {}}\n')
        with pytest.raises(ValueError, match="not a span file"):
            load_spans(str(bad))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_spans(str(empty))

    def test_export_writes_loadable_json(self, tmp_path):
        records = self._records()
        out = str(tmp_path / "trace.json")
        count = export_chrome_trace(records, out)
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["traceEvents"]) == count
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"sweep.run", "cache.replay", "scheme.decide"} <= names


class TestEventLog:
    def test_emit_appends_one_json_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path=path, run_id="abc123def456")
        record = log.info("point_done", key="k1", cached=False)
        assert record["run_id"] == "abc123def456"
        (loaded,) = read_events(path)
        assert loaded["event"] == "point_done"
        assert loaded["payload"] == {"key": "k1", "cached": False}

    def test_span_id_links_log_to_trace(self, tmp_path):
        TRACER.enable()
        TRACER.clear()
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path=path)
        with TRACER.span("outer"):
            log.info("inside")
        log.info("outside")
        (outer_span,) = TRACER.records()
        inside, outside = read_events(path)
        assert inside["span_id"] == outer_span["span_id"]
        assert outside["span_id"] is None

    def test_level_filtering(self, tmp_path):
        """The log writes every level; a reader's level drops the rest."""
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path=path)
        log.debug("noise")
        log.info("chatter")
        log.warning("kept")
        log.error("kept_too")
        assert [e["event"] for e in read_events(path)] == [
            "noise", "chatter", "kept", "kept_too"]
        assert [e["event"] for e in read_events(path, level="warning")] \
            == ["kept", "kept_too"]

    def test_rejects_unknown_level(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        EventLog(path=path).info("run_start")
        with pytest.raises(ValueError, match="unknown level 'loud'"):
            read_events(path, level="loud")

    def test_render_event_is_compact(self):
        line = render_event({
            "ts": 1690000000.5, "level": "error", "event": "point_error",
            "payload": {"elapsed": 0.123456789, "key": "x" * 60},
        })
        assert "ERROR" in line and "point_error" in line
        assert "0.1235" in line      # floats shortened
        assert "x" * 60 not in line  # long strings truncated

    def test_read_events_skips_corrupt_lines_and_filters_run(
            self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        first = EventLog(path=path, run_id="run-aaa")
        second = EventLog(path=path, run_id="run-bbb")
        first.info("one")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
        second.info("two")
        assert [e["event"] for e in read_events(path)] == ["one", "two"]
        assert [e["event"]
                for e in read_events(path, run_id="run-bbb")] == ["two"]

    def test_threaded_writers_never_interleave(self, tmp_path):
        """The PR 4 single-os.write O_APPEND discipline: concurrent
        writers produce whole lines, never spliced fragments."""
        path = str(tmp_path / "events.jsonl")
        threads_n, events_n = 8, 50
        barrier = threading.Barrier(threads_n)

        def writer(worker):
            log = EventLog(path=path, run_id=f"run-{worker}")
            barrier.wait()
            for index in range(events_n):
                log.info("tick", worker=worker, index=index,
                         padding="p" * 37)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == threads_n * events_n
        # Every single line parses: no interleaved partial writes.
        records = [json.loads(line) for line in lines]
        for worker in range(threads_n):
            mine = [r for r in records
                    if r["run_id"] == f"run-{worker}"]
            assert sorted(r["payload"]["index"] for r in mine) == list(
                range(events_n))

    def test_new_run_id_shape(self):
        first, second = new_run_id(), new_run_id()
        assert len(first) == 12 and first != second


class TestProvenance:
    def _manifest(self, tmp_path):
        return build_manifest(
            run_id="runid1234567",
            spec_payload={"study": "caches", "base": {"length": 600},
                          "grid": {"ratio": [0.4, 0.6]}, "size": 2},
            points=[
                {"key": "aaa", "params": {"ratio": 0.4},
                 "cached": False, "elapsed": 0.25},
                {"key": "bbb", "params": {"ratio": 0.6},
                 "cached": True, "elapsed": 0.01},
            ],
            workers=2,
            started=1690000000.0,
            finished=1690000010.0,
            store_path=str(tmp_path / "store.jsonl"),
            trace_path=str(tmp_path / "trace.json"),
            events_path=str(tmp_path / "events.jsonl"),
        )

    def test_round_trip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        path = str(tmp_path / "manifest.json")
        write_manifest(path, manifest)
        loaded = load_manifest(path)
        assert loaded["schema"] == MANIFEST_SCHEMA
        assert loaded["run_id"] == "runid1234567"
        assert loaded["spec_hash"] == manifest["spec_hash"]
        assert loaded["totals"] == {
            "points": 2, "cache_hits": 1, "executed": 1,
            "slowest_key": "aaa", "slowest_elapsed": 0.25,
        }
        assert loaded["wall_time"] == 10.0
        assert loaded["environment"]["package_version"]
        assert [p["key"] for p in loaded["points"]] == ["aaa", "bbb"]

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, self._manifest(tmp_path))
        write_manifest(path, self._manifest(tmp_path))  # overwrite ok
        assert os.listdir(str(tmp_path)) == ["manifest.json"]

    def test_concurrent_writers_never_lose_the_manifest(self, tmp_path):
        """Jobs of one ``repro serve`` share a pid and a store directory,
        so jobs finishing together write one manifest path at once."""
        path = str(tmp_path / "manifest.json")
        run_ids = ("runA", "runB", "runC", "runD")
        payloads = [dict(self._manifest(tmp_path), run_id=run_id)
                    for run_id in run_ids]
        errors = []

        def write(barrier, manifest):
            barrier.wait()
            try:
                write_manifest(path, manifest)
            except OSError as exc:
                errors.append(exc)

        for __ in range(200):
            barrier = threading.Barrier(len(payloads))
            threads = [threading.Thread(target=write,
                                        args=(barrier, manifest))
                       for manifest in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert load_manifest(path)["run_id"] in run_ids
        assert errors == []
        assert os.listdir(str(tmp_path)) == ["manifest.json"]

    def test_manifest_names_the_code_checkout_not_the_cwd(
            self, tmp_path, monkeypatch):
        import subprocess

        import repro
        from repro.experiments import SweepRunner

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        try:
            head = subprocess.run(
                ["git", "-C", package_dir, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
        except OSError:
            pytest.skip("no git binary")
        if head.returncode != 0:
            pytest.skip("the repro package is not in a git work tree")
        monkeypatch.chdir(tmp_path)
        outcome = SweepRunner(store=str(tmp_path / "store")).run(
            _tiny_spec())
        manifest = load_manifest(outcome.manifest_path)
        assert manifest["git"]["revision"] == head.stdout.strip()

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"traceEvents": []}')
        with pytest.raises(ValueError, match="not a run manifest"):
            load_manifest(str(path))

    def test_spec_hash_is_order_insensitive(self):
        a = spec_hash({"study": "caches", "base": {"x": 1, "y": 2}})
        b = spec_hash({"base": {"y": 2, "x": 1}, "study": "caches"})
        assert a == b
        assert a != spec_hash({"study": "caches",
                               "base": {"x": 1, "y": 3}})

    def test_manifest_path_is_next_to_store(self, tmp_path):
        assert manifest_path_for("/data/run", "abc123") == \
            "/data/run/manifest-abc123.json"
        assert list_runs(str(tmp_path)) == []
        old = manifest_path_for(str(tmp_path), "old")
        new = manifest_path_for(str(tmp_path), "new")
        write_manifest(new, self._manifest(tmp_path))
        write_manifest(old, self._manifest(tmp_path))
        os.utime(old, (1.0, 1.0))
        # Oldest write first: the newest run heads `repro results`.
        assert list_runs(str(tmp_path)) == ["old", "new"]

    def test_describe_manifest_one_liner(self, tmp_path):
        line = describe_manifest(self._manifest(tmp_path))
        assert line.startswith("provenance: run runid1234567")
        assert "caches 2 points (1 cached)" in line
        assert "2 worker(s)" in line
        planned = build_manifest(run_id="runid1234567",
                                 spec_payload={"study": "caches"},
                                 workers=1, started=1690000000.0)
        line = describe_manifest(planned)
        assert line.startswith("provenance: run runid1234567")
        assert "caches unfinished" in line and "points" not in line


class _FakePoint:
    def __init__(self, key, label):
        self.key = key
        self._label = label

    def describe(self):
        return self._label


class _FakeResult:
    def __init__(self, key="k", label="ratio=0.4", cached=False,
                 elapsed=0.5):
        self.point = _FakePoint(key, label)
        self.cached = cached
        self.elapsed = elapsed


class TestSweepProgress:
    def test_line_mode(self):
        stream = io.StringIO()
        ticks = iter([0.0, 1.0, 2.0])
        progress = SweepProgress(2, mode="line", stream=stream,
                                 clock=lambda: next(ticks))
        progress.update(_FakeResult(elapsed=0.5))
        progress.update(_FakeResult(cached=True))
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("  [  1/2]")
        assert "eta" in lines[0]
        assert "cached" in lines[1] and "done" in lines[1]

    def test_json_mode_emits_parseable_events(self):
        stream = io.StringIO()
        progress = SweepProgress(2, mode="json", stream=stream)
        progress.update(_FakeResult(key="abc"))
        progress.update(_FakeResult(key="def", cached=True))
        events = [json.loads(line)
                  for line in stream.getvalue().splitlines()]
        assert [e["done"] for e in events] == [1, 2]
        assert events[0]["key"] == "abc" and events[1]["cached"]
        assert events[1]["eta_s"] == 0.0

    def test_none_mode_is_silent_but_counts(self):
        stream = io.StringIO()
        progress = SweepProgress(3, mode="none", stream=stream)
        progress.update(_FakeResult(cached=True))
        progress.update(_FakeResult(elapsed=1.5))
        assert stream.getvalue() == ""
        assert progress.done == 2

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown progress mode"):
            SweepProgress(1, mode="fancy")


def _tiny_spec():
    from repro.experiments import SweepSpec

    return SweepSpec(
        "caches",
        base={"length": 400, "seed": 0, "suite": "office"},
        grid={"ratio": [0.4, 0.6]},
    )


class TestRunnerObservability:
    def test_results_bit_identical_with_tracing_on_and_off(
            self, tmp_path):
        """The differential guarantee: enabling the tracer and event
        log must not change a single metric bit."""
        from repro.experiments import SweepRunner

        TRACER.disable()
        TRACER.clear()
        plain = SweepRunner().run(_tiny_spec())

        TRACER.enable()
        traced_run = SweepRunner(store=str(tmp_path)).run(_tiny_spec())

        assert len(TRACER) > 0  # tracing actually happened
        assert read_events(str(tmp_path / "events.jsonl"))  # and logging
        assert [r.metrics for r in plain] == \
            [r.metrics for r in traced_run]
        assert [r.point.key for r in plain] == \
            [r.point.key for r in traced_run]

    def test_traced_sweep_records_lifecycle_spans(self):
        from repro.experiments import SweepRunner

        TRACER.enable()
        TRACER.clear()
        SweepRunner().run(_tiny_spec())
        names = {r["name"] for r in TRACER.records()}
        assert {"sweep.run", "sweep.execute", "study.caches",
                "cache.replay", "scheme.replay"} <= names

    def test_store_backed_sweep_writes_manifest_and_events(
            self, tmp_path):
        from repro.experiments import SweepRunner
        from repro.fabric import ShardedResultStore

        store = ShardedResultStore(str(tmp_path))
        outcome = SweepRunner(store=store).run(_tiny_spec())
        assert outcome.run_id
        assert outcome.manifest_path == str(
            tmp_path / f"manifest-{outcome.run_id}.json")
        manifest = load_manifest(outcome.manifest_path)
        assert manifest["run_id"] == outcome.run_id
        assert manifest["study"] == "caches"
        assert manifest["totals"]["points"] == 2
        assert manifest["totals"]["executed"] == 2
        assert all(p["elapsed"] >= 0.0 for p in manifest["points"])
        events = read_events(str(tmp_path / "events.jsonl"))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("point_done") == 2
        assert kinds.count("worker_heartbeat") == 2
        assert all(e["run_id"] == outcome.run_id for e in events)

        # Rerun: all cache hits, manifest reflects the new run.
        rerun = SweepRunner(store=store).run(_tiny_spec())
        assert rerun.cache_hits == 2
        manifest = load_manifest(rerun.manifest_path)
        assert manifest["run_id"] == rerun.run_id
        assert manifest["totals"]["cache_hits"] == 2

    def test_each_run_keeps_its_own_manifest(self, tmp_path):
        """Runs sharing a store (a service's jobs) each name their own
        manifest, and it stays theirs after later runs finish."""
        from repro.experiments import SweepRunner
        from repro.fabric import ShardedResultStore

        store = ShardedResultStore(str(tmp_path))
        first = SweepRunner(store=store).run(_tiny_spec())
        second = SweepRunner(store=store).run(_tiny_spec())
        assert first.manifest_path != second.manifest_path
        assert load_manifest(first.manifest_path)["run_id"] == first.run_id
        assert load_manifest(second.manifest_path)["run_id"] == \
            second.run_id

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_error_names_point_and_lands_in_event_log(
            self, tmp_path, workers):
        """A failing study must name the point's content hash and
        parameters, and emit one structured point_error event: the same
        error on either executor, the point run once."""
        from repro.experiments import (
            PointExecutionError,
            SweepRunner,
            SweepSpec,
        )
        from repro.experiments.runner import bind_spec_points

        spec = SweepSpec(
            "caches",
            base={"length": 400, "seed": 0, "suite": "bogus"},
            grid={"ratio": [0.4]},
        )
        (point,) = bind_spec_points(spec)
        with pytest.raises(PointExecutionError) as excinfo:
            SweepRunner(store=str(tmp_path), workers=workers).run(spec)
        error = excinfo.value
        assert error.study == "caches"
        assert error.key == point.key and len(error.key) == 20
        assert error.key in str(error)
        assert "suite=bogus" in str(error)
        assert error.params == point.as_dict()
        events = read_events(str(tmp_path / "events.jsonl"))
        kinds = [event["event"] for event in events]
        assert "point_retry" not in kinds and "lease_stolen" not in kinds
        (point_error,) = [e for e in events if e["event"] == "point_error"]
        assert point_error["level"] == "error"
        assert point_error["payload"]["key"] == error.key
        assert point_error["payload"]["params"] == point.as_dict()

    def test_point_execution_error_survives_pickling(self):
        import pickle

        from repro.experiments import PointExecutionError

        error = PointExecutionError("study 'x' point abc failed",
                                    key="abc", study="x",
                                    params={"ratio": 0.4})
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.key == "abc" and clone.params == {"ratio": 0.4}

    def test_parallel_traced_sweep_matches_serial(self, tmp_path):
        from repro.experiments import SweepRunner

        TRACER.disable()
        TRACER.clear()
        serial = SweepRunner().run(_tiny_spec())

        TRACER.enable()
        parallel = SweepRunner(workers=2).run(_tiny_spec())
        assert [r.metrics for r in serial] == \
            [r.metrics for r in parallel]
        names = {r["name"] for r in TRACER.records()}
        assert "sweep.run" in names
        # Worker processes ship their spans back; the parent adds the
        # queue waits.
        assert {"sweep.execute", "sweep.queue_wait"} <= names


# ----------------------------------------------------------------------
# Incremental event tailing (the event stream / --follow substrate)
# ----------------------------------------------------------------------
class TestEventTailing:
    def _write(self, path, *lines, newline=True):
        with open(path, "a", encoding="utf-8") as handle:
            for i, line in enumerate(lines):
                last = i == len(lines) - 1
                handle.write(line + ("" if last and not newline
                                     else "\n"))

    def test_tail_events_advances_watermark(self, tmp_path):
        from repro.obs.log import tail_events

        path = str(tmp_path / "events.jsonl")
        self._write(path, json.dumps({"event": "one"}),
                    json.dumps({"event": "two"}))
        records, offset = tail_events(path)
        assert [r["event"] for r in records] == ["one", "two"]
        assert offset == os.path.getsize(path)
        # Nothing new: same watermark, no records.
        assert tail_events(path, offset) == ([], offset)
        self._write(path, json.dumps({"event": "three"}))
        records, offset2 = tail_events(path, offset)
        assert [r["event"] for r in records] == ["three"]
        assert offset2 > offset

    def test_torn_tail_is_retried_not_lost(self, tmp_path):
        from repro.obs.log import tail_events

        path = str(tmp_path / "events.jsonl")
        whole = json.dumps({"event": "whole"})
        torn = json.dumps({"event": "torn"})
        self._write(path, whole)
        self._write(path, torn[:7], newline=False)
        records, offset = tail_events(path)
        assert [r["event"] for r in records] == ["whole"]
        # The watermark stops before the torn line...
        self._write(path, torn[7:])
        records, __ = tail_events(path, offset)
        # ...so completing it yields the whole record, exactly once.
        assert [r["event"] for r in records] == ["torn"]

    def test_tail_events_reads_a_chunk_at_a_time(self, tmp_path,
                                                 monkeypatch):
        from repro.obs import log as obs_log

        monkeypatch.setattr(obs_log, "TAIL_CHUNK", 200)
        path = str(tmp_path / "events.jsonl")
        lines = [json.dumps({"event": f"e{n}", "pad": "x" * 40})
                 for n in range(31)]
        self._write(path, *lines)
        width = len(lines[0]) + 1
        records, offset = obs_log.tail_events(path)
        # Whole lines, up to the first line end at or past the chunk.
        assert offset == -(-200 // width) * width
        assert [r["event"] for r in records] == [
            f"e{n}" for n in range(offset // width)]
        tailer = obs_log.EventTailer(path)
        seen, polls = tailer.poll(), 1
        while tailer.behind:
            seen += tailer.poll()
            polls += 1
        assert [r["event"] for r in seen] == [f"e{n}" for n in range(31)]
        assert polls == -(-31 // (offset // width))
        assert read_events(path) == seen
        # Following catches up chunk by chunk without waiting between.
        assert list(read_events(path, follow=True, poll_interval=60,
                                stop=lambda: True)) == seen
        # A line longer than the chunk is read whole, in one poll.
        self._write(path, json.dumps({"event": "long", "pad": "y" * 999}))
        assert [r["event"] for r in tailer.poll()] == ["long"]
        assert tailer.offset == os.path.getsize(path)

    def test_missing_file_yields_nothing(self, tmp_path):
        from repro.obs.log import EventTailer, tail_events

        path = str(tmp_path / "nope.jsonl")
        assert tail_events(path) == ([], 0)
        assert EventTailer(path).poll() == []
        assert read_events(path) == []

    def test_truncated_file_restarts_from_zero(self, tmp_path):
        from repro.obs.log import EventTailer

        path = str(tmp_path / "events.jsonl")
        self._write(path, json.dumps({"event": "old1"}),
                    json.dumps({"event": "old2"}))
        tailer = EventTailer(path)
        assert [r["event"] for r in tailer.poll()] == ["old1", "old2"]
        os.unlink(path)
        self._write(path, json.dumps({"event": "fresh"}))
        assert [r["event"] for r in tailer.poll()] == ["fresh"]

    def test_tailer_filters_run_and_level(self, tmp_path):
        from repro.obs.log import EventTailer

        path = str(tmp_path / "events.jsonl")
        log_a = EventLog(path=path, run_id="run-aaa")
        log_b = EventLog(path=path, run_id="run-bbb")
        log_a.info("mine")
        log_b.info("theirs")
        log_a.debug("chatty")
        log_a.warning("loud")
        tailer = EventTailer(path, run_id="run-aaa", level="info")
        assert [r["event"] for r in tailer.poll()] == ["mine", "loud"]

    def test_read_events_follow_streams_until_stopped(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path=path, run_id="run-fff")
        log.info("before")
        stop = threading.Event()
        seen = []

        def consume():
            for record in read_events(path, follow=True,
                                      poll_interval=0.01,
                                      stop=stop.is_set):
                seen.append(record["event"])

        thread = threading.Thread(target=consume)
        thread.start()
        deadline = time.monotonic() + 5
        while "before" not in seen and time.monotonic() < deadline:
            time.sleep(0.01)
        log.info("during")
        while "during" not in seen and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen[:2] == ["before", "during"]


class TestSweepProgressBegin:
    def test_json_begin_emits_run_id_and_store_first(self):
        stream = io.StringIO()
        progress = SweepProgress(2, mode="json", stream=stream)
        progress.begin(run_id="run-123", store="/tmp/store.jsonl")
        progress.update(_FakeResult(key="abc"))
        events = [json.loads(line)
                  for line in stream.getvalue().splitlines()]
        assert events[0] == {"event": "start", "run_id": "run-123",
                             "store": "/tmp/store.jsonl", "total": 2}
        assert events[1]["key"] == "abc"

    def test_line_and_none_modes_stay_silent(self):
        for mode in ("line", "none"):
            stream = io.StringIO()
            progress = SweepProgress(1, mode=mode, stream=stream)
            progress.begin(run_id="run-123", store=None)
            assert stream.getvalue() == ""
            assert progress.run_id == "run-123"
