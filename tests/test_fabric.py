"""Tests for the sweep fabric: the store and the run manifests, and the
runs of :class:`SweepRunner` that use them.

Covers the two layers (sharded store, manifest/checkpoint-resume), the
worker processes the runner feeds batches to, plus the differential
acceptance criteria: a killed-and-resumed sweep must be bit-identical
to an uninterrupted serial run, re-executing only the genuinely missing
points.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.experiments import (
    PointExecutionError,
    SweepIncompleteError,
    SweepRunner,
    SweepSpec,
)
from repro.experiments.registry import _STUDIES, register_study
from repro.experiments.runner import (
    FAULT_ENV,
    bind_spec_points,
    plan_batches,
)
from repro.experiments.spec import ExperimentPoint
from repro.fabric import ShardedResultStore, StoredResult
from repro.obs.provenance import (
    build_manifest,
    list_runs,
    load_manifest,
    load_run_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.trace import TRACER

TINY_BASE = {"length": 600, "seed": 3}
TINY_GRID = {"ratio": [0.4, 0.6], "suite": ["office", "kernels"]}


def tiny_spec():
    return SweepSpec("caches", base=dict(TINY_BASE),
                     grid={k: list(v) for k, v in TINY_GRID.items()})


def make_record(ratio, metrics=None, study="caches", created=None):
    point = ExperimentPoint.from_dict(study, {"ratio": ratio})
    return StoredResult(
        key=point.key, study=study, params=point.as_dict(),
        metrics=dict(metrics or {"mean_loss": ratio}),
        elapsed=0.1, created=created if created is not None else ratio,
    )


def event_kinds(directory):
    path = os.path.join(directory, "events.jsonl")
    with open(path) as handle:
        return [json.loads(line)["event"] for line in handle]


def events_of(directory, kind):
    path = os.path.join(directory, "events.jsonl")
    with open(path) as handle:
        return [json.loads(line) for line in handle
                if json.loads(line)["event"] == kind]


def shard_keys(directory):
    """The key of every line in every shard (duplicates included)."""
    shard_dir = os.path.join(directory, "shards")
    keys = []
    for name in sorted(os.listdir(shard_dir)):
        with open(os.path.join(shard_dir, name)) as handle:
            keys += [json.loads(line)["key"] for line in handle]
    return keys


# ----------------------------------------------------------------------
# Sharded store
# ----------------------------------------------------------------------
class TestShardedStore:
    def test_round_trip_and_reopen(self, tmp_path):
        store = ShardedResultStore(str(tmp_path), shards=4)
        records = [make_record(r / 10) for r in range(8)]
        for record in records:
            store.put_record(record)
        assert len(store) == 8
        for record in records:
            got = store.get(record.key)
            assert got.metrics == record.metrics
            assert got.params == record.params
        store.close()

        reopened = ShardedResultStore(str(tmp_path))
        assert reopened.shards == 4  # shard count comes from meta
        assert len(reopened) == 8
        assert sorted(r.key for r in reopened) == sorted(
            r.key for r in records)
        reopened.close()

    def test_last_record_wins(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        store.put_record(make_record(0.5, {"mean_loss": 0.1}))
        store.put_record(make_record(0.5, {"mean_loss": 0.2}))
        assert len(store) == 1
        key = make_record(0.5).key
        assert store.get(key).metrics == {"mean_loss": 0.2}
        store.close()

    def test_records_filter_by_study(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        store.put_record(make_record(0.1, study="caches"))
        store.put_record(make_record(0.2, study="regfile"))
        assert [r.study for r in store.records("caches")] == ["caches"]
        assert len(store.records()) == 2
        store.close()

    def test_put_interface_matches_flat_store(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        store.put(point, {"mean_loss": 0.01}, elapsed=0.5)
        assert point.key in store
        assert store.get_point(point).elapsed == 0.5
        store.close()

    def test_worker_appends_visible_to_other_handles(self, tmp_path):
        parent = ShardedResultStore(str(tmp_path))
        worker = ShardedResultStore(str(tmp_path))
        record = make_record(0.3)
        worker.put_record(record)
        # Visible to another handle's reads at once.
        assert parent.get(record.key).metrics == record.metrics
        assert record.key in parent
        assert [r.key for r in parent.records()] == [record.key]
        assert len(parent) == 1

    def test_torn_shard_line_waits_for_completion(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        record = make_record(0.7)
        store.put_record(record)
        # Crash mid-append: half a record, no newline, on some shard.
        torn = make_record(0.9)
        line = (torn.to_json() + "\n").encode()
        shard_path = store.shard_path(store.shard_of(torn.key))
        fd = os.open(shard_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, line[: len(line) // 2])
        os.close(fd)
        assert [r.key for r in store.records()] == [record.key]
        assert len(store) == 1  # torn tail not consumed, not an error
        assert store.get(torn.key) is None
        assert store.stats()["skipped_lines"] == 0
        # The writer completes the line: it counts from then on.
        fd = os.open(shard_path, os.O_WRONLY | os.O_APPEND)
        os.write(fd, line[len(line) // 2:])
        os.close(fd)
        assert sorted(r.key for r in store.records()) == sorted(
            [record.key, torn.key])
        assert len(store) == 2
        assert store.get(torn.key).metrics == torn.metrics
        store.close()

    def test_complete_garbage_line_counted_and_skipped(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        fd = os.open(store.shard_path(0),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b"not json\n")
        os.close(fd)
        assert store.records() == []
        assert len(store) == 0
        assert store.stats()["skipped_lines"] == 1
        # The count comes from each scan, not from whichever handle
        # first read past the line.
        assert ShardedResultStore(str(tmp_path)).stats()[
            "skipped_lines"] == 1
        store.close()

    def test_compact_drops_dead_and_garbage_lines(self, tmp_path):
        store = ShardedResultStore(str(tmp_path), shards=2)
        store.put_record(make_record(0.5, {"mean_loss": 0.1}))
        store.put_record(make_record(0.5, {"mean_loss": 0.2}))
        store.put_record(make_record(0.6))
        stats = store.compact()
        assert stats.records == 2
        assert stats.dropped_lines == 1
        assert stats.reclaimed > 0
        assert store.get(make_record(0.5).key).metrics == {
            "mean_loss": 0.2}
        # Shard files now hold exactly the live records.
        total_lines = 0
        for shard in range(store.shards):
            try:
                with open(store.shard_path(shard), "rb") as handle:
                    total_lines += handle.read().count(b"\n")
            except OSError:
                pass
        assert total_lines == 2
        store.close()

    def test_a_file_is_not_a_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(make_record(0.5).to_json() + "\n")
        with pytest.raises(ValueError,
                           match="is a file, not a store directory"):
            ShardedResultStore(str(path))

    def test_rejects_foreign_schema(self, tmp_path):
        (tmp_path / "fabric.json").write_text('{"schema": "nope/9"}')
        with pytest.raises(ValueError, match="unsupported store schema"):
            ShardedResultStore(str(tmp_path))

    def test_opens_indexed_layout_and_ignores_stale_index(self, tmp_path):
        """A directory written when the store kept a SQLite location
        index beside its shards opens as it is: every record is
        served, and the leftover index is neither read nor touched."""
        import sqlite3

        (tmp_path / "fabric.json").write_text(json.dumps({
            "schema": "repro.fabric-store/1", "shards": 4,
            "flat_imported_bytes": 0}))
        (tmp_path / "shards").mkdir()
        records = [make_record(r / 10) for r in range(8)]
        for record in records:
            name = f"shard-{int(record.key[:4], 16) % 4:03d}.jsonl"
            with open(tmp_path / "shards" / name, "a") as handle:
                handle.write(record.to_json() + "\n")
        # Stale: a row pointing at the wrong bytes, and watermarks that
        # claim every shard was read to far beyond its end.
        index = sqlite3.connect(str(tmp_path / "index.sqlite"))
        index.executescript(
            "CREATE TABLE records (key TEXT PRIMARY KEY, shard INTEGER,"
            " offset INTEGER, length INTEGER, study TEXT,"
            " params_digest TEXT, created REAL);"
            "CREATE TABLE shard_watermarks (shard INTEGER PRIMARY KEY,"
            " indexed_bytes INTEGER);")
        index.execute("INSERT INTO records VALUES (?,?,?,?,?,?,?)",
                      (records[0].key, 0, 7, 3, "caches", "x", 0.0))
        index.executemany("INSERT INTO shard_watermarks VALUES (?,?)",
                          [(shard, 10 ** 6) for shard in range(4)])
        index.commit()
        index.close()
        stale = (tmp_path / "index.sqlite").read_bytes()

        store = ShardedResultStore(str(tmp_path))
        assert store.shards == 4
        assert len(store) == 8
        for record in records:
            assert store.get(record.key).metrics == record.metrics
        assert [r.key for r in store.records("caches")] == [
            r.key for r in records]
        store.put_record(make_record(0.95))
        assert len(store) == 9
        store.close()
        assert (tmp_path / "index.sqlite").read_bytes() == stale

    def test_half_appended_newer_record_stays_invisible(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        old = make_record(0.5, {"mean_loss": 0.1})
        new = make_record(0.5, {"mean_loss": 0.2})
        store.put_record(old)
        line = (new.to_json() + "\n").encode()
        fd = os.open(store.shard_path(store.shard_of(new.key)),
                     os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, line[:len(line) // 2])
            assert store.get(new.key).metrics == old.metrics
            # Every byte but the newline: the key is all there, yet the
            # line is still in flight.
            os.write(fd, line[len(line) // 2:-1])
            assert store.get(new.key).metrics == old.metrics
            os.write(fd, line[-1:])
        finally:
            os.close(fd)
        assert store.get(new.key).metrics == new.metrics
        assert len(store) == 1
        store.close()

    @pytest.mark.parametrize("key", ["", "zz", "z" * 20, "abcd" + "z" * 16])
    def test_non_key_strings_are_misses(self, tmp_path, key):
        store = ShardedResultStore(str(tmp_path))
        store.put_record(make_record(0.5))
        assert store.get(key) is None
        assert key not in store
        store.close()


# ----------------------------------------------------------------------
# The run manifest a resume reads
# ----------------------------------------------------------------------
def plan_time_manifest(directory, run_id, spec):
    """Write the manifest a run records before its first point."""
    manifest = build_manifest(run_id=run_id, spec_payload=spec.payload(),
                              workers=2, started=123.0)
    write_manifest(manifest_path_for(directory, run_id), manifest)
    return manifest


class TestRunManifest:
    def test_failed_plan_time_write_runs_no_point(self, tmp_path,
                                                  monkeypatch):
        """A run that could not record itself must not start: nothing
        would let it be resumed."""
        import repro.experiments.runner as runner_module

        def refuse(path, manifest):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(runner_module, "write_manifest", refuse)
        with pytest.raises(OSError, match="No space"):
            SweepRunner(str(tmp_path), workers=1).run(tiny_spec())
        assert len(ShardedResultStore(str(tmp_path))) == 0
        # Not even run_start was logged.
        assert not os.path.exists(tmp_path / "events.jsonl")
        assert list_runs(str(tmp_path)) == []

    def test_failed_end_of_run_write_keeps_results(self, tmp_path,
                                                   monkeypatch,
                                                   serial_oracle):
        import repro.experiments.runner as runner_module

        write = runner_module.write_manifest

        def refuse_at_end(path, manifest):
            if manifest["finished"] is not None:
                raise OSError(28, "No space left on device")
            write(path, manifest)

        monkeypatch.setattr(runner_module, "write_manifest", refuse_at_end)
        outcome = SweepRunner(str(tmp_path), workers=1).run(tiny_spec())
        assert_bit_identical(outcome, serial_oracle)
        assert outcome.manifest_path is None
        (error,) = events_of(str(tmp_path), "manifest_error")
        assert "No space" in error["payload"]["error"]
        assert "run_end" in event_kinds(str(tmp_path))
        # The plan-time record stays: the run is listed, unfinished.
        assert list_runs(str(tmp_path)) == [outcome.run_id]
        assert load_run_manifest(str(tmp_path),
                                 outcome.run_id)["finished"] is None

    def test_round_trip_and_verify(self, tmp_path):
        spec = tiny_spec()
        written = plan_time_manifest(str(tmp_path), "runX", spec)
        loaded = load_run_manifest(str(tmp_path), "runX")
        assert loaded == written
        assert loaded["run_id"] == "runX"
        assert loaded["finished"] is None
        assert "points" not in loaded and "totals" not in loaded
        assert SweepSpec.from_payload(loaded["spec"]).payload() == \
            spec.payload()

    def test_tampered_manifest_rejected(self, tmp_path):
        manifest = plan_time_manifest(str(tmp_path), "runX", tiny_spec())
        manifest["spec_hash"] = "0" * 20
        write_manifest(manifest_path_for(str(tmp_path), "runX"), manifest)
        with pytest.raises(ValueError, match="inconsistent"):
            load_run_manifest(str(tmp_path), "runX")

    def test_unknown_run_lists_known_runs(self, tmp_path):
        plan_time_manifest(str(tmp_path), "known", tiny_spec())
        with pytest.raises(FileNotFoundError, match="known"):
            load_run_manifest(str(tmp_path), "absent")
        assert list_runs(str(tmp_path)) == ["known"]


# ----------------------------------------------------------------------
# SweepRunner over a store: manifest, workers, resume — differential
# against an uninterrupted serial run without a store
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_oracle():
    """Uninterrupted serial reference run (no store)."""
    return SweepRunner(store=None, workers=1).run(tiny_spec())


def assert_bit_identical(outcome, oracle):
    assert [r.point.key for r in outcome] == [
        r.point.key for r in oracle]
    assert outcome.metrics_by_key() == oracle.metrics_by_key()


def cli_env(**extra):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


class TestFabricRunner:
    def test_serial_in_process_matches_sweep_runner(self, tmp_path,
                                                    serial_oracle):
        outcome = SweepRunner(str(tmp_path), workers=1).run(tiny_spec())
        assert outcome.executed == 4 and outcome.cache_hits == 0
        assert_bit_identical(outcome, serial_oracle)
        # Every store-backed run leaves its manifest, and no other
        # record of the run.
        assert list_runs(str(tmp_path)) == [outcome.run_id]
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith("journal-")]

        # Rerun over the same store: every point a cache hit, values
        # unchanged.
        again = SweepRunner(str(tmp_path), workers=1).run(tiny_spec())
        assert again.cache_hits == 4 and again.executed == 0
        assert_bit_identical(again, serial_oracle)

    def test_plan_batches_sorts_by_key(self):
        keys = [p.key for p in tiny_spec().expand()]
        batches = plan_batches(keys, batch_size=3)
        assert [b.batch_id for b in batches] == ["b0000", "b0001"]
        assert [len(b) for b in batches] == [3, 1]
        planned = [k for b in batches for k in b.keys]
        assert planned == sorted(keys)  # hash-range partition
        # Replanning a shuffled pending set yields identical batches.
        again = plan_batches(list(reversed(keys)), batch_size=3)
        assert again == batches

    def test_spawned_workers_match_sweep_runner(self, tmp_path,
                                                serial_oracle):
        runner = SweepRunner(str(tmp_path), workers=2, batch_size=1)
        outcome = runner.run(tiny_spec())
        assert outcome.executed == 4
        assert_bit_identical(outcome, serial_oracle)
        kinds = event_kinds(str(tmp_path))
        assert "run_start" in kinds and "run_end" in kinds
        assert kinds.count("batch_done") == 4
        keys = sorted(r.point.key for r in outcome)
        assert sorted(shard_keys(str(tmp_path))) == keys
        assert sorted(e["payload"]["key"] for e in events_of(
            str(tmp_path), "point_done")) == keys

    def test_worker_run_leaves_no_lease_file(self, tmp_path):
        """The parent hands out the batches: workers share no board."""
        outcome = SweepRunner(str(tmp_path), workers=2,
                              batch_size=1).run(tiny_spec())
        assert outcome.executed == 4
        assert not os.path.exists(tmp_path / "leases.sqlite")

    def test_sweep_imports_load_no_sqlite(self):
        """Nothing on the sweep path needs SQLite."""
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys; import repro.api, repro.experiments, "
             "repro.client; print('sqlite3' in sys.modules)"],
            env=cli_env(), capture_output=True, text=True, timeout=120)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"

    def test_duplicate_grid_values_fan_out(self, tmp_path):
        spec = SweepSpec("caches", base=dict(TINY_BASE),
                         grid={"ratio": [0.5, 0.5], "suite": ["office"]})
        outcome = SweepRunner(str(tmp_path), workers=1).run(spec)
        assert len(outcome) == 2
        assert outcome.executed == 1 and outcome.cache_hits == 1
        assert outcome.results[0].metrics == outcome.results[1].metrics
        assert len(ShardedResultStore(str(tmp_path))) == 1

    def test_manifest_records_fabric_plan(self, tmp_path):
        outcome = SweepRunner(str(tmp_path), workers=2,
                              batch_size=2).run(tiny_spec())
        manifest = load_manifest(outcome.manifest_path)
        fabric = manifest["fabric"]
        assert fabric["batches"] == 2 and fabric["batch_size"] == 2
        assert fabric["counts"] == {"done": 2}
        assert fabric["resumed"] is False
        assert "resumed_from" not in manifest
        assert "journal" not in fabric
        assert manifest["totals"]["points"] == 4

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        runner = SweepRunner(str(tmp_path), workers=1)
        runner.run(tiny_spec())
        other = SweepSpec("caches", base=dict(TINY_BASE),
                          grid={"ratio": [0.9]})
        resumer = SweepRunner(str(tmp_path), workers=1)
        with pytest.raises(ValueError, match="spec hash mismatch"):
            resumer.resume(runner.run_id, spec=other)

    def test_kill_and_resume_is_bit_identical(self, tmp_path,
                                              serial_oracle):
        """The crash/resume acceptance test: SIGKILL an in-process run
        right after its first stored point, resume it on two worker
        processes, and require results bit-identical to an
        uninterrupted serial run with only the missing points
        re-executed and one shard line per key."""
        directory = str(tmp_path)
        crashed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "caches",
             "--store", directory, "--workers", "1", "--quiet",
             "--grid", "ratio=0.4,0.6", "--suites", "office", "kernels",
             "--length", "600", "--seed", "3"],
            env=cli_env(**{FAULT_ENV: "kill-worker"}),
            capture_output=True, timeout=120)
        assert crashed.returncode == -9, crashed.stderr.decode()
        assert os.path.exists(os.path.join(directory, ".fault-fired"))
        # The plan-time manifest is the killed run's only record.
        (run_id,) = list_runs(directory)
        assert load_run_manifest(directory, run_id)["finished"] is None
        assert not [n for n in os.listdir(directory)
                    if n.startswith("journal-")]

        resumed = SweepRunner(directory, workers=2)
        outcome = resumed.resume(run_id)
        assert_bit_identical(outcome, serial_oracle)
        assert outcome.run_id == run_id
        assert outcome.cache_hits == 1 and outcome.executed == 3
        keys = shard_keys(directory)
        assert sorted(keys) == sorted(set(keys)) and len(keys) == 4

        kinds = event_kinds(directory)
        assert "run_resumed" in kinds
        manifest = load_manifest(outcome.manifest_path)
        assert manifest["run_id"] == run_id
        assert manifest["resumed_from"] == run_id
        assert manifest["fabric"]["resumed"] is True
        assert manifest["finished"] is not None
        # Planned again from the three missing points alone.
        assert manifest["fabric"]["counts"] == {
            "done": manifest["fabric"]["batches"]}
        assert manifest["fabric"]["batches"] * \
            manifest["fabric"]["batch_size"] >= 3

    def test_killed_run_heads_results_as_unfinished(self, tmp_path,
                                                    capsys):
        """A killed run wrote the store's newest rows: `repro results`
        names it, unfinished, as their provenance, and `repro store
        info` lists the same runs."""
        from repro.cli import main

        directory = str(tmp_path)
        argv = ["sweep", "caches", "--store", directory, "--workers", "1",
                "--quiet", "--suites", "office", "--length", "600",
                "--seed", "3"]
        assert main(argv + ["--grid", "ratio=0.4"]) == 0
        (finished,) = list_runs(directory)
        crashed = subprocess.run(
            [sys.executable, "-m", "repro.cli"] + argv
            + ["--grid", "ratio=0.5,0.6"],
            env=cli_env(**{FAULT_ENV: "kill-worker"}),
            capture_output=True, timeout=120)
        assert crashed.returncode == -9, crashed.stderr.decode()
        runs = list_runs(directory)
        assert runs[0] == finished and len(runs) == 2
        killed = runs[1]
        capsys.readouterr()

        assert main(["results", "--store", directory]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith(f"provenance: run {killed} ")
        assert "unfinished" in header
        assert main(["store", "info", "--store", directory]) == 0
        out = capsys.readouterr().out
        assert "runs: 2" in out
        listed = out.split("runs: 2\n", 1)[1].split()
        assert listed == runs

    def test_surviving_worker_steals_killed_workers_batch(
            self, tmp_path, monkeypatch, serial_oracle):
        directory = str(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "kill-worker")
        runner = SweepRunner(directory, workers=2, batch_size=2)
        outcome = runner.run(tiny_spec())
        # One worker died after its first point, but the run still
        # completed in one go: the parent gave the dead worker's batch
        # to the survivor, which skipped the stored point and re-ran
        # the other.
        assert_bit_identical(outcome, serial_oracle)
        kinds = event_kinds(directory)
        assert "worker_lost" in kinds
        assert "lease_stolen" in kinds
        assert "run_end" in kinds
        retried = events_of(directory, "point_retry")
        assert [e["payload"]["reason"] for e in retried] == ["lease re-run"]
        keys = shard_keys(directory)
        assert sorted(keys) == sorted(set(keys)) and len(keys) == 4

    def test_rerun_batch_logs_the_point_it_skips(self, tmp_path,
                                                 monkeypatch):
        """Every event reaches the log: the survivor's ``point_skipped``
        names the point the dead worker stored before it died."""
        directory = str(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "kill-worker")
        SweepRunner(directory, workers=2, batch_size=2).run(tiny_spec())
        (lost,) = [e["payload"] for e in events_of(directory,
                                                   "worker_lost")]
        (stored,) = [e["payload"]["key"]
                     for e in events_of(directory, "point_done")
                     if e["payload"].get("worker") == lost["worker"]]
        (skipped,) = events_of(directory, "point_skipped")
        assert skipped["level"] == "debug"
        assert skipped["payload"]["key"] == stored
        assert skipped["payload"]["batch"] == lost["batch"]


# ----------------------------------------------------------------------
# Studies registered for one test (worker processes fork with them)
# ----------------------------------------------------------------------
def _sleepy_study(params):
    time.sleep(float(params["duration"]))
    return {"slept": float(params["duration"])}


@contextmanager
def temporary_study(name, run=_sleepy_study, defaults=None):
    register_study(name, "registered for one test",
                   defaults=defaults or {"duration": 30.0})(run)
    try:
        yield
    finally:
        _STUDIES.pop(name, None)


def _failing_study(params):
    """Appends ``x`` to the ``calls`` file on every call; ``x == 3``
    always raises."""
    with open(params["calls"], "a") as handle:
        handle.write(f"{params['x']}\n")
    if params["x"] == 3:
        raise ValueError("x == 3 never works")
    return {"x": params["x"]}


def _deadly_study(params):
    """``x == 0`` kills the worker process that runs it."""
    if params["x"] == 0:
        os._exit(3)
    return {"x": params["x"]}


class TestPointFailure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_runs_once_and_ends_the_run(self, tmp_path,
                                                      workers):
        """A point whose study raises is not run again, on either
        executor: the run raises the error naming it, and what finished
        first stays stored."""
        calls = tmp_path / "calls.txt"
        directory = str(tmp_path / "store")
        with temporary_study("fabric_failing", _failing_study,
                             {"x": 0, "calls": ""}):
            spec = SweepSpec("fabric_failing", base={"calls": str(calls)},
                             grid={"x": list(range(8))})
            points = bind_spec_points(spec)
            runner = SweepRunner(directory, workers=workers, batch_size=2)
            with pytest.raises(PointExecutionError) as excinfo:
                runner.run(spec)
        bad = points[3]
        assert excinfo.value.key == bad.key
        assert excinfo.value.params == bad.as_dict()
        assert calls.read_text().split().count("3") == 1
        keys = shard_keys(directory)
        assert bad.key not in keys
        assert sorted(keys) == sorted(set(keys))
        if workers == 1:
            assert sorted(keys) == sorted(p.key for p in points[:3])
        assert len(events_of(directory, "point_error")) == 1
        assert not events_of(directory, "point_retry")


# ----------------------------------------------------------------------
# Leases track liveness; worker spans reach the parent
# ----------------------------------------------------------------------
class TestWorkerProcesses:
    def test_points_longer_than_the_ttl_keep_their_lease(self, tmp_path):
        """A live worker keeps its batch however long its points run:
        second-long points are neither stolen nor run twice."""
        with temporary_study("fabric_sleepy"):
            spec = SweepSpec("fabric_sleepy", grid={
                "duration": [1.2, 1.2001, 1.2002, 1.2003]})
            outcome = SweepRunner(str(tmp_path), workers=2,
                                  batch_size=1).run(spec)
        assert outcome.executed == 4
        kinds = event_kinds(str(tmp_path))
        assert kinds.count("lease_stolen") == 0
        assert kinds.count("point_done") == 4
        keys = shard_keys(str(tmp_path))
        assert sorted(keys) == sorted(set(keys)) and len(keys) == 4

    def test_batch_that_kills_every_worker_is_given_up(self, tmp_path):
        """A batch whose point kills each worker it reaches goes out
        three times, then the run stops naming it, with every other
        point stored."""
        directory = str(tmp_path)
        with temporary_study("fabric_deadly", _deadly_study, {"x": 0}):
            spec = SweepSpec("fabric_deadly", grid={"x": list(range(6))})
            deadly, *others = bind_spec_points(spec)
            (batch,) = [b.batch_id for b in plan_batches(
                [p.key for p in [deadly] + others], 1)
                if deadly.key in b.keys]
            runner = SweepRunner(directory, workers=3, batch_size=1)
            with pytest.raises(SweepIncompleteError) as excinfo:
                runner.run(spec)
        assert [f["batch"] for f in excinfo.value.failed] == [batch]
        assert f"exhausted ['{batch}']" in str(excinfo.value)
        assert len(events_of(directory, "worker_lost")) == 3
        assert len(events_of(directory, "lease_stolen")) == 2
        assert sorted(shard_keys(directory)) == sorted(
            p.key for p in others)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A SIGKILLed parent leaves no worker behind: each finishes its
        batch, finds its pipe closed and exits."""
        script = tmp_path / "parent.py"
        script.write_text(
            "import multiprocessing, sys, threading, time\n"
            "from repro.experiments import SweepRunner, SweepSpec\n"
            "from repro.experiments.registry import register_study\n"
            "def sleepy(params):\n"
            "    time.sleep(float(params['duration']))\n"
            "    return {}\n"
            "register_study('orphan_sleepy', 'sleeps',\n"
            "               defaults={'duration': 0.2})(sleepy)\n"
            "def report():\n"
            "    while len(multiprocessing.active_children()) < 2:\n"
            "        time.sleep(0.01)\n"
            "    print(*[p.pid for p in multiprocessing.active_children()],\n"
            "          flush=True)\n"
            "threading.Thread(target=report, daemon=True).start()\n"
            "spec = SweepSpec('orphan_sleepy', grid={'duration': [\n"
            "    0.2 + i / 1000 for i in range(20)]})\n"
            "SweepRunner(sys.argv[1], workers=2, batch_size=1).run(spec)\n")
        parent = subprocess.Popen(
            [sys.executable, str(script), str(tmp_path / "store")],
            env=cli_env(), stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
        assert len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                return False
            return state != "Z"

        deadline = time.monotonic() + 30
        while any(running(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers outlived the parent"
            time.sleep(0.05)

    def test_traced_workers_ship_one_execute_span_per_point(
            self, tmp_path):
        TRACER.enable()
        TRACER.clear()
        try:
            outcome = SweepRunner(str(tmp_path), workers=2,
                                  batch_size=1).run(tiny_spec())
            records = TRACER.records()
        finally:
            TRACER.disable()
            TRACER.clear()
        executes = [r for r in records if r["name"] == "sweep.execute"]
        assert sorted(r["args"]["key"] for r in executes) == sorted(
            r.point.key for r in outcome)
        for record in executes:
            assert record["pid"] == record["args"]["worker"]
            assert record["pid"] != os.getpid()
        waits = [r for r in records if r["name"] == "sweep.queue_wait"]
        assert len(waits) == 4
        assert {"sweep.run", "study.caches", "cache.replay"} <= {
            r["name"] for r in records}
        # The span files were merged and removed.
        assert not [n for n in os.listdir(tmp_path)
                    if n.startswith(".spans-")]


# ----------------------------------------------------------------------
# Concurrent readers (second handles during a run)
# ----------------------------------------------------------------------
class TestReadOnlyIndex:
    def test_reader_races_live_writer(self, tmp_path):
        import threading

        writer = ShardedResultStore(str(tmp_path))
        reader = ShardedResultStore(str(tmp_path), index_writes=False)
        records = [make_record(i / 100.0, created=float(i))
                   for i in range(50)]
        failures = []
        done = threading.Event()

        def read_loop():
            try:
                while not done.is_set():
                    seen = len(reader.records())
                    # Appends only grow what a reader sees.
                    assert len(reader) >= seen
                    reader.get(records[-1].key)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for record in records:
                writer.put_record(record)
        finally:
            done.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert not failures
        assert len(reader.records()) == 50
        assert reader.get(records[-1].key).metrics == records[-1].metrics
        reader.close()
        writer.close()


def stop_then_resume(directory, workers):
    """Stop a run of four 0.2 s points at 0.3 s, then resume it on the
    same worker count; returns how many points were stored at the
    stop."""
    import threading

    with temporary_study("fabric_stoppable"):
        spec = SweepSpec("fabric_stoppable",
                         grid={"duration": [0.2, 0.2001, 0.2002, 0.2003]})
        oracle = SweepRunner(store=None, workers=1).run(spec)

        store = ShardedResultStore(directory)
        runner = SweepRunner(store, workers=workers)
        run_id = runner.run_id
        stopper = threading.Timer(0.3, runner.request_stop)
        stopper.start()
        try:
            with pytest.raises(SweepIncompleteError):
                runner.run(spec)
        finally:
            stopper.cancel()
        stored = len(store)
        assert list_runs(directory) == [run_id]

        resumed = SweepRunner(store, workers=workers).resume(run_id)
        assert {r.point.key: r.metrics for r in resumed.results} \
            == {r.point.key: r.metrics for r in oracle.results}
        store.close()
    return stored


class TestRequestStop:
    def test_request_stop_journals_then_resume_is_bit_identical(
            self, tmp_path):
        assert 0 < stop_then_resume(str(tmp_path), workers=1) < 4

    def test_request_stop_on_worker_processes_then_resume(self, tmp_path):
        """The parent terminates its workers mid-point and leaves a
        manifest whose resume is bit-identical."""
        assert 0 < stop_then_resume(str(tmp_path), workers=2) < 4
        assert "run_draining" in event_kinds(str(tmp_path))
        keys = shard_keys(str(tmp_path))
        assert sorted(keys) == sorted(set(keys)) and len(keys) == 4

    def test_request_stop_wakes_a_parent_blocked_on_its_workers(
            self, tmp_path):
        """No worker replies during a 30 s point: the stop request
        itself ends the parent's wait."""
        import threading

        with temporary_study("fabric_stoppable"):
            spec = SweepSpec("fabric_stoppable",
                             grid={"duration": [30.0, 30.001]})
            runner = SweepRunner(str(tmp_path), workers=2)
            stopper = threading.Timer(0.3, runner.request_stop)
            started = time.monotonic()
            stopper.start()
            try:
                with pytest.raises(SweepIncompleteError):
                    runner.run(spec)
            finally:
                stopper.cancel()
        assert time.monotonic() - started < 10.0
        assert shard_keys(str(tmp_path)) == []
