"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.obs.provenance import list_runs


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        invocations = {
            "physics": ["physics"],
            "adder": ["adder"],
            "list-suites": ["list-suites"],
            "sweep": ["sweep", "caches"],
            "results": ["results"],
            "bench-smoke": ["bench-smoke", "--scale", "50"],
            "run": ["run", "--config", "study.json"],
            "show-config": ["show-config", "--study", "caches"],
            "report": ["report", "--study", "caches"],
            "trace": ["trace", "export", "out.trace.json"],
            "serve": ["serve", "--port", "0", "--token-env",
                      "REPRO_TOKEN", "--max-jobs", "4"],
            "trace-follow": ["trace", "events", "--follow",
                             "--run-id", "abc"],
        }
        for argv in invocations.values():
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "regfile",
                                       "--suites", "bogus"])

    @pytest.mark.parametrize("argv", [
        ["regfile"], ["caches"], ["penelope"],
        ["sweep", "caches", "--fabric"], ["serve", "--fabric"],
    ])
    def test_removed_commands_and_flags(self, argv, capsys):
        # `repro sweep` covers the studies; the executor follows from
        # --workers alone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        capsys.readouterr()


class TestCommands:
    def test_physics(self, capsys):
        assert main(["physics", "--duty", "0.6", "--cycles", "20"]) == 0
        out = capsys.readouterr().out
        assert "steady state" in out

    def test_adder_small_width(self, capsys):
        assert main(["adder", "--width", "8",
                     "--utilization", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "best idle pair" in out
        assert "(1, 8)" in out

    def test_regfile(self, capsys):
        assert main(["sweep", "regfile", "--suites", "kernels",
                     "--length", "800", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "base_worst_bias" in out and "isv_worst_bias" in out

    def test_caches(self, capsys):
        assert main(["sweep", "caches", "--suites", "office",
                     "--length", "800", "--grid",
                     "scheme=set_fixed,line_fixed,line_dynamic",
                     "--metrics", "scheme_name,mean_loss",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "LineDynamic50%" in out and "mean_loss" in out

    def test_penelope(self, capsys):
        assert main(["sweep", "penelope", "--suites", "kernels",
                     "--length", "800", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out and "adder_guardband" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        for name in ("specint2000", "office", "server"):
            assert name in out
        assert "531" in out  # Table 1 total trace count

    def test_sweep_and_results(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["sweep", "caches", "--grid", "ratio=0.4,0.6",
                "--suites", "office", "kernels", "--length", "600",
                "--store", store, "--verbose"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "0 cache hits, 4 executed" in out
        assert "mean_loss" in out

        # Immediate rerun: every point comes from the result store.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 cache hits, 0 executed" in out

        assert main(["results", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 stored results" in out
        assert "suite=office" in out

        assert main(["results", "--store", store, "--study",
                     "regfile"]) == 0
        assert "no stored results" in capsys.readouterr().out

    def test_report_renders_stored_sweep(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "caches", "--grid", "ratio=0.4,0.6",
                     "--suites", "office", "kernels", "--length", "600",
                     "--store", store]) == 0
        capsys.readouterr()

        # Default grouping: every parameter that varies (ratio, suite).
        assert main(["report", "--study", "caches", "--store",
                     store]) == 0
        out = capsys.readouterr().out
        assert "4 stored points" in out
        assert "mean_loss" in out and "office" in out

        # Grouping across ratios: scheme_name becomes an explicit
        # (mixed) cell instead of a silently dropped column.
        assert main(["report", "--study", "caches", "--store", store,
                     "--group-by", "suite",
                     "--metrics", "scheme_name,mean_loss"]) == 0
        out = capsys.readouterr().out
        assert "(mixed)" in out

    def test_report_bad_inputs_exit_cleanly(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["report", "--store", store]) == 2
        assert "--study" in capsys.readouterr().err

        assert main(["report", "--study", "caches", "--store",
                     store]) == 1
        assert "no stored results" in capsys.readouterr().err

        assert main(["sweep", "caches", "--grid", "ratio=0.4",
                     "--suites", "office", "--length", "400",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--study", "caches", "--store", store,
                     "--group-by", "bogus"]) == 2
        assert "unknown --group-by" in capsys.readouterr().err
        assert main(["report", "--study", "caches", "--store", store,
                     "--metrics", "bogus"]) == 2
        assert "unknown metric" in capsys.readouterr().err

        assert main(["report", "--intervals",
                     str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_renders_interval_artefact(self, capsys, tmp_path):
        import random

        from repro.metrics import IntervalTelemetry
        from repro.uarch.backends import Cache, CacheConfig

        cache = Cache(CacheConfig(name="DL0-4K-4w",
                                  size_bytes=4 * 1024, ways=4))
        telemetry = IntervalTelemetry(cache, every=500)
        rng = random.Random(4)
        telemetry.replay(
            [rng.randrange(1 << 14) * 64 for __ in range(1500)]
        )
        path = tmp_path / "intervals.json"
        telemetry.save(str(path))

        assert main(["report", "--intervals", str(path)]) == 0
        out = capsys.readouterr().out
        assert "misses" in out and "0..500" in out

        assert main(["report", "--intervals", str(path),
                     "--metrics", "bogus"]) == 2
        assert "unknown or non-numeric" in capsys.readouterr().err

    def test_store_info_reports_skipped_lines_on_every_open(
            self, capsys, tmp_path):
        from repro.fabric import ShardedResultStore

        store = str(tmp_path / "store")
        opened = ShardedResultStore(store)
        with open(opened.shard_path(0), "ab") as handle:
            handle.write(b"not json\n")
        for __ in range(2):
            ShardedResultStore(store).close()
        assert main(["store", "info", "--store", store]) == 0
        assert "skipped lines: 1" in capsys.readouterr().out

    def test_sweep_help_epilog_in_sync_with_registry(self, capsys):
        from repro.experiments import study_names

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in study_names():
            assert name in out

    def test_bench_smoke_rejects_bad_inputs(self, capsys, tmp_path):
        assert main(["bench-smoke", "--path",
                     str(tmp_path / "missing")]) == 2
        assert "not found" in capsys.readouterr().err
        assert main(["bench-smoke", "--scale", "0"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_bench_smoke_executes_selected_bench(self, capsys,
                                                 tmp_path, monkeypatch):
        # One real (fast) bench through the full smoke plumbing: env
        # wiring, bench_*.py collection override, artefact redirect.
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        results = tmp_path / "smoke-results"
        assert main(["bench-smoke", "--scale", "50",
                     "--results-dir", str(results),
                     "--only", "fig1"]) == 0
        assert (results / "fig1_nbti_physics.json").exists()

    def test_show_config_emits_loadable_study_spec(self, capsys):
        from repro.config import StudySpec

        assert main(["show-config", "--study", "caches"]) == 0
        out = capsys.readouterr().out
        spec = StudySpec.from_json(out)
        assert spec.study == "caches"
        assert spec.processor.dl0.size_kb == 16  # the study's default
        assert spec.protection.dl0.name == "line_fixed"

    def test_show_config_unknown_study(self, capsys):
        assert main(["show-config", "--study", "bogus"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_run_config_end_to_end(self, capsys, tmp_path):
        """show-config output, edited, drives a sweep through `run`."""
        from repro.config import StudySpec, with_path

        assert main(["show-config", "--study", "caches"]) == 0
        spec = StudySpec.from_json(capsys.readouterr().out)
        spec = with_path(spec, "workload.length", 600)
        spec = spec.replace(
            sweep={"protection.dl0.params.ratio": [0.4, 0.6]})
        config = tmp_path / "study.json"
        config.write_text(spec.to_json())
        store = str(tmp_path / "store")

        argv = ["run", "--config", str(config), "--store", store,
                "--verbose"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "0 cache hits, 2 executed" in out
        assert "mean_loss" in out

        # Rerun: the result store serves both points.
        assert main(argv) == 0
        assert "2 cache hits, 0 executed" in capsys.readouterr().out

        # The spec-driven run shares the store with flat sweeps: the
        # same points arrive as pure cache hits via `sweep`.
        assert main(["sweep", "caches", "--grid", "ratio=0.4,0.6",
                     "--suites", "specint2000", "--length", "600",
                     "--store", store]) == 0
        assert "2 cache hits, 0 executed" in capsys.readouterr().out

    def test_run_bad_inputs_exit_cleanly(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["run", "--config", str(bad_json)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text('{"study": "caches", "procesor": {}}')
        assert main(["run", "--config", str(bad_key)]) == 2
        assert "procesor" in capsys.readouterr().err

        unknown_study = tmp_path / "unknown.json"
        unknown_study.write_text('{"study": "bogus"}')
        assert main(["run", "--config", str(unknown_study),
                     "--no-store"]) == 2
        assert "unknown study" in capsys.readouterr().err

        bad_axis = tmp_path / "bad_axis.json"
        bad_axis.write_text(
            '{"study": "caches", '
            '"sweep": {"protection.l2.ratio": [0.5]}}')
        assert main(["run", "--config", str(bad_axis),
                     "--no-store"]) == 2
        assert "sweepable" in capsys.readouterr().err

        bad_metrics = tmp_path / "ok.json"
        bad_metrics.write_text(
            '{"study": "caches", "workload": {"length": 500}}')
        assert main(["run", "--config", str(bad_metrics), "--no-store",
                     "--metrics", "mean_losss"]) == 2
        assert "unknown metric" in capsys.readouterr().err

        null_section = tmp_path / "null.json"
        null_section.write_text('{"study": "caches", "workload": null}')
        assert main(["run", "--config", str(null_section)]) == 2
        assert "not null" in capsys.readouterr().err

        # An edit the study cannot honour must error, not no-op.
        unconsumed = tmp_path / "unconsumed.json"
        unconsumed.write_text(
            '{"study": "regfile", '
            '"protection": {"dl0": {"name": "set_fixed"}}}')
        assert main(["run", "--config", str(unconsumed),
                     "--no-store"]) == 2
        assert "does not consume" in capsys.readouterr().err

    def test_sweep_study_option_alias(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "--study", "caches", "--grid",
                     "ratio=0.4", "--suites", "office", "--length",
                     "400", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 points" in out and "1 executed" in out

        # Positional and --study conflict when they disagree...
        assert main(["sweep", "caches", "--study", "regfile",
                     "--no-store"]) == 2
        assert "conflicts" in capsys.readouterr().err
        # ...and omitting both is an error, not a crash.
        assert main(["sweep", "--no-store"]) == 2
        assert "pass a study" in capsys.readouterr().err

    def test_sweep_quiet_suppresses_output(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "caches", "--grid", "ratio=0.4",
                     "--suites", "office", "--length", "400",
                     "--store", store, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_sweep_json_progress(self, capsys, tmp_path):
        import json

        store = str(tmp_path / "store")
        assert main(["sweep", "caches", "--grid", "ratio=0.4,0.6",
                     "--suites", "office", "--length", "400",
                     "--store", store, "--progress", "json"]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["start", "point", "point", "summary"]
        # The first event announces where to watch: a consumer can
        # attach to the run (resume, tail events) before any point
        # lands.
        assert events[0]["run_id"] == events[-1]["run_id"]
        assert events[0]["store"] == store
        assert events[0]["total"] == 2
        assert events[-1]["points"] == 2
        assert events[-1]["executed"] == 2
        assert events[-1]["run_id"]

    def test_sweep_footer_names_slowest_point(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "caches", "--grid", "ratio=0.4,0.6",
                     "--suites", "office", "--length", "400",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "slowest point:" in out
        # All-cached rerun: nothing executed, so no slowest line.
        assert main(["sweep", "caches", "--grid", "ratio=0.4,0.6",
                     "--suites", "office", "--length", "400",
                     "--store", store]) == 0
        assert "slowest point:" not in capsys.readouterr().out

    def test_sweep_trace_writes_artefacts_and_exports(self, capsys,
                                                      tmp_path):
        """The acceptance-criteria pipeline: a traced sweep writes a
        manifest + raw spans, and `repro trace export` turns the spans
        into Chrome trace JSON."""
        import json

        from repro.obs.trace import TRACER

        store = str(tmp_path / "store")
        try:
            assert main(["sweep", "--study", "caches", "--trace",
                         "--grid", "ratio=0.4,0.6", "--suites",
                         "office", "--length", "400", "--store",
                         store]) == 0
        finally:
            TRACER.disable()
            TRACER.clear()
        out = capsys.readouterr().out
        assert "trace:" in out

        (path,) = (tmp_path / "store").glob("manifest-*.json")
        manifest = json.load(open(path))
        assert manifest["schema"] == "repro.manifest/1"
        assert manifest["trace"] == str(tmp_path / "store" / "trace.json")
        chrome = json.load(open(tmp_path / "store" / "trace.json"))
        names = {e["name"] for e in chrome["traceEvents"]}
        assert {"sweep.run", "sweep.execute", "study.caches",
                "cache.replay", "scheme.replay"} <= names

        exported = str(tmp_path / "out.trace.json")
        assert main(["trace", "export", exported, "--spans",
                     str(tmp_path / "store" / "spans.jsonl")]) == 0
        assert "Perfetto" in capsys.readouterr().out
        assert json.load(open(exported))["traceEvents"]

        assert main(["trace", "events", "--events",
                     str(tmp_path / "store" / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "run_start" in out and "point_done" in out

    def test_trace_bad_inputs_exit_cleanly(self, capsys, tmp_path):
        assert main(["trace", "export"]) == 2
        assert "output path" in capsys.readouterr().err
        assert main(["trace", "export", str(tmp_path / "o.json"),
                     "--spans", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "other/1"}\n')
        assert main(["trace", "export", str(tmp_path / "o.json"),
                     "--spans", str(bad)]) == 2
        assert "not a span file" in capsys.readouterr().err
        assert main(["trace", "events", "--events",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_flat_store_file_is_refused_with_migrate_hint(
            self, capsys, tmp_path):
        flat = tmp_path / "store.jsonl"
        flat.write_text("")
        for argv in (["results", "--store", str(flat)],
                     ["report", "--study", "caches", "--store", str(flat)],
                     ["sweep", "caches", "--suites", "office",
                      "--store", str(flat)]):
            assert main(argv) == 2, argv
            assert "repro store migrate" in capsys.readouterr().err

    def test_results_and_report_show_provenance_header(self, capsys,
                                                       tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "caches", "--grid", "ratio=0.4",
                     "--suites", "office", "--length", "400",
                     "--store", store, "--quiet"]) == 0
        assert main(["results", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "provenance: run" in out
        assert main(["report", "--study", "caches", "--store",
                     store]) == 0
        assert "provenance: run" in capsys.readouterr().out
        # A later run's manifest heads the listing.
        assert main(["sweep", "caches", "--grid", "ratio=0.6",
                     "--suites", "office", "--length", "400",
                     "--store", store, "--quiet"]) == 0
        newest = list_runs(store)[-1]
        assert main(["results", "--store", store]) == 0
        assert f"provenance: run {newest}" in capsys.readouterr().out

    def test_sweep_point_error_exits_cleanly_with_point_name(
            self, capsys):
        # A study raising mid-point must name the failing point's hash
        # and params, not dump a traceback.
        assert main(["sweep", "caches", "--grid", "suite=bogus",
                     "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "suite=bogus" in err

    def test_sweep_point_error_is_the_same_on_every_executor(self, capsys):
        # One bad grid value: both executors stop at it, exit 2 and
        # print the same line naming it.
        argv = ["sweep", "caches", "--grid", "ratio=0.5,1.5", "--suites",
                "office", "--length", "300", "--no-store"]
        errors = []
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers]) == 2, workers
            errors.append([line for line in
                           capsys.readouterr().err.splitlines()
                           if line.startswith("error:")])
        assert errors[0] == errors[1]
        (line,) = errors[1]
        assert "ratio=1.5" in line and "SpecError" in line

    def test_sweep_unknown_study(self, capsys):
        assert main(["sweep", "bogus", "--suites", "office",
                     "--no-store"]) == 2
        assert "unknown study" in capsys.readouterr().err

    def test_sweep_bad_inputs_exit_cleanly(self, capsys):
        cases = [
            ["sweep", "caches", "--grid", "noequals", "--no-store"],
            ["sweep", "caches", "--grid", "ratio=", "--no-store"],
            ["sweep", "caches", "--grid", "suite=bogus", "--no-store"],
            ["sweep", "caches", "--grid", "scheme=bogus", "--length",
             "300", "--suites", "office", "--no-store"],
            ["sweep", "caches", "--workers", "0", "--suites", "office",
             "--no-store"],
            ["sweep", "caches", "--grid", "ratio=0.4", "--grid",
             "ratio=0.6", "--no-store"],
            ["sweep", "caches", "--grid", "suite=office", "--suites",
             "kernels", "--no-store"],
            ["sweep", "caches", "--suites", "office", "--length",
             "300", "--no-store", "--group-by", "ratoi"],
            ["sweep", "caches", "--suites", "office", "--length",
             "300", "--no-store", "--metrics", "mean_losss"],
            ["sweep", "caches", "--grid", "ratoi=0.4,0.6", "--suites",
             "office", "--no-store"],
            ["sweep", "caches", "--batch-size", "0", "--suites",
             "office", "--length", "300", "--no-store"],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err, argv
