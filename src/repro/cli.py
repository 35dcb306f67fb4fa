"""Command-line interface: run the paper's studies from a shell.

Examples
--------
::

    python -m repro.cli physics --duty 0.7
    python -m repro.cli adder --utilization 0.21
    python -m repro.cli list-suites
    python -m repro.cli sweep regfile --suites specint2000 office
    python -m repro.cli sweep penelope --suites kernels --length 5000
    python -m repro.cli sweep caches --grid ratio=0.4,0.5,0.6 \\
        --grid ways=4,8 --workers 4
    python -m repro.cli sweep --resume RUN_ID
    python -m repro.cli results --study caches
    python -m repro.cli show-config --study penelope > study.json
    python -m repro.cli sweep --config study.json --progress line
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis import format_series, format_table
from repro.workloads import suite_names


def cmd_physics(args: argparse.Namespace) -> int:
    from repro.nbti.physics import ReactionDiffusionModel, steady_state_fill

    model = ReactionDiffusionModel()
    model.run_duty_cycle(args.duty, period=10.0, cycles=args.cycles)
    print(f"duty {args.duty:.0%}: transient fill {model.fill:.4f}, "
          f"steady state {steady_state_fill(args.duty):.4f}")
    series = {f"{d / 10:.0%}": steady_state_fill(d / 10)
              for d in range(0, 11)}
    print(format_series(series, title="steady-state N_IT fill vs duty",
                        percent=False))
    return 0


def cmd_adder(args: argparse.Namespace) -> int:
    from repro.circuits import build_ladner_fischer_adder
    from repro.core.combinational import (
        adder_guardband_study,
        search_best_pair,
    )

    adder = build_ladner_fischer_adder(width=args.width)
    print(f"built {args.width}-bit Ladner-Fischer adder: "
          f"{adder.gate_count} gates / {adder.pmos_count} PMOS")
    search = search_best_pair(adder)
    print(f"best idle pair: {search.best_pair} "
          f"(narrow fully-stressed fraction "
          f"{search.fractions()[search.best_pair]:.2%})")
    vectors = [(0x12345678 & ((1 << args.width) - 1), 42, 0)]
    study = adder_guardband_study(
        adder, vectors, utilizations=(args.utilization,),
        pair=search.best_pair,
    )
    print(format_series(study, title="guardband"))
    return 0


def cmd_list_suites(args: argparse.Namespace) -> int:
    from repro.workloads import SUITE_PROFILES, TABLE1_TRACE_COUNTS

    rows = [
        [name, str(TABLE1_TRACE_COUNTS[name]),
         SUITE_PROFILES[name].description]
        for name in suite_names()
    ]
    rows.append(["total", str(sum(TABLE1_TRACE_COUNTS.values())), ""])
    print(format_table(["suite", "traces", "description"], rows,
                       title="Table 1 benchmark suites"))
    return 0


def _store_dir(path: Optional[str]) -> str:
    """Store directory: ``--store`` or the default one."""
    from repro.experiments import default_store_path

    return path or default_store_path()


def _open_store(path: Optional[str]):
    """The result store at ``--store`` (ValueError if it names a file)."""
    from repro.fabric.store import ShardedResultStore

    return ShardedResultStore(_store_dir(path))


#: Trace / address-stream length of a grid-flag sweep without --length.
DEFAULT_LENGTH = 6000


def _grid_sweep(args: argparse.Namespace):
    """The ``SweepSpec`` a study name and the grid flags describe."""
    from repro.experiments import SweepSpec, get_study, parse_grid_option

    if args.study is None:
        raise ValueError(
            "pass a study to sweep, --config FILE or --resume RUN_ID; "
            "see `repro sweep --help` for the registered studies")
    study = get_study(args.study)
    grid = {}
    for option in args.grid or []:
        key, values = parse_grid_option(option)
        if key in grid:
            raise ValueError(
                f"grid axis {key!r} given twice; list every value "
                f"in one option: --grid {key}=v1,v2"
            )
        grid[key] = values
    base = {"length": DEFAULT_LENGTH if args.length is None else args.length,
            "seed": 0 if args.seed is None else args.seed}
    if args.backend is not None:
        from repro.uarch.backends import backend_names

        if args.backend not in backend_names():
            raise ValueError(
                f"unknown kernel backend {args.backend!r}; "
                f"choose from {', '.join(backend_names())}"
            )
        base["backend"] = args.backend
    if "suite" in study.defaults:
        if "suite" in grid:
            if args.suites is not None:
                raise ValueError(
                    "--suites conflicts with --grid suite=...; "
                    "use one of them"
                )
        else:
            grid["suite"] = list(args.suites or suite_names())
    elif "suites" in study.defaults:
        if "suites" in grid:
            # --grid suites=a,b would sweep one SINGLE-program
            # point per value — silently dropping the interference
            # this study exists to measure.
            raise ValueError(
                f"study {args.study!r} takes the whole program set "
                f"as one point; --grid suites=... would sweep "
                f"single-program points instead — pass the "
                f"programs via --suites"
            )
        if args.suites is not None:
            # The whole suite list is ONE point parameter (the
            # programs sharing the cache), not a per-suite axis.
            base["suites"] = list(args.suites)
    return SweepSpec(args.study, base=base, grid=grid)


def _grid_flags_given(args: argparse.Namespace) -> List[str]:
    """The grid flags on the command line: what only a study name uses."""
    return [flag for flag, value in (
        ("--grid", args.grid),
        ("--suites", args.suites),
        ("--length", args.length),
        ("--seed", args.seed),
    ) if value is not None]


def _config_sweep(args: argparse.Namespace):
    """``(SweepSpec, workers)`` of the StudySpec file ``--config`` names."""
    import dataclasses

    from repro import api

    conflicts = [flag for flag, value in (
        ("--resume", args.resume),
        (f"study {args.study!r}", args.study),
    ) if value is not None] + _grid_flags_given(args)
    if conflicts:
        raise ValueError(
            f"--config conflicts with {', '.join(conflicts)}: the "
            f"config file holds the whole study; edit it instead")
    try:
        spec = api.load_study_spec(args.config)
    except OSError as exc:
        raise ValueError(
            f"cannot read {args.config!r}: {exc.strerror}") from None
    if args.backend is not None:
        spec = dataclasses.replace(
            spec,
            processor=dataclasses.replace(spec.processor,
                                          backend=args.backend),
        )
    return api.study_sweep_spec(spec), spec.workers


def _resumed_sweep(args: argparse.Namespace):
    """The ``SweepSpec`` the manifest of run ``--resume`` recorded."""
    from repro.experiments import SweepSpec
    from repro.obs.provenance import load_run_manifest

    conflicts = _grid_flags_given(args) + (
        ["--backend"] if args.backend is not None else [])
    if conflicts:
        raise ValueError(
            f"--resume conflicts with {', '.join(conflicts)}: the run's "
            f"manifest holds the whole spec")
    spec = SweepSpec.from_payload(
        load_run_manifest(_store_dir(args.store), args.resume)["spec"])
    if args.study is not None and args.study != spec.study:
        raise ValueError(
            f"--resume {args.resume} was planned for study "
            f"{spec.study!r}, not {args.study!r}"
        )
    return spec


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run one sweep and report it.

    The spec comes from exactly one source: a study name and the grid
    flags, a StudySpec file (``--config``), or the manifest of a run in
    the store (``--resume``).  Everything after it is one path.
    """
    from repro.experiments import (
        PointExecutionError,
        SweepIncompleteError,
        get_study,
    )

    try:
        workers = args.workers
        if args.config is not None:
            spec, file_workers = _config_sweep(args)
            if workers is None:
                workers = file_workers
            intro = f"study {spec.study!r} from {args.config}"
            label, suffix = f"study {spec.study}", ""
        elif args.resume is not None:
            spec = _resumed_sweep(args)
            intro = f"resume {spec.study!r} run {args.resume}"
            label, suffix = (f"sweep {spec.study}",
                             f" (resumed {args.resume})")
        else:
            spec = _grid_sweep(args)
            intro = f"sweep {spec.study!r}"
            label, suffix = f"sweep {spec.study}", ""
        study = get_study(spec.study)

        # Group keys are fully known before execution (defaults + base
        # + grid); rejecting typos here saves the whole sweep's compute.
        group_by = (args.group_by.split(",") if args.group_by
                    else spec.axis_names())
        known_params = set(study.defaults) | set(spec.base) | set(spec.grid)
        bad_keys = [k for k in group_by if k not in known_params]
        if bad_keys:
            raise ValueError(
                f"unknown --group-by key(s) {', '.join(bad_keys)}; "
                f"available: {', '.join(sorted(known_params))}"
            )

        store = None if args.no_store else _open_store(args.store)
        return _run_sweep_and_report(
            spec, args,
            workers=1 if workers is None else workers,
            store=store,
            group_by=group_by,
            intro=intro,
            title=f"{label}: {study.description}{suffix}",
        )
    except SweepIncompleteError as exc:
        # The run stopped with durable state behind it — distinct exit
        # code so scripts can branch straight to `sweep --resume`.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError, KeyError,
            PointExecutionError) as exc:
        # Bad grid syntax or config, unknown scheme value, unknown
        # suite passed via --grid suite=..., workers < 1, an unknown
        # run id, a study raising inside a point (PointExecutionError
        # names the point and params), ...
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def _run_sweep_and_report(spec, args: argparse.Namespace, *, workers,
                          store, group_by, intro, title) -> int:
    """Execute a sweep and print plan, progress, summary and footer."""
    from repro.experiments import SweepRunner, format_summary
    from repro.obs.log import new_run_id
    from repro.obs.progress import SweepProgress

    mode = "none" if args.quiet else args.progress or "none"
    progress = SweepProgress(spec.size, mode=mode)
    # A resume keeps its run's id.  Trace artefacts are named after it
    # and land in the store directory (the run's natural output
    # directory), or the default one for --no-store runs, so runs that
    # share a directory keep a trace each.  `is not None`, not
    # truthiness: an empty store is falsy (it has __len__), but its
    # directory is still where artefacts belong.
    run_id = args.resume or new_run_id()
    obs_dir = store.directory if store is not None else _store_dir(None)
    trace_json = os.path.join(obs_dir, f"trace-{run_id}.json")
    spans_path = os.path.join(obs_dir, f"spans-{run_id}.jsonl")
    if args.trace:
        from repro.obs.trace import TRACER

        TRACER.clear()
        TRACER.enable()
    human = not args.quiet and mode != "json"

    runner = SweepRunner(store=store, workers=workers,
                         progress=progress.update, run_id=run_id,
                         trace_path=trace_json if args.trace else None,
                         batch_size=args.batch_size)
    progress.begin(run_id=run_id,
                   store=store.directory if store is not None else None)
    if human:
        print(f"{intro}: {spec.size} points over axes "
              f"{', '.join(spec.axis_names())} ({workers} worker"
              f"{'s' if workers != 1 else ''})")
    outcome = (runner.resume(args.resume) if args.resume is not None
               else runner.run(spec))

    if args.trace:
        from repro.obs.trace import (
            TRACER,
            export_chrome_trace,
            save_spans,
        )

        records = TRACER.records()
        save_spans(spans_path, records)
        events = export_chrome_trace(records, trace_json)
        if human:
            print(f"trace: {events} events -> {trace_json} "
                  f"(raw spans: {spans_path})")

    metrics = args.metrics.split(",") if args.metrics else ()
    if outcome.results and metrics:
        from repro.experiments import metric_names

        known_metrics = set(metric_names(outcome.results))
        bad = [m for m in metrics if m not in known_metrics]
        if bad:
            print(f"error: unknown metric(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known_metrics))}",
                  file=sys.stderr)
            return 2
    if mode == "json":
        import json

        print(json.dumps({
            "event": "summary",
            "points": len(outcome),
            "cache_hits": outcome.cache_hits,
            "executed": outcome.executed,
            "wall_time": round(outcome.wall_time, 6),
            "run_id": outcome.run_id,
            "manifest": outcome.manifest_path,
        }, sort_keys=True))
        return 0
    if args.quiet:
        return 0
    print(format_summary(
        outcome.results, group_by=group_by,
        metrics=metrics,
        agg=args.agg,
        title=title,
    ))
    print(f"{len(outcome)} points in {outcome.wall_time:.2f}s: "
          f"{outcome.cache_hits} cache hits, "
          f"{outcome.executed} executed"
          + ("" if store is not None else " (store disabled)"))
    slowest = outcome.slowest()
    if slowest is not None:
        print(f"slowest point: {slowest.point.describe()} "
              f"({slowest.elapsed:.2f}s, key {slowest.point.key[:10]})")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Work with recorded observability artefacts.

    ``repro trace export OUT --spans FILE`` converts a raw span file
    (``repro sweep --trace`` writes ``spans-<run_id>.jsonl`` next to
    the store) into Chrome trace-event JSON loadable in Perfetto /
    ``chrome://tracing``; ``repro trace events`` renders the structured
    event log as human lines.
    """
    if args.action == "export":
        from repro.obs.trace import export_chrome_trace, load_spans

        if not args.output:
            print("error: pass an output path: repro trace export "
                  "run.trace.json --spans FILE", file=sys.stderr)
            return 2
        spans_path = args.spans
        if not spans_path:
            print("error: pass the span file to export: --spans "
                  "spans-<run_id>.jsonl (a traced sweep writes one per "
                  "run next to its store)", file=sys.stderr)
            return 2
        try:
            records = load_spans(spans_path)
        except OSError as exc:
            print(f"error: cannot read {spans_path!r}: {exc.strerror}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            events = export_chrome_trace(records, args.output)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
        print(f"wrote {events} trace events to {args.output} "
              f"(load in Perfetto or chrome://tracing)")
        return 0

    from repro.obs.log import read_events, render_event

    events_path = args.events or os.path.join(
        _store_dir(None), "events.jsonl")
    if getattr(args, "follow", False):
        # Follow mode tails forever (the file may not exist *yet* —
        # e.g. watching a directory a sweep is about to write into),
        # so a missing file is a wait, not an error.
        try:
            for record in read_events(events_path, level=args.level,
                                      run_id=args.run_id, follow=True):
                print(render_event(record), flush=True)
        except KeyboardInterrupt:
            return 0
        return 0
    if not os.path.exists(events_path):
        print(f"error: cannot read {events_path!r}: "
              f"No such file or directory", file=sys.stderr)
        return 2
    try:
        records = read_events(events_path, level=args.level,
                              run_id=args.run_id)
    except OSError as exc:
        print(f"error: cannot read {events_path!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print(f"no events in {events_path}")
        return 0
    for record in records:
        print(render_event(record))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep service (plain HTTP, DESIGN.md §11)."""
    from repro.service import SweepService

    if args.max_jobs < 1:
        print("error: --max-jobs must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print("error: --port must be in 0-65535", file=sys.stderr)
        return 2
    token = args.token
    if token is None and args.token_env:
        token = os.environ.get(args.token_env) or None
    service = SweepService(
        _store_dir(args.store),
        host=args.host,
        port=args.port,
        token=token,
        max_jobs=args.max_jobs,
        default_workers=args.workers,
        drain_grace=args.drain_grace,
        ready_file=args.ready_file,
        quiet=args.quiet,
    )
    try:
        return service.run()
    except KeyboardInterrupt:
        return 0


def _print_provenance(directory: str) -> None:
    """One-line header from the store's newest manifest, if any.

    The newest run wrote the newest rows, finished or not: a run that
    was stopped or killed heads the listing as unfinished.
    Best-effort on purpose: a missing or corrupt manifest must never
    block listing the results themselves.
    """
    from repro.obs.provenance import (
        describe_manifest,
        list_runs,
        load_manifest,
        manifest_path_for,
    )

    runs = list_runs(directory)
    if not runs:
        return
    try:
        print(describe_manifest(load_manifest(
            manifest_path_for(directory, runs[-1]))))
    except (OSError, ValueError):
        pass


def cmd_show_config(args: argparse.Namespace) -> int:
    """Print a study's default StudySpec as ready-to-edit JSON."""
    from repro import api

    try:
        spec = api.default_study_spec(args.study)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(spec.to_json())
    return 0


def cmd_bench_smoke(args: argparse.Namespace) -> int:
    """Execute every bench with scaled-down workloads (tier-2 smoke).

    ``pytest benchmarks/`` collects nothing (the files are named
    ``bench_*.py``), so without this entry point the benches only run
    when someone remembers to invoke them file by file — and rot.  The
    smoke run points pytest at the bench directory with the smoke/scale
    environment set, which shrinks every workload and relaxes the
    full-size shape assertions (see ``benchmarks/conftest.py``).
    """
    import os

    import pytest

    bench_dir = args.path
    if bench_dir is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        bench_dir = os.path.join(repo_root, "benchmarks")
    if not os.path.isdir(bench_dir):
        print(f"error: bench directory not found: {bench_dir}",
              file=sys.stderr)
        return 2
    if args.scale < 1:
        print("error: --scale must be >= 1", file=sys.stderr)
        return 2
    # Every key is assigned (or cleared) explicitly and restored after
    # the run, so repeated invocations in one process cannot inherit a
    # previous call's scale or artefact directory.
    overrides = {
        "REPRO_BENCH_SMOKE": "1",
        "REPRO_BENCH_SCALE": str(args.scale),
        "REPRO_BENCH_RESULTS_DIR": args.results_dir,
    }
    saved = {key: os.environ.get(key) for key in overrides}
    for key, value in overrides.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    # bench_*.py does not match pytest's default python_files pattern
    # (the very rot this command exists to prevent), so widen it.
    pytest_args = [
        bench_dir, "-q", "-p", "no:cacheprovider",
        "-o", "python_files=bench_*.py",
    ]
    if args.only:
        pytest_args += ["-k", args.only]
    try:
        return int(pytest.main(pytest_args))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def cmd_report(args: argparse.Namespace) -> int:
    """Render stored sweep results (or interval telemetry) as a report.

    Unlike ``repro results`` (a raw record listing), this renders the
    same aggregated view a live ``repro sweep`` prints — from the store
    alone, so any cached sweep can be re-reported without re-running
    anything.  With ``--intervals`` it instead renders an
    interval-telemetry JSON artefact (e.g. the one
    ``bench_perf_kernel.py`` emits) as per-interval bar series.
    """
    from repro.analysis import format_interval_report

    if args.intervals:
        from repro.metrics import load_interval_payload

        try:
            payload = load_interval_payload(args.intervals)
            # Render before printing: a broken output pipe (`| head`)
            # must not masquerade as a file-read error.
            rendered = format_interval_report(
                payload, metrics=args.metrics.split(",") if args.metrics
                else ())
        except OSError as exc:
            print(f"error: cannot read {args.intervals!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(rendered)
        return 0

    if not args.study:
        print("error: pass --study NAME (or --intervals FILE)",
              file=sys.stderr)
        return 2
    from repro.experiments import (
        ExperimentPoint,
        PointResult,
        format_summary,
        metric_names,
    )
    try:
        store = _open_store(args.store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = store.records(study=args.study)
    if not records:
        print(f"no stored results for study {args.study!r} in "
              f"{store.directory}", file=sys.stderr)
        return 1
    _print_provenance(store.directory)
    results = [
        PointResult(
            point=ExperimentPoint.from_dict(record.study, record.params),
            metrics=dict(record.metrics),
            cached=True,
            elapsed=record.elapsed,
        )
        for record in records
    ]
    if args.group_by:
        group_by = args.group_by.split(",")
        known = {key for result in results for key in result.params}
        bad = [k for k in group_by if k not in known]
        if bad:
            print(f"error: unknown --group-by key(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known))}",
                  file=sys.stderr)
            return 2
    else:
        group_by = _varying_params(results)
    metrics = args.metrics.split(",") if args.metrics else ()
    if metrics:
        known_metrics = set(metric_names(results))
        bad = [m for m in metrics if m not in known_metrics]
        if bad:
            print(f"error: unknown metric(s) {', '.join(bad)}; "
                  f"available: {', '.join(sorted(known_metrics))}",
                  file=sys.stderr)
            return 2
    print(format_summary(
        results, group_by=group_by, metrics=metrics, agg=args.agg,
        title=f"report {args.study}: {len(results)} stored points "
              f"({store.directory})",
    ))
    return 0


def _varying_params(results) -> List[str]:
    """Parameters whose values differ across the results (sorted) —
    the natural grouping axes of a stored sweep."""
    seen: dict = {}
    for result in results:
        for key, value in result.params.items():
            seen.setdefault(key, set()).add(repr(value))
    return sorted(key for key, values in seen.items() if len(values) > 1)


def cmd_results(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args.store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = store.records(study=args.study)
    if args.limit > 0:
        records = records[-args.limit:]
    if not records:
        print(f"no stored results in {store.directory}")
        return 0
    _print_provenance(store.directory)
    rows = []
    for record in records:
        metrics = ", ".join(
            f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(record.metrics.items())
        )
        params = " ".join(
            f"{k}={v}" for k, v in sorted(record.params.items())
        )
        rows.append([record.key[:10], record.study, params, metrics])
    print(format_table(
        ["key", "study", "params", "metrics"], rows,
        title=f"{len(records)} stored results ({store.directory})",
    ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """AST invariant checks.  Exit 0 clean / 1 violations / 2 error."""
    from repro.lint import (
        LintError,
        default_rules,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.id}  [{rule.severity}]  {rule.description}")
        return 0
    paths = args.paths
    if not paths:
        # default target: the installed package sources
        paths = [os.path.dirname(os.path.abspath(__file__))]
    try:
        report = run_lint(paths, rules=args.rule)
    except LintError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RecursionError) as exc:
        print(f"lint internal error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report, strict=args.strict))
    else:
        print(render_text(report, strict=args.strict))
    return report.exit_code(strict=args.strict)


def cmd_store_info(args: argparse.Namespace) -> int:
    """Describe a sharded store: counts, layout, known runs."""
    from repro.fabric import ShardedResultStore
    from repro.obs.provenance import list_runs

    directory = _store_dir(args.store)
    try:
        store = ShardedResultStore(directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = store.stats()
        print(f"directory: {stats['directory']}")
        print(f"schema: {stats['schema']}")
        print(f"records: {stats['records']}")
        print(f"shards: {stats['shards']}")
        print(f"bytes: {stats['bytes']}")
        if stats["skipped_lines"]:
            print(f"skipped lines: {stats['skipped_lines']}")
        runs = list_runs(directory)
        print(f"runs: {len(runs)}")
        for run_id in runs:
            print(f"  {run_id}")
    finally:
        store.close()
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Rewrite shards keeping only the live record per key."""
    from repro.fabric import ShardedResultStore

    directory = _store_dir(args.store)
    try:
        store = ShardedResultStore(directory)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        stats = store.compact()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        store.close()
    print(f"compacted {directory}")
    print(f"records: {stats.records}")
    print(f"bytes: {stats.bytes_before} -> {stats.bytes_after} "
          f"(reclaimed {stats.reclaimed})")
    print(f"dropped lines: {stats.dropped_lines}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Penelope (MICRO 2007) reproduction studies",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    physics = commands.add_parser("physics", help="NBTI physics curves")
    physics.add_argument("--duty", type=float, default=0.7)
    physics.add_argument("--cycles", type=int, default=100)
    physics.set_defaults(func=cmd_physics)

    adder = commands.add_parser("adder", help="adder aging study")
    adder.add_argument("--width", type=int, default=32)
    adder.add_argument("--utilization", type=float, default=0.21)
    adder.set_defaults(func=cmd_adder)

    list_suites = commands.add_parser(
        "list-suites", help="list the Table 1 benchmark suites")
    list_suites.set_defaults(func=cmd_list_suites)

    # Hardcoded (not study_names()) so `repro physics` etc. don't pay
    # the experiments-subsystem import; a CLI test keeps it in sync.
    sweep = commands.add_parser(
        "sweep",
        help="run a study's parameter grid, a JSON StudySpec or an "
             "interrupted run through the experiment engine",
        epilog="registered studies: caches, invert_ratio, multiprog, "
               "penelope, regfile, victim_policy, vmin_power",
    )
    # Validated in cmd_sweep (not argparse choices) so a typo gets the
    # same `error: unknown study ...` shape as other sweep errors.
    sweep.add_argument("study", nargs="?", default=None,
                       help="registered study to sweep")
    sweep.add_argument("--config", default=None, metavar="FILE",
                       help="run a JSON StudySpec instead of a study "
                            "and grid flags (see `repro show-config`)")
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="one grid axis; repeatable (e.g. --grid ratio=0.4,0.5)",
    )
    sweep.add_argument(
        "--suites", nargs="+", default=None,
        choices=suite_names(),
        help="suite axis of the grid (default: all Table 1 suites; "
             "conflicts with --grid suite=...)",
    )
    sweep.add_argument("--length", type=int, default=None,
                       help="trace / address-stream length per point "
                            f"(default: {DEFAULT_LENGTH})")
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload seed (default: 0)")
    sweep.add_argument("--backend", default=None, metavar="NAME",
                       help="kernel backend for every point (reference "
                            "or vectorized; default: the study's "
                            "default, reference, or the config's "
                            "processor.backend)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="1 (default, or the config's `workers`) "
                            "runs in this process; more starts that "
                            "many worker processes, each fed one batch "
                            "of points at a time")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="result store directory (default: "
                            "benchmarks/results/fabric)")
    sweep.add_argument("--no-store", action="store_true",
                       help="disable the result cache for this sweep")
    sweep.add_argument("--group-by", default=None, metavar="K1,K2",
                       help="summary grouping axes (default: grid axes)")
    sweep.add_argument("--metrics", default=None, metavar="M1,M2",
                       help="metrics to show (default: all)")
    sweep.add_argument("--agg", default="mean",
                       choices=("mean", "min", "max"))
    sweep.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="finish an interrupted run from its manifest in the store "
             "(re-executes only points the store is missing)")
    sweep.add_argument("--batch-size", type=int, default=None,
                       metavar="N",
                       help="points per worker batch with --workers > 1 "
                            "(default: ~4 batches per worker)")
    sweep.add_argument(
        "--trace", action="store_true",
        help="record execution spans; writes spans-<run_id>.jsonl and "
             "a Perfetto-loadable trace-<run_id>.json next to the store",
    )
    sweep.add_argument(
        "--progress", default=None, choices=("line", "json", "none"),
        help="per-point progress rendering (default: none)",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress plan, progress, summary and footer output",
    )
    sweep.set_defaults(func=cmd_sweep)

    show_config = commands.add_parser(
        "show-config",
        help="print a study's default declarative config as JSON",
    )
    show_config.add_argument("--study", default="penelope",
                             help="registered study (default: penelope)")
    show_config.set_defaults(func=cmd_show_config)

    bench_smoke = commands.add_parser(
        "bench-smoke",
        help="execute every benchmark with tiny workloads (rot check)",
    )
    bench_smoke.add_argument(
        "--scale", type=int, default=10,
        help="workload divisor applied to every bench (default 10)",
    )
    bench_smoke.add_argument(
        "--path", default=None, metavar="DIR",
        help="bench directory (default: <repo>/benchmarks)",
    )
    bench_smoke.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="artefact directory (default: benchmarks/results-scaled)",
    )
    bench_smoke.add_argument(
        "--only", default=None, metavar="EXPR",
        help="pytest -k expression selecting a subset of benches",
    )
    bench_smoke.set_defaults(func=cmd_bench_smoke)

    trace = commands.add_parser(
        "trace",
        help="export recorded spans as Chrome trace JSON, or render "
             "the structured event log",
        epilog="examples: repro sweep caches --trace; repro trace "
               "export run.trace.json --spans DIR/spans-RUN_ID.jsonl; "
               "repro trace events --limit 20",
    )
    trace.add_argument("action", choices=("export", "events"),
                       help="export: spans -> Chrome trace JSON; "
                            "events: render events.jsonl")
    trace.add_argument("output", nargs="?", default=None,
                       help="Chrome trace JSON output path (export)")
    trace.add_argument("--spans", default=None, metavar="FILE",
                       help="raw span file to export (a traced sweep "
                            "writes spans-<run_id>.jsonl next to its "
                            "store)")
    trace.add_argument("--events", default=None, metavar="FILE",
                       help="event log file (default: events.jsonl "
                            "next to the default store)")
    trace.add_argument("--level", default=None,
                       choices=("debug", "info", "warning", "error"),
                       help="minimum level to show (events)")
    trace.add_argument("--run-id", default=None, dest="run_id",
                       help="only this run's events")
    trace.add_argument("--limit", type=int, default=0,
                       help="show only the newest N events")
    trace.add_argument("--follow", action="store_true",
                       help="keep tailing the event log as it grows "
                            "(events; Ctrl-C to stop)")
    trace.set_defaults(func=cmd_trace)

    results = commands.add_parser(
        "results", help="list cached sweep results")
    results.add_argument("--study", default=None,
                         help="only this study's records")
    results.add_argument("--store", default=None, metavar="DIR",
                         help="result store directory (default: "
                              "benchmarks/results/fabric)")
    results.add_argument("--limit", type=int, default=0,
                         help="show only the newest N records")
    results.set_defaults(func=cmd_results)

    report = commands.add_parser(
        "report",
        help="render stored sweep results (or interval telemetry) as "
             "an aggregated report",
        epilog="examples: repro report --study caches --group-by ratio; "
               "repro report --intervals "
               "benchmarks/results/perf_metrics_intervals.json",
    )
    report.add_argument("--study", default=None,
                        help="render this study's stored records")
    report.add_argument("--store", default=None, metavar="DIR",
                        help="result store directory (default: "
                             "benchmarks/results/fabric)")
    report.add_argument("--group-by", default=None, metavar="K1,K2",
                        help="grouping axes (default: every parameter "
                             "that varies across the records)")
    report.add_argument("--metrics", default=None, metavar="M1,M2",
                        help="metrics to show (default: all; with "
                             "--intervals: all active counters)")
    report.add_argument("--agg", default="mean",
                        choices=("mean", "min", "max"))
    report.add_argument("--intervals", default=None, metavar="FILE",
                        help="render an interval-telemetry JSON "
                             "artefact as per-interval bars instead")
    report.set_defaults(func=cmd_report)

    lint = commands.add_parser(
        "lint",
        help="check the repo's reproducibility invariants "
             "(AST static analysis)",
        epilog="exit codes: 0 clean, 1 violations found, 2 internal "
               "error.  Suppress one finding with a trailing "
               "'# repro: noqa[RULE-ID]' comment.",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="IDS",
                      help="only run these rule ids (comma-separated, "
                           "repeatable) — e.g. --rule DET001,RST001")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"),
                      help="output format (json is the CI artefact)")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the run (exit 1)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the ruleset and exit")
    lint.set_defaults(func=cmd_lint)

    serve = commands.add_parser(
        "serve",
        help="run the sweep service: submit/stream/query specs over "
             "plain HTTP",
        epilog="examples: repro serve --port 8765; "
               "REPRO_SERVICE_TOKEN=s3cret repro serve "
               "--token-env REPRO_SERVICE_TOKEN; follow a job's "
               "Server-Sent Events with curl -N "
               "http://127.0.0.1:8765/v1/jobs/JOB/events",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8765)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result store directory (default: "
                            "benchmarks/results/fabric)")
    serve.add_argument("--workers", type=int, default=1,
                       help="default workers per job (default: 1)")
    serve.add_argument("--max-jobs", type=int, default=2,
                       dest="max_jobs",
                       help="concurrently executing jobs (default: 2)")
    serve.add_argument("--token", default=None,
                       help="require 'Authorization: Bearer TOKEN' "
                            "(prefer --token-env: argv leaks into ps)")
    serve.add_argument("--token-env", default="REPRO_SERVICE_TOKEN",
                       dest="token_env", metavar="VAR",
                       help="read the bearer token from this "
                            "environment variable when --token is "
                            "not given (default: REPRO_SERVICE_TOKEN)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       dest="drain_grace", metavar="SECONDS",
                       help="how long SIGTERM waits for running jobs "
                            "(default: 30)")
    serve.add_argument("--ready-file", default=None, dest="ready_file",
                       metavar="FILE",
                       help="write {url, pid, store} JSON here once "
                            "listening (ephemeral-port discovery)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the listening/drained lines")
    serve.set_defaults(func=cmd_serve)

    store_cmd = commands.add_parser(
        "store",
        help="inspect and maintain result stores",
        epilog="examples: repro store info; repro store compact",
    )
    store_actions = store_cmd.add_subparsers(dest="store_action",
                                             required=True)
    store_info = store_actions.add_parser(
        "info", help="record counts, shard layout, known runs")
    store_info.add_argument("--store", default=None, metavar="DIR",
                            help="result store directory (default: "
                                 "benchmarks/results/fabric)")
    store_info.set_defaults(func=cmd_store_info)
    store_compact = store_actions.add_parser(
        "compact",
        help="rewrite shards keeping only the live record per key")
    store_compact.add_argument("--store", default=None, metavar="DIR",
                               help="result store directory (default: "
                                    "benchmarks/results/fabric)")
    store_compact.set_defaults(func=cmd_store_compact)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0  # e.g. `repro list-suites | head`


if __name__ == "__main__":
    sys.exit(main())
