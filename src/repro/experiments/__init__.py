"""Experiment orchestration: declarative sweeps, parallel execution,
and a cached result store.

The paper evaluates Penelope over 531 traces and dozens of design-point
sweeps.  This subsystem replaces the hand-rolled serial loops that used
to live in ``cli.py``, ``benchmarks/bench_ablation_*.py`` and
``examples/*_study.py`` with one engine:

- :mod:`repro.experiments.spec` — :class:`SweepSpec` declares a study
  name, base parameters, and grid axes; :meth:`SweepSpec.expand` takes
  the cartesian product into :class:`ExperimentPoint` objects, each
  with a stable content hash (``point.key``).
- :mod:`repro.experiments.registry` — named studies (``caches``,
  ``regfile``, ``penelope``, ``invert_ratio``, ``vmin_power``,
  ``victim_policy``, ``multiprog``) map a point's parameters onto the
  existing entry points (``TraceDrivenCore``, ``run_cache_study``,
  ``PenelopeProcessor``) and return the flat metric dict the store
  keeps, so a point is one value whichever executor or cache produced
  it.  Workloads are memoised per worker so points sharing a trace
  only generate it once.
- :mod:`repro.experiments.runner` — :class:`SweepRunner`, the one
  sweep engine.  Its planner serves stored points as cache hits,
  dedupes the rest by key and writes every store-backed run's
  manifest before a point runs; the misses then run in this process
  (``workers=1``) or on worker processes it feeds batches to.  Results
  return in spec order, so parallel and serial sweeps are
  bit-identical, and an interrupted run resumes from its manifest.
- :mod:`repro.fabric.store` — the result store it caches into (a
  sharded directory under ``benchmarks/results/fabric/`` keyed by point
  hash); rerunning an unchanged sweep is pure cache hits.
- :mod:`repro.experiments.summary` — group-by/mean-min-max reduction
  feeding :func:`repro.analysis.format_table`.

Quick start::

    from repro.experiments import (
        SweepRunner, SweepSpec, default_store_path, format_summary,
    )

    spec = SweepSpec(
        "caches",
        base={"length": 6000, "seed": 0},
        grid={"ratio": [0.4, 0.5, 0.6], "ways": [4, 8],
              "suite": ["specint2000", "office"]},
    )
    outcome = SweepRunner(store=default_store_path(), workers=4).run(spec)
    print(format_summary(outcome.results, group_by=["ratio", "ways"],
                         metrics=["mean_loss", "inverted_ratio"]))

or from the shell::

    repro sweep caches --grid ratio=0.4,0.5,0.6 --grid ways=4,8 \\
        --workers 4
    repro results --study caches

Studies can equivalently be driven from a declarative, serialisable
:class:`~repro.config.specs.StudySpec` whose sweep axes are spec field
paths — each study's ``spec_paths`` binding maps them onto the flat
parameters above, so both spellings share point hashes and the result
store (see :func:`repro.api.run_study` and ``repro sweep --config``).
"""

from repro.experiments.registry import (
    StudyDefinition,
    get_study,
    register_study,
    study_names,
)
from repro.experiments.runner import (
    PointExecutionError,
    PointResult,
    SweepIncompleteError,
    SweepResult,
    SweepRunner,
)
from repro.experiments.spec import (
    ExperimentPoint,
    SweepSpec,
    coerce_scalar,
    parse_grid_option,
    point_key,
)
from repro.experiments.summary import (
    MIXED,
    aggregate_metric,
    format_summary,
    group_results,
    metric_names,
    summarize,
)
from repro.fabric.store import StoredResult, default_store_path

__all__ = [
    "MIXED",
    "StudyDefinition",
    "get_study",
    "register_study",
    "study_names",
    "PointExecutionError",
    "PointResult",
    "SweepIncompleteError",
    "SweepResult",
    "SweepRunner",
    "ExperimentPoint",
    "SweepSpec",
    "coerce_scalar",
    "parse_grid_option",
    "point_key",
    "StoredResult",
    "default_store_path",
    "aggregate_metric",
    "format_summary",
    "group_results",
    "metric_names",
    "summarize",
]
