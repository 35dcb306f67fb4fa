"""Metrics & telemetry: the typed stat trees of the live structures.

- :mod:`repro.metrics.stats` — the stat vocabulary (:class:`Counter`,
  :class:`Gauge`, :class:`Ratio`, :class:`Distribution`, :class:`Text`),
  the hierarchical :class:`MetricSet` with dotted paths /
  ``flatten()`` / ``snapshot()``, the :class:`MetricSource` protocol
  every stat-bearing structure implements, and :func:`kind_of_value`,
  which types a study's flat result dict on read.
- :mod:`repro.metrics.telemetry` — :class:`IntervalTelemetry`,
  bounded-memory interval snapshots over streaming runs, with a
  JSON-artefact round trip for ``repro report --intervals``.

Quick start::

    from repro.metrics import IntervalTelemetry
    from repro.uarch import TraceDrivenCore
    from repro.workloads import TraceGenerator

    core = TraceDrivenCore()
    telemetry = IntervalTelemetry(core, every=2000)
    stream = TraceGenerator(seed=0).stream("specint2000", length=10_000)
    result = core.run(telemetry.watch(stream))
    telemetry.totals()["dl0.misses"]      # == result.dl0.misses
    telemetry.series("dl0.misses")        # per-interval miss deltas
"""

from repro.metrics.stats import (
    CUMULATIVE_KINDS,
    Counter,
    Distribution,
    Gauge,
    MetricSet,
    MetricSnapshot,
    MetricSource,
    NUMERIC_KINDS,
    Ratio,
    Stat,
    Text,
    delta_values,
    kind_of_value,
    ordered_sum,
)
from repro.metrics.telemetry import (
    IntervalTelemetry,
    load_interval_payload,
    payload_deltas,
)

__all__ = [
    "CUMULATIVE_KINDS",
    "Counter",
    "Distribution",
    "Gauge",
    "IntervalTelemetry",
    "MetricSet",
    "MetricSnapshot",
    "MetricSource",
    "NUMERIC_KINDS",
    "Ratio",
    "Stat",
    "Text",
    "delta_values",
    "kind_of_value",
    "load_interval_payload",
    "ordered_sum",
    "payload_deltas",
]
