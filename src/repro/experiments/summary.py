"""Aggregation of sweep results into tables.

Groups point results by one or more parameter axes, reduces each metric
with mean/min/max, and renders through
:func:`repro.analysis.format_table` so sweep output matches the rest of
the repo's artefacts.

Aggregation dispatches on *stat type* — each value of a study's flat
result dict typed on read by :func:`repro.metrics.kind_of_value` —
rather than ad-hoc numeric-ness guessing: numeric kinds (counter,
gauge, ratio) reduce arithmetically; text kinds pass through when every
point in the group agrees and otherwise render an explicit ``(mixed)``
cell — a multi-point group can no longer silently drop a string
column.  A point's dict is the same whether this process, a worker
process or the store produced it, so cached and freshly executed
sweeps summarise identically.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis import format_table
from repro.experiments.runner import PointResult
from repro.metrics import NUMERIC_KINDS, kind_of_value, ordered_sum

AGGREGATORS = {
    "mean": lambda values: ordered_sum(values) / len(values),
    "min": min,
    "max": max,
}

#: Rendered for a >1-point group whose non-numeric metric values
#: disagree (previously the cell was silently dropped).
MIXED = "(mixed)"


def group_results(
    results: Iterable[PointResult],
    keys: Sequence[str],
) -> "Dict[Tuple[Any, ...], List[PointResult]]":
    """Group results by the values of ``keys``, insertion-ordered."""
    groups: Dict[Tuple[Any, ...], List[PointResult]] = {}
    for result in results:
        params = result.params
        group = tuple(params.get(key) for key in keys)
        groups.setdefault(group, []).append(result)
    return groups


def aggregate_metric(
    results: Sequence[PointResult],
    metric: str,
    agg: str = "mean",
) -> Any:
    """Reduce one metric over a group, dispatching on stat type.

    Numeric stats reduce with ``agg``; non-numeric stats (scheme names,
    activation strings, distributions) pass through when uniform across
    the group and report :data:`MIXED` otherwise.  ``None`` only when
    the metric is absent from every point.
    """
    if agg not in AGGREGATORS:
        raise ValueError(
            f"unknown aggregator {agg!r}; choose from "
            f"{', '.join(sorted(AGGREGATORS))}"
        )
    values = [r.metrics[metric] for r in results if metric in r.metrics]
    if not values:
        return None
    if all(kind_of_value(v) in NUMERIC_KINDS for v in values):
        return AGGREGATORS[agg](values)
    first = values[0]
    if all(value == first for value in values[1:]):
        return first
    return MIXED


def metric_names(results: Iterable[PointResult]) -> List[str]:
    """Every metric seen across the results, sorted (cached records
    round-trip through JSON with sorted keys, so sorting keeps fresh
    and cached sweeps rendering identical tables)."""
    seen = {name for result in results for name in result.metrics}
    return sorted(seen)


def summarize(
    results: Sequence[PointResult],
    group_by: Sequence[str],
    metrics: Sequence[str] = (),
    agg: str = "mean",
) -> Tuple[List[str], List[List[Any]]]:
    """(headers, rows) of aggregated metrics per parameter group."""
    chosen = list(metrics) or metric_names(results)
    headers = list(group_by) + [
        m if agg == "mean" else f"{agg} {m}" for m in chosen
    ]
    rows: List[List[Any]] = []
    for group, members in group_results(results, group_by).items():
        row: List[Any] = list(group)
        for metric in chosen:
            row.append(aggregate_metric(members, metric, agg))
        rows.append(row)
    return headers, rows


def format_summary(
    results: Sequence[PointResult],
    group_by: Sequence[str],
    metrics: Sequence[str] = (),
    agg: str = "mean",
    title: str = "",
    float_format: str = "{:.4f}",
) -> str:
    """Render an aggregated sweep table (via ``analysis.format_table``)."""
    headers, rows = summarize(results, group_by, metrics, agg)
    shown = [
        [
            float_format.format(cell)
            if isinstance(cell, float) else
            ("" if cell is None else cell)
            for cell in row
        ]
        for row in rows
    ]
    return format_table(headers, shown, title=title)
