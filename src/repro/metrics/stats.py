"""Typed, hierarchical statistics: the vocabulary of live telemetry.

Every stat-bearing structure used to invent its own result shape —
``CacheStats`` dataclasses, ``RegisterFileStats`` snapshots.  This
module defines the shared vocabulary their ``metrics()`` trees now
speak:

- :class:`Counter` — a monotonically accumulating count (accesses,
  inversions).  Interval deltas subtract.
- :class:`Gauge` — an instantaneous level (worst bias, occupancy).
  Interval deltas are the current value.
- :class:`Ratio` — a quotient of two sibling stats (miss rate =
  misses / accesses).  Interval deltas divide the *deltas* of the
  referenced counters, yielding honest per-interval rates.
- :class:`Distribution` — a labelled histogram (hit-position counts).
  Interval deltas subtract per key.
- :class:`Text` — a non-numeric annotation (scheme name, activation
  string).

Stats live in a :class:`MetricSet` — a tree addressed by dotted paths
(``dl0.inverted_frac``) that can :meth:`~MetricSet.flatten` to a flat
``{path: value}`` dict, and :meth:`~MetricSet.snapshot` for the
bounded-memory interval telemetry in :mod:`repro.metrics.telemetry`.
Study results are not trees: a study returns the flat dict the result
store keeps (:mod:`repro.experiments.registry`), typed on read by
:func:`kind_of_value`.

A stat reads its value either from a plain stored value (a tree built
from values, e.g. in tests) or through a zero-argument ``read`` callable
bound to the owning component (live component telemetry — snapshots
always see current counters, and building the tree adds nothing to the
hot path).

Producers implement the :class:`MetricSource` protocol — ``metrics()
-> MetricSet`` — which every stat-bearing structure in ``repro.uarch``
and ``repro.core`` now does.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

SEPARATOR = "."

#: Stat kinds whose values aggregate arithmetically (mean/min/max).
NUMERIC_KINDS = frozenset({"counter", "gauge", "ratio"})

#: Kinds whose interval delta subtracts (scalar for counters, per-key
#: for distributions).  This is THE authority consulted by
#: :func:`delta_values` — keep new accumulating kinds in sync here.
CUMULATIVE_KINDS = frozenset({"counter", "distribution"})


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)`` added left to right, as the builtin did before
    Python 3.12, whose ``sum`` compensates float rounding; result paths
    sum floats here, so results do not depend on the Python version."""
    total: float = 0
    for value in values:
        total += value
    return total


def kind_of_value(value: Any) -> str:
    """The stat kind a bare (JSON round-tripped) value maps onto.

    Cached sweep results come back as plain JSON scalars; this is the
    deterministic typing rule that lets consumers (``experiments.
    summary``, ``repro report``) aggregate them by stat type without
    guessing numeric-ness ad hoc.  Booleans are flags, not
    measurements, so they classify as text.
    """
    if isinstance(value, bool):
        return "text"
    if isinstance(value, int):
        return "counter"
    if isinstance(value, float):
        return "gauge"
    if isinstance(value, Mapping):
        return "distribution"
    return "text"


ReadFn = Callable[[], Any]


class Stat:
    """Base stat: one named, typed leaf of a :class:`MetricSet`."""

    kind = "stat"

    __slots__ = ("help", "_value", "_read", "_owner", "_name")

    def __init__(
        self,
        value: Any = None,
        *,
        read: Optional[ReadFn] = None,
        help: str = "",
    ) -> None:
        if value is not None and read is not None:
            raise ValueError("pass either a stored value or a read "
                             "callable, not both")
        self.help = help
        self._value = value
        self._read = read
        self._owner: Optional["MetricSet"] = None
        self._name: Optional[str] = None

    def _attach(self, owner: "MetricSet", name: str) -> None:
        self._owner = owner
        self._name = name

    def value(self) -> Any:
        if self._read is not None:
            return self._read()
        return self._value

    def set(self, value: Any) -> None:
        """Update a stored value (rejected for live ``read`` stats)."""
        if self._read is not None:
            raise ValueError(
                f"stat {self._name!r} reads live component state and "
                f"cannot be set"
            )
        self._value = value

    def schema(self, prefix: str = "") -> Dict[str, Any]:
        """JSON-safe type descriptor (kind + reference paths)."""
        return {"kind": self.kind}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self._name!r}={self.value()!r}>"


class Counter(Stat):
    """A monotonically accumulating count; deltas subtract."""

    kind = "counter"
    __slots__ = ()

    def __init__(self, value: Any = None, *, read: Optional[ReadFn] = None,
                 help: str = "") -> None:
        if value is None and read is None:
            value = 0
        super().__init__(value, read=read, help=help)

    def add(self, amount: Union[int, float] = 1) -> None:
        if self._read is not None:
            raise ValueError(
                f"counter {self._name!r} reads live component state"
            )
        self._value += amount


class Gauge(Stat):
    """An instantaneous level; the delta of a gauge is its value."""

    kind = "gauge"
    __slots__ = ()

    def __init__(self, value: Any = None, *, read: Optional[ReadFn] = None,
                 help: str = "") -> None:
        if value is None and read is None:
            value = 0.0
        super().__init__(value, read=read, help=help)


class Text(Stat):
    """A non-numeric annotation (scheme name, activation history)."""

    kind = "text"
    __slots__ = ()

    def __init__(self, value: Any = None, *, read: Optional[ReadFn] = None,
                 help: str = "") -> None:
        if value is None and read is None:
            value = ""
        super().__init__(value, read=read, help=help)


Ref = Union[str, ReadFn]


class Ratio(Stat):
    """A quotient of two sibling stats (or a precomputed value).

    ``numerator`` / ``denominator`` are sibling stat names (dotted
    paths relative to the owning set) or zero-argument callables.  The
    value is ``num / den``; a zero denominator reports ``zero`` — 0.0
    by default, matching the legacy ``CacheStats`` properties, but
    e.g. the port-availability fractions keep their legacy "no checks
    means all free" convention with ``zero=1.0``.  A ratio may instead
    carry a precomputed ``value`` or a ``read`` callable.
    """

    kind = "ratio"
    __slots__ = ("numerator", "denominator", "zero")

    def __init__(
        self,
        value: Any = None,
        *,
        numerator: Optional[Ref] = None,
        denominator: Optional[Ref] = None,
        zero: float = 0.0,
        read: Optional[ReadFn] = None,
        help: str = "",
    ) -> None:
        has_refs = numerator is not None or denominator is not None
        if has_refs and (numerator is None or denominator is None):
            raise ValueError("a Ratio needs both numerator and "
                             "denominator (or neither)")
        if value is None and read is None and not has_refs:
            raise ValueError("a Ratio needs a value, a read callable, "
                             "or numerator+denominator references")
        if (value is not None or read is not None) and has_refs:
            raise ValueError("a Ratio takes either a value/read or "
                             "numerator+denominator, not both")
        super().__init__(value, read=read, help=help)
        self.numerator = numerator
        self.denominator = denominator
        self.zero = zero

    def _resolve(self, ref: Ref) -> Any:
        if callable(ref):
            return ref()
        if self._owner is None:
            raise RuntimeError(
                f"ratio {self._name!r} references sibling {ref!r} but "
                f"is not attached to a MetricSet"
            )
        return self._owner.get(ref).value()

    def value(self) -> Any:
        if self._read is not None:
            return self._read()
        if self.numerator is None:
            return self._value
        denominator = self._resolve(self.denominator)
        return (self._resolve(self.numerator) / denominator
                if denominator else self.zero)

    def schema(self, prefix: str = "") -> Dict[str, Any]:
        info = {"kind": self.kind}
        # Delta computation needs BOTH reference paths; a ratio over a
        # callable stays an opaque (current-value) stat in the schema.
        if (isinstance(self.numerator, str)
                and isinstance(self.denominator, str)):
            info["numerator"] = prefix + self.numerator
            info["denominator"] = prefix + self.denominator
            if self.zero:
                info["zero"] = self.zero
        return info


class Distribution(Stat):
    """A labelled histogram; deltas subtract per key."""

    kind = "distribution"
    __slots__ = ()

    def __init__(self, value: Any = None, *, read: Optional[ReadFn] = None,
                 help: str = "") -> None:
        if value is None and read is None:
            value = {}
        super().__init__(value, read=read, help=help)

    def value(self) -> Dict[Any, Any]:
        raw = super().value()
        return dict(raw) if raw is not None else {}


# ----------------------------------------------------------------------
# The tree
# ----------------------------------------------------------------------
class MetricSet:
    """A hierarchical namespace of stats addressed by dotted paths.

    Examples
    --------
    >>> ms = MetricSet()
    >>> _ = ms.counter("hits", 3)
    >>> _ = ms.counter("misses", 1)
    >>> _ = ms.ratio("miss_rate", numerator="misses",
    ...              denominator="accesses")
    >>> _ = ms.counter("accesses", 4)
    >>> ms.flatten()
    {'hits': 3, 'misses': 1, 'miss_rate': 0.25, 'accesses': 4}
    """

    __slots__ = ("_stats", "_children")

    def __init__(self) -> None:
        self._stats: Dict[str, Stat] = {}
        self._children: Dict[str, "MetricSet"] = {}

    # -- construction ---------------------------------------------------
    def _check_name(self, name: str) -> None:
        if not name or SEPARATOR in name:
            raise ValueError(
                f"invalid metric name {name!r}: names are non-empty "
                f"and must not contain {SEPARATOR!r}"
            )
        if name in self._stats or name in self._children:
            raise ValueError(f"duplicate metric name {name!r}")

    def add(self, name: str, stat: Stat) -> Stat:
        """Register a stat under ``name``; returns it for chaining."""
        self._check_name(name)
        stat._attach(self, name)
        self._stats[name] = stat
        return stat

    def counter(self, name: str, value: Any = None, *,
                read: Optional[ReadFn] = None, help: str = "") -> Counter:
        return self.add(name, Counter(value, read=read, help=help))

    def gauge(self, name: str, value: Any = None, *,
              read: Optional[ReadFn] = None, help: str = "") -> Gauge:
        return self.add(name, Gauge(value, read=read, help=help))

    def ratio(self, name: str, value: Any = None, *,
              numerator: Optional[Ref] = None,
              denominator: Optional[Ref] = None, zero: float = 0.0,
              read: Optional[ReadFn] = None, help: str = "") -> Ratio:
        return self.add(name, Ratio(value, numerator=numerator,
                                    denominator=denominator, zero=zero,
                                    read=read, help=help))

    def distribution(self, name: str, value: Any = None, *,
                     read: Optional[ReadFn] = None,
                     help: str = "") -> Distribution:
        return self.add(name, Distribution(value, read=read, help=help))

    def text(self, name: str, value: Any = None, *,
             read: Optional[ReadFn] = None, help: str = "") -> Text:
        return self.add(name, Text(value, read=read, help=help))

    def child(self, name: str,
              child: Optional["MetricSet"] = None) -> "MetricSet":
        """Attach (or create) a nested set under ``name``."""
        self._check_name(name)
        if child is None:
            child = MetricSet()
        self._children[name] = child
        return child

    # -- lookup ---------------------------------------------------------
    def get(self, path: str) -> Stat:
        """The stat at a dotted path; raises ``KeyError`` when absent."""
        head, __, rest = path.partition(SEPARATOR)
        if rest:
            child = self._children.get(head)
            if child is None:
                raise KeyError(f"unknown metric namespace {head!r} in "
                               f"path {path!r}")
            return child.get(rest)
        try:
            return self._stats[head]
        except KeyError:
            raise KeyError(f"unknown metric {path!r}; known: "
                           f"{', '.join(self.paths()) or '(none)'}"
                           ) from None

    def __contains__(self, path: str) -> bool:
        try:
            self.get(path)
        except KeyError:
            return False
        return True

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, Stat]]:
        """Yield ``(dotted path, stat)`` depth-first, insertion order."""
        for name, stat in self._stats.items():
            yield (f"{prefix}{name}", stat)
        for name, node in self._children.items():
            yield from node.walk(f"{prefix}{name}{SEPARATOR}")

    def paths(self) -> List[str]:
        return [path for path, __ in self.walk()]

    # -- views ----------------------------------------------------------
    def flatten(self) -> Dict[str, Any]:
        """Flat ``{dotted path: current value}`` dict, depth-first."""
        return {path: stat.value() for path, stat in self.walk()}

    def kinds(self) -> Dict[str, str]:
        """``{dotted path: stat kind}`` over the whole tree."""
        return {path: stat.kind for path, stat in self.walk()}

    def schema(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe ``{path: type descriptor}`` for offline delta
        computation (interval-telemetry artefacts)."""
        out: Dict[str, Dict[str, Any]] = {}
        for path, stat in self.walk():
            prefix = path[: len(path) - len(path.rpartition(SEPARATOR)[2])]
            out[path] = stat.schema(prefix)
        return out

    def snapshot(self, label: Any = None) -> "MetricSnapshot":
        """Point-in-time copy of every value."""
        return MetricSnapshot(
            values={path: stat.value() for path, stat in self.walk()},
            label=label,
        )

    def delta(self, current: "MetricSnapshot",
              previous: Optional["MetricSnapshot"] = None
              ) -> Dict[str, Any]:
        """Typed interval delta between two snapshots of this set."""
        return delta_values(self.schema(), current.values,
                            previous.values if previous else None)


class MetricSnapshot:
    """A labelled point-in-time copy of a :class:`MetricSet`'s values."""

    __slots__ = ("values", "label")

    def __init__(self, values: Dict[str, Any], label: Any = None) -> None:
        self.values = values
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricSnapshot label={self.label!r} " \
               f"({len(self.values)} stats)>"


def delta_values(
    schema: Mapping[str, Mapping[str, Any]],
    current: Mapping[str, Any],
    previous: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Per-stat interval delta between two snapshot value dicts.

    Counters and distributions subtract (telescoping: consecutive
    deltas sum to end-of-run totals); ratios with counter references
    divide the *deltas* of those counters (an honest per-interval
    rate); everything else reports its current value.  ``schema`` is a
    :meth:`MetricSet.schema` dict — JSON-round-tripped artefact schemas
    work the same as live ones.
    """
    prev: Mapping[str, Any] = previous or {}
    out: Dict[str, Any] = {}
    for path, value in current.items():
        info = schema.get(path) or {"kind": kind_of_value(value)}
        kind = info.get("kind")
        if kind in CUMULATIVE_KINDS:
            if kind == "distribution":
                before = prev.get(path) or {}
                out[path] = {key: count - before.get(key, 0)
                             for key, count in value.items()}
            else:
                out[path] = value - prev.get(path, 0)
        elif (kind == "ratio" and "numerator" in info
              and "denominator" in info):
            num_path, den_path = info["numerator"], info["denominator"]
            if num_path in current and den_path in current:
                dden = current[den_path] - prev.get(den_path, 0)
                dnum = current[num_path] - prev.get(num_path, 0)
                out[path] = (dnum / dden if dden
                             else info.get("zero", 0.0))
            else:
                out[path] = value
        else:
            out[path] = value
    return out


@runtime_checkable
class MetricSource(Protocol):
    """Anything that can report its telemetry as a :class:`MetricSet`.

    Implemented by every stat-bearing structure in the repo:
    ``Cache``/``TLB``/``ProtectedCache``, ``RegisterFile``,
    ``Scheduler``, ``MemoryOrderBuffer``, ``BitBiasAccumulator``,
    ``BimodalPredictor``/``ProtectedBimodalPredictor`` and
    ``TraceDrivenCore``.
    """

    def metrics(self) -> MetricSet:
        """A live metric tree reading this component's counters."""
        ...  # pragma: no cover - protocol stub
