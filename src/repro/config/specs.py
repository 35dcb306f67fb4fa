"""Typed, serialisable processor/protection/workload/study specs.

One declarative configuration surface for everything the repo can
construct.  Every entry point used to hand-assemble ``CoreConfig``,
``CacheConfig``, TLB geometry and protection mechanisms with duplicated
code; these dataclasses replace that with specs that

- carry the paper's default values (the Core(tm)-like configuration of
  Section 4.1 and the Section 4 mechanism parameters),
- round-trip through ``to_dict()`` / ``from_dict()`` / JSON bit-exactly,
- validate eagerly, raising :class:`SpecError` with the offending path
  and the valid alternatives on unknown keys, unknown mechanism names,
  unknown mechanism parameters, or impossible geometry.

Construction from a spec happens in :mod:`repro.api` (``build_core``,
``build_penelope``, ``run_study``); mechanism names resolve through the
string-keyed registries in :mod:`repro.config.registry`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:
    from repro.uarch.core import CoreConfig

from repro.uarch.backends import CacheConfig
from repro.uarch.ports import AdderPolicy
from repro.uarch.tlb import TLBConfig
from repro.workloads import suite_names


class SpecError(ValueError):
    """A spec could not be validated or deserialised."""


#: Sentinel for "this spec field path does not exist / is unset".
MISSING = object()


def _type_name(value: Any) -> str:
    return type(value).__name__


def _freeze_value(value: Any) -> Any:
    """Canonicalise a parameter value: lists become tuples, recursively.

    Keeps spec equality independent of whether a value arrived as a
    Python tuple or a JSON array (JSON has no tuples).
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _freeze_value(v) for k, v in value.items()}
    return value


def _thaw_value(value: Any) -> Any:
    """Inverse of :func:`_freeze_value` for JSON emission."""
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _thaw_value(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class Spec:
    """Base class: dict/JSON round-trip with strict key validation."""

    #: Field name -> nested Spec subclass, for recursive ``from_dict``.
    _NESTED: ClassVar[Mapping[str, type]] = {}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any], path: str = "") -> "Spec":
        """Build a spec from a plain dict, rejecting unknown keys."""
        where = path or cls.__name__
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"{where}: expected a mapping, got {_type_name(payload)}"
            )
        names = [f.name for f in dataclasses.fields(cls)]
        unknown = sorted(set(payload) - set(names))
        if unknown:
            raise SpecError(
                f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(names)}"
            )
        kwargs: Dict[str, Any] = {}
        for name in names:
            if name not in payload:
                continue
            value = payload[name]
            nested = cls._NESTED.get(name)
            if nested is not None:
                # No nested field is nullable: a JSON null here would
                # silently skip the nested spec's validation and crash
                # later with a raw AttributeError.
                if value is None:
                    raise SpecError(
                        f"{where}.{name}: must be a {nested.__name__} "
                        f"mapping, not null (omit the key to use the "
                        f"defaults)"
                    )
                value = nested.from_dict(
                    value, path=f"{where}.{name}" if path else name
                )
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{where}: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types rendering (tuples become lists)."""
        out: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Spec):
                out[f.name] = value.to_dict()
            else:
                out[f.name] = _thaw_value(value)
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON for {cls.__name__}: {exc}") from exc
        return cls.from_dict(payload)

    def replace(self, **changes: Any) -> "Spec":
        """``dataclasses.replace`` that re-runs validation."""
        return dataclasses.replace(self, **changes)


def _set(spec: Spec, name: str, value: Any) -> None:
    object.__setattr__(spec, name, value)


def _require_positive(where: str, **values: Any) -> None:
    for name, value in values.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value <= 0:
            raise SpecError(
                f"{where}: {name} must be a positive number, got {value!r}"
            )


def _require_int(where: str, least: int, **values: Any) -> None:
    """Counts and cycle penalties: whole numbers of at least ``least``.

    A fractional penalty would put events between cycles, where bias
    accounting no longer regroups exactly (DESIGN.md "Bias
    accounting").
    """
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < least:
            kind = "positive" if least > 0 else "non-negative"
            raise SpecError(
                f"{where}: {name} must be a {kind} integer, got {value!r}"
            )


# ----------------------------------------------------------------------
# Structure geometry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheGeometrySpec(Spec):
    """DL0 geometry in the units the paper quotes (KB, ways).

    Examples
    --------
    >>> CacheGeometrySpec().to_cache_config().name
    'DL0-32K-8w'
    """

    size_kb: int = 32
    ways: int = 8
    line_bytes: int = 64

    def __post_init__(self) -> None:
        _require_int("cache geometry", 1, size_kb=self.size_kb,
                     ways=self.ways, line_bytes=self.line_bytes)
        size_bytes = self.size_kb * 1024
        if size_bytes % (self.ways * self.line_bytes):
            raise SpecError(
                f"impossible cache geometry: {self.size_kb} KB is not "
                f"divisible into {self.ways} ways of {self.line_bytes}-byte "
                f"lines ({size_bytes} % {self.ways * self.line_bytes} != 0)"
            )

    def to_cache_config(self, prefix: str = "DL0") -> CacheConfig:
        return CacheConfig(
            name=f"{prefix}-{self.size_kb}K-{self.ways}w",
            size_bytes=self.size_kb * 1024,
            ways=self.ways,
            line_bytes=self.line_bytes,
        )


@dataclass(frozen=True)
class TLBGeometrySpec(Spec):
    """DTLB geometry in entries.

    Examples
    --------
    >>> TLBGeometrySpec().to_tlb_config().name
    'DTLB-128'
    """

    entries: int = 128
    ways: int = 8
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        _require_int("TLB geometry", 1, entries=self.entries,
                     ways=self.ways, page_bytes=self.page_bytes)
        if self.entries % self.ways:
            raise SpecError(
                f"impossible TLB geometry: {self.entries} entries are not "
                f"divisible into {self.ways} ways"
            )

    def to_tlb_config(self) -> TLBConfig:
        return TLBConfig(
            name=f"DTLB-{self.entries}",
            entries=self.entries,
            ways=self.ways,
            page_bytes=self.page_bytes,
        )


# ----------------------------------------------------------------------
# Processor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessorSpec(Spec):
    """The trace-driven core, declaratively (Section 4.1 defaults).

    ``to_core_config()`` converts to the runtime
    :class:`~repro.uarch.core.CoreConfig`; a default spec converts to a
    config identical to ``CoreConfig()``.
    """

    _NESTED: ClassVar[Mapping[str, type]] = {
        "dl0": CacheGeometrySpec,
        "dtlb": TLBGeometrySpec,
    }

    alloc_width: int = 4
    issue_width: int = 6
    retire_width: int = 4
    rob_entries: int = 96
    redirect_penalty: int = 6
    int_regs: int = 128
    fp_regs: int = 32
    scheduler_entries: int = 32
    regfile_write_ports: int = 4
    n_adders: int = 4
    adder_policy: str = "uniform"
    mob_entries: int = 64
    dl0: CacheGeometrySpec = field(default_factory=CacheGeometrySpec)
    dtlb: TLBGeometrySpec = field(default_factory=TLBGeometrySpec)
    dl0_miss_penalty: int = 6
    dtlb_miss_penalty: int = 20
    seed: int = 0
    #: Kernel backend simulating the cache-like structures; validated
    #: against :func:`repro.uarch.backends.backend_names`.
    backend: str = "reference"

    def __post_init__(self) -> None:
        _require_int(
            "processor spec", 1,
            alloc_width=self.alloc_width,
            issue_width=self.issue_width,
            retire_width=self.retire_width,
            rob_entries=self.rob_entries,
            int_regs=self.int_regs,
            fp_regs=self.fp_regs,
            scheduler_entries=self.scheduler_entries,
            regfile_write_ports=self.regfile_write_ports,
            n_adders=self.n_adders,
            mob_entries=self.mob_entries,
        )
        _require_int(
            "processor spec", 0,
            redirect_penalty=self.redirect_penalty,
            dl0_miss_penalty=self.dl0_miss_penalty,
            dtlb_miss_penalty=self.dtlb_miss_penalty,
        )
        choices = [p.value for p in AdderPolicy]
        if self.adder_policy not in choices:
            raise SpecError(
                f"unknown adder_policy {self.adder_policy!r}; choose from "
                f"{', '.join(choices)}"
            )
        from repro.uarch.backends import backend_names

        if self.backend not in backend_names():
            raise SpecError(
                f"unknown kernel backend {self.backend!r}; choose from "
                f"{', '.join(backend_names())}"
            )

    def to_core_config(self) -> "CoreConfig":
        from repro.uarch.core import CoreConfig

        return CoreConfig(
            alloc_width=self.alloc_width,
            issue_width=self.issue_width,
            retire_width=self.retire_width,
            rob_entries=self.rob_entries,
            redirect_penalty=self.redirect_penalty,
            int_regs=self.int_regs,
            fp_regs=self.fp_regs,
            scheduler_entries=self.scheduler_entries,
            regfile_write_ports=self.regfile_write_ports,
            n_adders=self.n_adders,
            adder_policy=AdderPolicy(self.adder_policy),
            mob_entries=self.mob_entries,
            dl0=self.dl0.to_cache_config(),
            dtlb=self.dtlb.to_tlb_config(),
            dl0_miss_penalty=self.dl0_miss_penalty,
            dtlb_miss_penalty=self.dtlb_miss_penalty,
            seed=self.seed,
            backend=self.backend,
        )


# ----------------------------------------------------------------------
# Protection mechanisms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MechanismSpec(Spec):
    """One protection mechanism chosen by registry name, with params.

    Which names are valid depends on the structure the mechanism guards;
    :class:`ProtectionSpec` validates each slot against the matching
    registry in :mod:`repro.config.registry`.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(
                f"mechanism name must be a non-empty string, "
                f"got {self.name!r}"
            )
        if not isinstance(self.params, Mapping):
            raise SpecError(
                f"mechanism {self.name!r}: params must be a mapping, "
                f"got {_type_name(self.params)}"
            )
        _set(self, "params", _freeze_value(dict(self.params)))


def _default_mechanism(
    name: str, **params: Any
) -> Callable[[], "MechanismSpec"]:
    return lambda: MechanismSpec(name, params)


@dataclass(frozen=True)
class ProtectionSpec(Spec):
    """Per-structure NBTI mechanisms, chosen by name (Sections 3-4).

    Defaults are the full Penelope configuration: idle-input injection on
    the adder, ISV on both register files, the profiling-derived field
    policy on the scheduler, and LineFixed50% inversion on DL0 and DTLB.
    Set a slot to ``{"name": "none"}`` to leave that structure
    unprotected.
    """

    _NESTED: ClassVar[Mapping[str, type]] = {
        "adder": MechanismSpec,
        "int_rf": MechanismSpec,
        "fp_rf": MechanismSpec,
        "scheduler": MechanismSpec,
        "dl0": MechanismSpec,
        "dtlb": MechanismSpec,
    }

    adder: MechanismSpec = field(
        default_factory=_default_mechanism("idle_injection", pair=(1, 8)))
    int_rf: MechanismSpec = field(default_factory=_default_mechanism("isv"))
    fp_rf: MechanismSpec = field(default_factory=_default_mechanism("isv"))
    scheduler: MechanismSpec = field(
        default_factory=_default_mechanism("derived_policy"))
    dl0: MechanismSpec = field(
        default_factory=_default_mechanism("line_fixed", ratio=0.5))
    dtlb: MechanismSpec = field(
        default_factory=_default_mechanism("line_fixed", ratio=0.5))
    sample_period: float = 512.0

    def __post_init__(self) -> None:
        from repro.config.registry import registry_for_structure

        _require_positive("protection spec",
                          sample_period=self.sample_period)
        for structure in ("adder", "int_rf", "fp_rf", "scheduler",
                          "dl0", "dtlb"):
            mechanism = getattr(self, structure)
            registry_for_structure(structure).validate(
                mechanism.name, mechanism.params,
                where=f"protection.{structure}",
            )


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """Which Table 1 suites to synthesise, and how much of them.

    ``interleave`` turns the suites into a *multiprogram* scenario: the
    per-suite streams merge slice by slice (see
    :mod:`repro.workloads.multiprog`) instead of running one after
    another.  ``"none"`` (the default) keeps the single-program
    behaviour; ``slice_length`` is the references-per-program slice used
    by the interleaving policies.
    """

    suites: Tuple[str, ...] = ("specint2000",)
    length: int = 5000
    traces_per_suite: int = 1
    seed: int = 0
    interleave: str = "none"
    slice_length: int = 64

    def __post_init__(self) -> None:
        from repro.workloads.multiprog import INTERLEAVE_POLICIES

        _set(self, "suites", _freeze_value(self.suites))
        if not self.suites:
            raise SpecError("workload spec: suites must not be empty")
        known = suite_names()
        bad = [s for s in self.suites if s not in known]
        if bad:
            raise SpecError(
                f"unknown suite(s) {', '.join(map(repr, bad))}; "
                f"available: {', '.join(known)}"
            )
        _require_int("workload spec", 1, length=self.length,
                     traces_per_suite=self.traces_per_suite,
                     slice_length=self.slice_length)
        choices = ("none",) + tuple(INTERLEAVE_POLICIES)
        if self.interleave not in choices:
            raise SpecError(
                f"unknown interleave policy {self.interleave!r}; "
                f"choose from {', '.join(choices)}"
            )


# ----------------------------------------------------------------------
# Study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StudySpec(Spec):
    """A registered study expressed over the spec surface.

    ``sweep`` axes are *spec field paths* (``"protection.dl0.params.
    ratio"``, ``"processor.dl0.size_kb"``, ...) — the paths each study
    binds via its ``spec_paths`` declaration in
    :mod:`repro.experiments.registry` — or bare study parameter names
    for knobs with no spec home (``"data_bias"``, ``"target"``).
    ``overrides`` sets such bare parameters without sweeping them.

    :func:`repro.api.run_study` expands this into the experiment
    engine's :class:`~repro.experiments.spec.SweepSpec`, so spec-driven
    and legacy flat-parameter sweeps produce identical points (and share
    the result cache).
    """

    _NESTED: ClassVar[Mapping[str, type]] = {
        "processor": ProcessorSpec,
        "protection": ProtectionSpec,
        "workload": WorkloadSpec,
    }

    study: str
    processor: ProcessorSpec = field(default_factory=ProcessorSpec)
    protection: ProtectionSpec = field(default_factory=ProtectionSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    sweep: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    overrides: Mapping[str, Any] = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.study, str) or not self.study:
            raise SpecError(
                f"study name must be a non-empty string, got {self.study!r}"
            )
        if not isinstance(self.sweep, Mapping):
            raise SpecError(
                f"sweep must be a mapping of field path -> values, "
                f"got {_type_name(self.sweep)}"
            )
        frozen: Dict[str, Tuple[Any, ...]] = {}
        for axis, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(
                    f"sweep axis {axis!r} must be a non-empty sequence "
                    f"of values, got {values!r}"
                )
            frozen[str(axis)] = _freeze_value(values)
        _set(self, "sweep", frozen)
        if not isinstance(self.overrides, Mapping):
            raise SpecError(
                f"overrides must be a mapping of study parameter -> "
                f"value, got {_type_name(self.overrides)}"
            )
        _set(self, "overrides", _freeze_value(dict(self.overrides)))
        _require_int("study spec", 1, workers=self.workers)


# ----------------------------------------------------------------------
# Spec field paths
# ----------------------------------------------------------------------
def resolve_path(spec: Any, path: str) -> Any:
    """Read a dotted field path; :data:`MISSING` when it does not exist.

    Attribute segments traverse dataclass fields; mapping segments (the
    ``params`` dicts) traverse keys.
    """
    current = spec
    for segment in path.split("."):
        if isinstance(current, Mapping):
            if segment not in current:
                return MISSING
            current = current[segment]
        elif dataclasses.is_dataclass(current) and hasattr(current, segment):
            current = getattr(current, segment)
        else:
            return MISSING
    return current


def _leaf_values(value: Any, prefix: str, out: Dict[str, Any]) -> None:
    if isinstance(value, Spec):
        for f in dataclasses.fields(value):
            _leaf_values(getattr(value, f.name), f"{prefix}{f.name}.",
                         out)
    elif isinstance(value, Mapping):
        for key, entry in value.items():
            _leaf_values(entry, f"{prefix}{key}.", out)
    else:
        out[prefix[:-1]] = value


def spec_differences(lhs: Any, rhs: Any) -> List[str]:
    """Dotted leaf paths where two specs of the same shape differ.

    A path present on one side only (e.g. a mechanism parameter the
    other side's scheme does not carry) counts as a difference.
    """
    left: Dict[str, Any] = {}
    right: Dict[str, Any] = {}
    _leaf_values(lhs, "", left)
    _leaf_values(rhs, "", right)
    return sorted(
        path for path in set(left) | set(right)
        if left.get(path, MISSING) != right.get(path, MISSING)
    )


def with_path(spec: Spec, path: str, value: Any) -> Any:
    """Return a copy of ``spec`` with one dotted field path replaced.

    Validation re-runs on every touched spec level, so an update that
    produces an impossible configuration raises :class:`SpecError`.
    """
    head, _, rest = path.partition(".")
    if isinstance(spec, Mapping):
        updated = dict(spec)
        if rest:
            if head not in updated:
                raise SpecError(
                    f"cannot set {path!r}: no entry {head!r} "
                    f"(available: {', '.join(sorted(map(str, updated)))})"
                )
            updated[head] = with_path(updated[head], rest, value)
        else:
            updated[head] = _freeze_value(value)
        return updated
    if not dataclasses.is_dataclass(spec) or not hasattr(spec, head):
        valid = ([f.name for f in dataclasses.fields(spec)]
                 if dataclasses.is_dataclass(spec) else [])
        raise SpecError(
            f"cannot set {path!r}: {type(spec).__name__} has no field "
            f"{head!r}" + (f"; valid fields: {', '.join(valid)}"
                           if valid else "")
        )
    if rest:
        replacement = with_path(getattr(spec, head), rest, value)
    else:
        replacement = _freeze_value(value)
    return dataclasses.replace(spec, **{head: replacement})


__all__ = [
    "MISSING",
    "CacheGeometrySpec",
    "MechanismSpec",
    "ProcessorSpec",
    "ProtectionSpec",
    "Spec",
    "SpecError",
    "StudySpec",
    "TLBGeometrySpec",
    "WorkloadSpec",
    "resolve_path",
    "spec_differences",
    "with_path",
]
