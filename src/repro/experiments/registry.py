"""Named study factories: map an experiment point to measurements.

Each study is a module-level function (picklable, so sweeps can fan out
over worker processes) that takes the point's parameter dict and
returns a flat dict of JSON-serialisable measurements: the very dict
the result store keeps, worker processes reply with and
:mod:`repro.experiments.summary` types on read, so a point has one
value whichever executor or cache produced it.  Studies wrap the repo's
existing entry points — :class:`~repro.uarch.core.TraceDrivenCore`,
:func:`~repro.core.cache_like.run_cache_study`, and
:class:`~repro.core.penelope.PenelopeProcessor` — they add no modelling
of their own.  Their keys and values match the earliest flat dicts
key-for-key and value-for-value (differential-tested in
``tests/test_metrics_differential.py``), so stored rows and point
hashes stay valid.

Work a point shares with the points that differ from it only in
protection is a *stage*, kept per process in one memo
(:class:`StageMemo`, DESIGN.md "Stages"): the generated traces and
address streams (:func:`cached_trace`, :func:`cached_address_stream`),
the plain replay the cache studies score against, the unprotected and
ISV passes of ``regfile`` and ``vmin_power`` (:func:`cached_rf_biases`)
and the baseline half of a ``penelope`` point.  Each study declares at
registration the parameters its stage reads (``register_study(stage=
...)``); :func:`staged` keys a stage by them and hands its compute
function those parameters only, and the sweep runner batches points by
the same declaration, so the points that share a stage run on one
worker.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.cache_like import AnyPositionLineFixedScheme
from repro.experiments.spec import _freeze
from repro.obs.trace import TRACER as _TRACER
from repro.workloads import suite_names

# ----------------------------------------------------------------------
# Stages: per-process memo of protection-independent work
# ----------------------------------------------------------------------
#: Values each kind of stage keeps; the least recently used goes first.
_CACHE_CAP = 32


class StageMemo:
    """Stage values keyed by every input they depend on.

    A key is a tuple whose first item names the stage's kind (its
    compute function); each kind keeps its :data:`_CACHE_CAP` most
    recently used values.  A value is computed outside the lock, so two
    threads that miss one key both compute it and the later store wins:
    a value is a pure function of its key, so either copy is right.
    Nothing mutates a value once stored.
    """

    def __init__(self) -> None:
        self._kinds: Dict[Any, OrderedDict] = {}
        self._lock = threading.Lock()

    def get(self, key: Tuple[Any, ...], compute: Callable[[], Any]) -> Any:
        """The value at ``key``, from ``compute()`` on a miss."""
        with self._lock:
            values = self._kinds.get(key[0])
            if values is not None and key in values:
                values.move_to_end(key)
                return values[key]
        value = compute()
        with self._lock:
            values = self._kinds.setdefault(key[0], OrderedDict())
            values[key] = value
            values.move_to_end(key)
            while len(values) > _CACHE_CAP:
                values.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every stage of every kind."""
        with self._lock:
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(values) for values in self._kinds.values())


_STAGES = StageMemo()

# A sweep worker forked while another thread (a second service job)
# holds the lock would inherit it held, with no thread left to release
# it, and hang on its first lookup.  A fork waits for the lock instead,
# so the child inherits it free and every stage whole.
if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(before=_STAGES._lock.acquire,
                        after_in_parent=_STAGES._lock.release,
                        after_in_child=_STAGES._lock.release)

#: The three memos this one replaced, kept as names of it: clearing any
#: of them (as perfbench does before every point) drops every stage.
_TRACE_CACHE = _STREAM_CACHE = _RF_BIAS_CACHE = _STAGES


def staged(study: str, params: Mapping[str, Any],
           compute: Callable[..., Any], *extra: Any) -> Any:
    """``compute(inputs, *extra)``, memoised in the stage memo.

    ``inputs`` holds only the parameters ``study`` declares as its stage
    (``register_study(stage=...)``), and those values plus ``extra``
    are the key: a stage cannot read an input its key lacks.
    """
    definition = get_study(study)
    inputs = {name: params[name] for name in definition.stage}
    key = (compute.__name__, definition.stage_key(params)) + extra
    return _STAGES.get(key, lambda: compute(inputs, *extra))


def _trace(suite: str, length: int, seed: int):
    from repro.workloads import TraceGenerator

    return TraceGenerator(seed=seed).generate(suite, length=length)


def _address_stream(suite: str, length: int, seed: int):
    from repro.workloads import generate_address_stream

    return generate_address_stream(suite, length=length, seed=seed)


def cached_trace(suite: str, length: int, seed: int):
    """One generated trace per (suite, length, seed) per process."""
    return _STAGES.get(("_trace", suite, length, seed),
                       lambda: _trace(suite, length, seed))


def cached_address_stream(suite: str, length: int, seed: int):
    """One generated address stream per (suite, length, seed) per process."""
    return _STAGES.get(("_address_stream", suite, length, seed),
                       lambda: _address_stream(suite, length, seed))


def _rf_unprotected(stage: Mapping[str, Any]) -> Tuple[float, float]:
    """Stage: the unprotected pass of the INT register file, as (worst
    bias, free fraction)."""
    from repro.uarch import TraceDrivenCore
    from repro.uarch.core import CoreConfig

    trace = cached_trace(stage["suite"], int(stage["length"]),
                         int(stage["seed"]))
    result = TraceDrivenCore(CoreConfig(backend=stage["backend"])).run(trace)
    return result.int_rf.worst_bias, result.int_rf.free_fraction


def _rf_isv(stage: Mapping[str, Any], sample_period: float) -> float:
    """Stage: the INT register file's worst bias under ISV."""
    from repro.core.memory_like import ISVRegisterFileProtector
    from repro.uarch import TraceDrivenCore
    from repro.uarch.core import CoreConfig
    from repro.uarch.uop import INT_WIDTH

    trace = cached_trace(stage["suite"], int(stage["length"]),
                         int(stage["seed"]))
    protector = ISVRegisterFileProtector("int_rf", INT_WIDTH, sample_period)
    return TraceDrivenCore(CoreConfig(backend=stage["backend"]),
                           hooks=protector).run(trace).int_rf.worst_bias


def cached_rf_biases(
    suite: str, length: int, seed: int, sample_period: float,
    backend: str = "reference",
) -> Tuple[float, float, float]:
    """(baseline bias, ISV bias, free fraction) of the INT register file.

    Two stages: the unprotected pass, which every ``sample_period``
    shares, and the ISV pass, keyed by ``sample_period`` too.
    """
    params = {"suite": suite, "length": length, "seed": seed,
              "backend": backend}
    base_bias, free_fraction = staged("regfile", params, _rf_unprotected)
    isv_bias = staged("regfile", params, _rf_isv, float(sample_period))
    return base_bias, isv_bias, free_fraction


def _suite_index(suite: str) -> int:
    names = suite_names()
    return names.index(suite) if suite in names else 0


# ----------------------------------------------------------------------
# Study registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StudyDefinition:
    """A named, parameterised experiment.

    ``spec_paths`` binds each flat study parameter to the dotted spec
    field path that feeds it (``"ratio" -> "protection.dl0.params.
    ratio"``), so the study can be driven from a declarative
    :class:`~repro.config.specs.StudySpec` via
    :func:`repro.api.run_study`.  Parameters absent from the binding
    (e.g. ``data_bias``) have no spec home and are set through
    ``StudySpec.overrides``.

    ``stage`` names the parameters the study's stage reads (see
    :func:`staged`): points that agree on them share it.
    """

    name: str
    description: str
    defaults: Mapping[str, Any]
    run: Callable[[Mapping[str, Any]], Dict[str, Any]]
    spec_paths: Optional[Mapping[str, str]] = None
    stage: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.spec_paths is None:
            object.__setattr__(self, "spec_paths", {})
        unknown = set(self.stage) - set(self.defaults)
        if unknown:
            raise ValueError(f"study {self.name!r}: stage parameter(s) "
                             f"{sorted(unknown)} are not parameters")

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        bound = dict(self.defaults)
        bound.update(params)
        return bound

    def stage_key(self, params: Mapping[str, Any]) -> Tuple[Any, ...]:
        """The values of the stage parameters in bound ``params``."""
        return tuple(_freeze(params[name]) for name in self.stage)

    def execute(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The study's flat metric dict at ``params`` over its defaults."""
        with _TRACER.span(f"study.{self.name}"):
            return self.run(self.bind(params))


_STUDIES: Dict[str, StudyDefinition] = {}

#: Spec field paths shared by every workload-driven study.
_WORKLOAD_PATHS = {
    "suite": "workload.suites",
    "length": "workload.length",
    "seed": "workload.seed",
}

#: ... plus the DL0 geometry axes of the cache studies.
_CACHE_GEOMETRY_PATHS = {
    **_WORKLOAD_PATHS,
    "size_kb": "processor.dl0.size_kb",
    "ways": "processor.dl0.ways",
}

#: Stage parameters: what a core pass over a suite's trace reads ...
_CORE_STAGE = ("suite", "length", "seed", "backend")
#: ... and what a plain replay of a suite's address stream through the
#: DL0 reads.
_CACHE_STAGE = ("suite", "length", "seed", "size_kb", "ways", "backend")


def register_study(
    name: str,
    description: str,
    defaults: Mapping[str, Any],
    spec_paths: Mapping[str, str] = (),
    stage: Tuple[str, ...] = (),
) -> Callable:
    def wrap(func: Callable) -> Callable:
        _STUDIES[name] = StudyDefinition(
            name=name, description=description,
            defaults=dict(defaults), run=func,
            spec_paths=dict(spec_paths), stage=tuple(stage),
        )
        return func
    return wrap


def get_study(name: str) -> StudyDefinition:
    try:
        return _STUDIES[name]
    except KeyError:
        raise KeyError(
            f"unknown study {name!r}; available: "
            f"{', '.join(study_names())}"
        ) from None


def study_names() -> List[str]:
    return sorted(_STUDIES)


# ----------------------------------------------------------------------
# Cache-like studies
# ----------------------------------------------------------------------
def _cache_config(params: Mapping[str, Any]):
    from repro.uarch.backends import CacheConfig

    size_kb = int(params["size_kb"])
    ways = int(params["ways"])
    return CacheConfig(
        name=f"DL0-{size_kb}K-{ways}w",
        size_bytes=size_kb * 1024,
        ways=ways,
    )


def _scheme_factory(params: Mapping[str, Any], created: List[Any]):
    """Zero-arg factory for the requested scheme; records instances.

    Scheme names resolve through the component registry
    (:data:`repro.config.registry.CACHE_SCHEMES`), so any newly
    registered scheme is sweepable by name with no change here.
    """
    from repro.config.registry import CACHE_SCHEMES
    from repro.config.specs import SpecError

    scheme = params["scheme"]
    scheme_params: Dict[str, Any] = {"ratio": float(params["ratio"])}
    if scheme == "line_dynamic":
        scheme_params.update(
            threshold=float(params["dyn_threshold"]),
            warmup=int(params["dyn_warmup"]),
            test_window=int(params["dyn_test_window"]),
            period=int(params["dyn_period"]),
        )
    if scheme == "none":
        raise ValueError(
            "scheme 'none' builds no mechanism; use a baseline run "
            "instead of sweeping it"
        )
    try:
        CACHE_SCHEMES.validate(scheme, scheme_params)
    except SpecError as exc:
        # The sweep layer reports ValueError messages as `error: ...`.
        raise ValueError(str(exc)) from None

    def factory():
        instance = CACHE_SCHEMES.build(scheme, scheme_params)
        created.append(instance)
        return instance

    return factory


def _cache_baseline(stage: Mapping[str, Any]):
    """Stage of the single-stream cache studies: the plain replay of the
    point's address stream through its DL0."""
    from repro.core.cache_like import replay_baseline

    stream = cached_address_stream(
        stage["suite"], int(stage["length"]), int(stage["seed"])
    )
    return replay_baseline(_cache_config(stage), stream,
                           str(stage["backend"]))


@register_study(
    "caches",
    "invalidate-and-invert scheme on one DL0 config and suite (Table 3)",
    defaults={
        "suite": "specint2000",
        "length": 6000,
        "seed": 0,
        "size_kb": 16,
        "ways": 8,
        "scheme": "line_fixed",
        "ratio": 0.5,
        "dyn_threshold": 0.02,
        "dyn_warmup": 1000,
        "dyn_test_window": 1000,
        "dyn_period": 6000,
        "backend": "reference",
    },
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "scheme": "protection.dl0.name",
        "ratio": "protection.dl0.params.ratio",
        "dyn_threshold": "protection.dl0.params.threshold",
        "dyn_warmup": "protection.dl0.params.warmup",
        "dyn_test_window": "protection.dl0.params.test_window",
        "dyn_period": "protection.dl0.params.period",
        "backend": "processor.backend",
    },
    stage=_CACHE_STAGE,
)
def run_caches_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.cache_like import run_cache_study

    created: List[Any] = []
    factory = _scheme_factory(params, created)
    stream = cached_address_stream(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    study = run_cache_study(
        _cache_config(params),
        factory,
        [stream],
        seed=int(params["seed"]) + _suite_index(params["suite"]),
        backend=str(params["backend"]),
        baselines=[staged("caches", params, _cache_baseline)],
    )
    metrics: Dict[str, Any] = {
        "scheme_name": study.scheme_name,
        "mean_loss": study.mean_loss,
        "inverted_ratio": study.mean_inverted_ratio,
        "baseline_miss_rate": study.baseline_miss_rate,
        "scheme_miss_rate": study.scheme_miss_rate,
    }
    if created and hasattr(created[-1], "activation_history"):
        metrics["activations"] = "".join(
            "A" if d else "-" for d in created[-1].activation_history
        )
    return metrics


@register_study(
    "invert_ratio",
    "LineFixed invert-ratio sweep: capacity loss vs achieved balance",
    defaults={
        "suite": "specint2000",
        "length": 10_000,
        "seed": 55,
        "size_kb": 16,
        "ways": 8,
        "ratio": 0.5,
        "data_bias": 0.9,
        "backend": "reference",
    },
    # data_bias is an analysis-only knob with no spec home: set it via
    # StudySpec.overrides (or sweep it by bare name).
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "ratio": "protection.dl0.params.ratio",
        "backend": "processor.backend",
    },
    stage=_CACHE_STAGE,
)
def run_invert_ratio_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    metrics = run_caches_point({**params, "scheme": "line_fixed"})
    # Steady-state worst-cell bias when a fraction `inverted_ratio` of
    # cells holds inverted (complementary) contents of `data_bias`-biased
    # data.
    data_bias = float(params["data_bias"])
    achieved = metrics["inverted_ratio"]
    metrics["expected_bias"] = (data_bias * (1.0 - achieved)
                                + (1.0 - data_bias) * achieved)
    return metrics


@register_study(
    "victim_policy",
    "LRU-position vs any-position inversion victims (Section 3.2.1)",
    defaults={
        "suite": "specint2000",
        "length": 10_000,
        "seed": 99,
        "size_kb": 16,
        "ways": 8,
        "ratio": 0.5,
        "backend": "reference",
    },
    spec_paths={
        **_CACHE_GEOMETRY_PATHS,
        "ratio": "protection.dl0.params.ratio",
        "backend": "processor.backend",
    },
    stage=_CACHE_STAGE,
)
def run_victim_policy_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Both victim policies against one baseline replay of the stream
    (the stage); each loss is what ``run_cache_study`` returns for that
    one stream."""
    from repro.core.cache_like import (
        DL0_ACCESSES_PER_UOP,
        DL0_EFFECTIVE_PENALTY,
        LineFixedScheme,
        ProtectedCache,
        performance_loss,
    )
    from repro.uarch.backends import get_backend

    config = _cache_config(params)
    stream = cached_address_stream(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    seed = int(params["seed"]) + _suite_index(params["suite"])
    ratio = float(params["ratio"])
    engine = get_backend(str(params["backend"]))
    baseline = staged("victim_policy", params, _cache_baseline)

    def loss(scheme) -> float:
        protected = ProtectedCache(engine.make_cache(config), scheme,
                                   seed=seed)
        protected.replay(stream)
        return performance_loss(baseline.miss_rate,
                                protected.stats.miss_rate,
                                DL0_ACCESSES_PER_UOP, DL0_EFFECTIVE_PENALTY)

    return {
        "lru_loss": loss(LineFixedScheme(ratio)),
        "naive_loss": loss(AnyPositionLineFixedScheme(ratio)),
        "mru_hit_fraction": baseline.mru_hit_fraction(0),
        "mru1_hit_fraction": baseline.mru_hit_fraction(1),
    }


# ----------------------------------------------------------------------
# Memory-like studies
# ----------------------------------------------------------------------
@register_study(
    "regfile",
    "register-file ISV study: worst bit-cell bias with/without ISV",
    defaults={
        "suite": "specint2000",
        "length": 5000,
        "seed": 0,
        "sample_period": 512.0,
        "backend": "reference",
    },
    spec_paths={
        **_WORKLOAD_PATHS,
        "sample_period": "protection.sample_period",
        "backend": "processor.backend",
    },
    stage=_CORE_STAGE,
)
def run_regfile_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    base_bias, isv_bias, free_fraction = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]), backend=str(params["backend"]),
    )
    return {
        "base_worst_bias": base_bias,
        "isv_worst_bias": isv_bias,
        "free_fraction": free_fraction,
    }


@register_study(
    "vmin_power",
    "Vmin/power benefit of ISV balancing at one voltage target",
    defaults={
        "suite": "specint2000",
        "length": 8000,
        "seed": 88,
        "sample_period": 512.0,
        "target": 0.70,
        "backend": "reference",
    },
    # target (the scaled-voltage operating point) is analysis-only: set
    # it via StudySpec.overrides.
    spec_paths={
        **_WORKLOAD_PATHS,
        "sample_period": "protection.sample_period",
        "backend": "processor.backend",
    },
    stage=_CORE_STAGE,
)
def run_vmin_power_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.nbti.power import ArrayPowerModel

    base_bias, isv_bias, __ = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]), backend=str(params["backend"]),
    )
    model = ArrayPowerModel()
    target = float(params["target"])
    return {
        "base_bias": base_bias,
        "isv_bias": isv_bias,
        "base_vmin": model.vmin(base_bias),
        "isv_vmin": model.vmin(isv_bias),
        "base_power": model.power_at_scaled_voltage(base_bias, target),
        "isv_power": model.power_at_scaled_voltage(isv_bias, target),
        "savings": model.savings_from_balancing(base_bias, isv_bias,
                                                target),
    }


# ----------------------------------------------------------------------
# Multiprogram interference study
# ----------------------------------------------------------------------
def _multiprog_suites(params: Mapping[str, Any]) -> Tuple[str, ...]:
    raw_suites = params["suites"]
    return ((raw_suites,) if isinstance(raw_suites, str)
            else tuple(raw_suites))


def _multiprog_stream(params: Mapping[str, Any]):
    """The point's interleaved address stream, a fresh generator.

    Each replay pass rebuilds the stream from its seeds (generators are
    single-use), which is cheaper than holding N*length references.
    """
    from repro.workloads.multiprog import multiprog_address_stream

    policy = str(params["policy"])
    if policy == "none":
        # WorkloadSpec's default: a spec that never set `interleave`
        # still gets a usable scenario (same fallback as
        # api.build_multiprog_stream).
        policy = "round_robin"
    return multiprog_address_stream(
        _multiprog_suites(params),
        length=int(params["length"]),
        seed=int(params["seed"]),
        policy=policy,
        slice_length=int(params["slice_length"]),
    )


def _multiprog_baseline(stage: Mapping[str, Any]):
    """Stage of ``multiprog``: the plain replay of the interleaved
    stream through the DL0."""
    from repro.core.cache_like import replay_baseline

    return replay_baseline(_cache_config(stage), _multiprog_stream(stage),
                           str(stage["backend"]))


@register_study(
    "multiprog",
    "multiprogram interference: interleaved suite streams through one "
    "protected DL0",
    defaults={
        "suites": ("specint2000", "office"),
        "length": 4000,
        "seed": 0,
        "policy": "round_robin",
        "slice_length": 64,
        "size_kb": 16,
        "ways": 8,
        "scheme": "line_fixed",
        "ratio": 0.5,
        "dyn_threshold": 0.02,
        "dyn_warmup": 1000,
        "dyn_test_window": 1000,
        "dyn_period": 6000,
        "backend": "reference",
    },
    spec_paths={
        "suites": "workload.suites",
        "length": "workload.length",
        "seed": "workload.seed",
        "policy": "workload.interleave",
        "slice_length": "workload.slice_length",
        "size_kb": "processor.dl0.size_kb",
        "ways": "processor.dl0.ways",
        "scheme": "protection.dl0.name",
        "ratio": "protection.dl0.params.ratio",
        "dyn_threshold": "protection.dl0.params.threshold",
        "dyn_warmup": "protection.dl0.params.warmup",
        "dyn_test_window": "protection.dl0.params.test_window",
        "dyn_period": "protection.dl0.params.period",
        "backend": "processor.backend",
    },
    stage=("suites", "length", "seed", "policy", "slice_length",
           "size_kb", "ways", "backend"),
)
def run_multiprog_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """N programs time-sharing one protected cache, fully streamed.

    Unlike the single-program studies, nothing is materialised: the
    per-suite lazy address streams interleave straight into
    ``Cache.replay``, so the point runs in bounded memory at any length.
    """
    from repro.core.cache_like import (
        DL0_ACCESSES_PER_UOP,
        DL0_EFFECTIVE_PENALTY,
        ProtectedCache,
        performance_loss,
    )
    from repro.uarch.backends import get_backend

    config = _cache_config(params)
    engine = get_backend(str(params["backend"]))
    created: List[Any] = []
    factory = _scheme_factory(params, created)
    base_rate = staged("multiprog", params, _multiprog_baseline).miss_rate

    protected = ProtectedCache(engine.make_cache(config), factory(),
                               seed=int(params["seed"]))
    protected.replay(_multiprog_stream(params))
    scheme_rate = protected.stats.miss_rate

    metrics: Dict[str, Any] = {
        "scheme_name": created[-1].name,
        "n_programs": len(_multiprog_suites(params)),
        "baseline_miss_rate": base_rate,
        "scheme_miss_rate": scheme_rate,
        "mean_loss": performance_loss(base_rate, scheme_rate,
                                      DL0_ACCESSES_PER_UOP,
                                      DL0_EFFECTIVE_PENALTY),
        "inverted_ratio": protected.cache.inverted_count() / config.lines,
    }
    if hasattr(created[-1], "activation_history"):
        metrics["activations"] = "".join(
            "A" if d else "-" for d in created[-1].activation_history
        )
    return metrics


# ----------------------------------------------------------------------
# Whole-processor study
# ----------------------------------------------------------------------
def _penelope_baseline(stage: Mapping[str, Any]):
    """Stage of ``penelope``: the baseline half of the evaluation
    (:meth:`~repro.core.penelope.PenelopeProcessor.evaluate_baseline`).

    The study varies no core setting but the backend and keeps the
    default adder and scheduler mechanisms, the only protection the
    baseline half reads; a study that varies them must make them stage
    parameters.
    """
    from repro.core import PenelopeProcessor
    from repro.uarch.core import CoreConfig

    processor = PenelopeProcessor(
        config=CoreConfig(backend=str(stage["backend"])))
    return processor.evaluate_baseline([cached_trace(
        stage["suite"], int(stage["length"]), int(stage["seed"])
    )])


@register_study(
    "penelope",
    "whole-processor Penelope run: NBTIefficiency vs full guardband",
    defaults={
        "suite": "specint2000",
        "length": 5000,
        "seed": 0,
        "invert_ratio": 0.5,
        "sample_period": 512.0,
        "backend": "reference",
    },
    spec_paths={
        **_WORKLOAD_PATHS,
        "invert_ratio": "protection.dl0.params.ratio",
        "sample_period": "protection.sample_period",
        "backend": "processor.backend",
    },
    stage=_CORE_STAGE,
)
def run_penelope_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.config.specs import MechanismSpec, ProtectionSpec
    from repro.core import PenelopeProcessor
    from repro.uarch.core import CoreConfig

    inversion = MechanismSpec("line_fixed",
                              {"ratio": float(params["invert_ratio"])})
    # Built before the trace, so a bad parameter fails before synthesis.
    processor = PenelopeProcessor(
        config=CoreConfig(backend=str(params["backend"])),
        protection=ProtectionSpec(
            dl0=inversion, dtlb=inversion,
            sample_period=float(params["sample_period"])),
        seed=int(params["seed"]),
    )
    trace = cached_trace(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    report = processor.evaluate_protected(
        [trace], staged("penelope", params, _penelope_baseline))
    return {
        "efficiency": report.efficiency,
        "baseline_efficiency": report.baseline_efficiency,
        "combined_cpi": report.combined_cpi,
        "adder_guardband": report.adder_guardband,
        "int_rf_base_bias": report.int_rf_bias[0],
        "int_rf_isv_bias": report.int_rf_bias[1],
    }
