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

Generated traces and address streams are memoised per worker process
(:func:`cached_trace` / :func:`cached_address_stream`), so points that
share a workload axis only pay generation once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.cache_like import AnyPositionLineFixedScheme
from repro.obs.trace import TRACER as _TRACER
from repro.workloads import suite_names

# ----------------------------------------------------------------------
# Per-worker workload caches
# ----------------------------------------------------------------------
_CACHE_CAP = 32

_TRACE_CACHE: Dict[Tuple[str, int, int], Any] = {}
_STREAM_CACHE: Dict[Tuple[str, int, int], Any] = {}
_RF_BIAS_CACHE: Dict[Tuple[str, int, int, float], Tuple[float, float, float]] = {}


def _evict(cache: Dict) -> None:
    while len(cache) > _CACHE_CAP:
        cache.pop(next(iter(cache)))


def cached_trace(suite: str, length: int, seed: int):
    """One generated trace per (suite, length, seed) per worker."""
    from repro.workloads import TraceGenerator

    key = (suite, length, seed)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = TraceGenerator(seed=seed).generate(
            suite, length=length
        )
        _evict(_TRACE_CACHE)
    return _TRACE_CACHE[key]


def cached_address_stream(suite: str, length: int, seed: int):
    """One generated address stream per (suite, length, seed) per worker."""
    from repro.workloads import generate_address_stream

    key = (suite, length, seed)
    if key not in _STREAM_CACHE:
        _STREAM_CACHE[key] = generate_address_stream(
            suite, length=length, seed=seed
        )
        _evict(_STREAM_CACHE)
    return _STREAM_CACHE[key]


def cached_rf_biases(
    suite: str, length: int, seed: int, sample_period: float,
    backend: str = "reference",
) -> Tuple[float, float, float]:
    """(baseline bias, ISV bias, free fraction) of the INT register file.

    Memoised because several studies (``regfile``, ``vmin_power``) sweep
    knobs that do not change the core runs themselves.
    """
    from repro.core.memory_like import ISVRegisterFileProtector
    from repro.uarch import TraceDrivenCore
    from repro.uarch.core import CoreConfig
    from repro.uarch.uop import INT_WIDTH

    key = (suite, length, seed, sample_period, backend)
    if key not in _RF_BIAS_CACHE:
        trace = cached_trace(suite, length, seed)
        config = CoreConfig(backend=backend)
        base = TraceDrivenCore(config).run(trace)
        protector = ISVRegisterFileProtector("int_rf", INT_WIDTH,
                                             sample_period)
        prot = TraceDrivenCore(config, hooks=protector).run(trace)
        _RF_BIAS_CACHE[key] = (
            base.int_rf.worst_bias,
            prot.int_rf.worst_bias,
            base.int_rf.free_fraction,
        )
        _evict(_RF_BIAS_CACHE)
    return _RF_BIAS_CACHE[key]


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
    """

    name: str
    description: str
    defaults: Mapping[str, Any]
    run: Callable[[Mapping[str, Any]], Dict[str, Any]]
    spec_paths: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        if self.spec_paths is None:
            object.__setattr__(self, "spec_paths", {})

    def bind(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        bound = dict(self.defaults)
        bound.update(params)
        return bound

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


def register_study(
    name: str,
    description: str,
    defaults: Mapping[str, Any],
    spec_paths: Mapping[str, str] = (),
) -> Callable:
    def wrap(func: Callable) -> Callable:
        _STUDIES[name] = StudyDefinition(
            name=name, description=description,
            defaults=dict(defaults), run=func,
            spec_paths=dict(spec_paths),
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
)
def run_caches_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.core.cache_like import run_cache_study

    created: List[Any] = []
    stream = cached_address_stream(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    study = run_cache_study(
        _cache_config(params),
        _scheme_factory(params, created),
        [stream],
        seed=int(params["seed"]) + _suite_index(params["suite"]),
        backend=str(params.get("backend", "reference")),
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
)
def run_victim_policy_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Both victim policies against one baseline replay of the stream;
    each loss is what ``run_cache_study`` returns for that one stream."""
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
    engine = get_backend(str(params.get("backend", "reference")))
    baseline = engine.make_cache(config)
    baseline.replay(stream)

    def loss(scheme) -> float:
        protected = ProtectedCache(engine.make_cache(config), scheme,
                                   seed=seed)
        protected.replay(stream)
        return performance_loss(baseline.stats.miss_rate,
                                protected.stats.miss_rate,
                                DL0_ACCESSES_PER_UOP, DL0_EFFECTIVE_PENALTY)

    return {
        "lru_loss": loss(LineFixedScheme(ratio)),
        "naive_loss": loss(AnyPositionLineFixedScheme(ratio)),
        "mru_hit_fraction": baseline.stats.mru_hit_fraction(0),
        "mru1_hit_fraction": baseline.stats.mru_hit_fraction(1),
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
)
def run_regfile_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    base_bias, isv_bias, free_fraction = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]),
        backend=str(params.get("backend", "reference")),
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
)
def run_vmin_power_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.nbti.power import ArrayPowerModel

    base_bias, isv_bias, __ = cached_rf_biases(
        params["suite"], int(params["length"]), int(params["seed"]),
        float(params["sample_period"]),
        backend=str(params.get("backend", "reference")),
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
)
def run_multiprog_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    """N programs time-sharing one protected cache, fully streamed.

    Unlike the single-program studies, nothing is materialised: the
    per-suite lazy address streams interleave straight into
    ``Cache.replay``, so the point runs in bounded memory at any length.
    Each replay pass rebuilds the stream from its seeds (generators are
    single-use), which is cheaper than holding N*length references.
    """
    from repro.core.cache_like import (
        DL0_ACCESSES_PER_UOP,
        DL0_EFFECTIVE_PENALTY,
        ProtectedCache,
        performance_loss,
    )
    from repro.uarch.backends import get_backend
    from repro.workloads.multiprog import multiprog_address_stream

    raw_suites = params["suites"]
    suites = ((raw_suites,) if isinstance(raw_suites, str)
              else tuple(raw_suites))
    policy = str(params["policy"])
    if policy == "none":
        # WorkloadSpec's default: a spec that never set `interleave`
        # still gets a usable scenario (same fallback as
        # api.build_multiprog_stream).
        policy = "round_robin"
    stream_kwargs = dict(
        length=int(params["length"]),
        seed=int(params["seed"]),
        policy=policy,
        slice_length=int(params["slice_length"]),
    )
    config = _cache_config(params)
    engine = get_backend(str(params.get("backend", "reference")))

    baseline = engine.make_cache(config)
    baseline.replay(multiprog_address_stream(suites, **stream_kwargs))
    base_rate = baseline.stats.miss_rate

    created: List[Any] = []
    factory = _scheme_factory(params, created)
    protected = ProtectedCache(engine.make_cache(config), factory(),
                               seed=int(params["seed"]))
    protected.replay(multiprog_address_stream(suites, **stream_kwargs))
    scheme_rate = protected.stats.miss_rate

    metrics: Dict[str, Any] = {
        "scheme_name": created[-1].name,
        "n_programs": len(suites),
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
)
def run_penelope_point(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.config.specs import MechanismSpec, ProtectionSpec
    from repro.core import PenelopeProcessor
    from repro.uarch.core import CoreConfig

    inversion = MechanismSpec("line_fixed",
                              {"ratio": float(params["invert_ratio"])})
    # Built before the trace, so a bad parameter fails before synthesis.
    processor = PenelopeProcessor(
        config=CoreConfig(backend=str(params.get("backend", "reference"))),
        protection=ProtectionSpec(
            dl0=inversion, dtlb=inversion,
            sample_period=float(params["sample_period"])),
        seed=int(params["seed"]),
    )
    trace = cached_trace(
        params["suite"], int(params["length"]), int(params["seed"])
    )
    report = processor.evaluate([trace])
    return {
        "efficiency": report.efficiency,
        "baseline_efficiency": report.baseline_efficiency,
        "combined_cpi": report.combined_cpi,
        "adder_guardband": report.adder_guardband,
        "int_rf_base_bias": report.int_rf_bias[0],
        "int_rf_isv_bias": report.int_rf_bias[1],
    }
