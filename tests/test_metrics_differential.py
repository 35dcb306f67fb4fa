"""Differential bit-identity of study results vs the legacy dicts.

Every registered study's flat metric dict (what the store keeps) has to
equal the earliest study code's dict key-for-key, in insertion order,
and value-for-value, so existing result files and point hashes stay
valid.  Each oracle below replicates that dict assembly verbatim on top
of the same underlying primitives (``victim_policy``'s still runs
``run_cache_study`` once per scheme, each with its own baseline replay).
"""

import pytest

from repro.experiments import get_study, study_names

#: Small per-study workloads so the whole differential sweep stays fast.
PARAMS = {
    "caches": {"length": 400},
    "invert_ratio": {"length": 400},
    "victim_policy": {"length": 400},
    "regfile": {"length": 400},
    "vmin_power": {"length": 400},
    "multiprog": {"length": 400},
    "penelope": {"length": 400},
}


# ----------------------------------------------------------------------
# Legacy oracles (the pre-metrics registry code, assembled as dicts)
# ----------------------------------------------------------------------
def oracle_caches(bound):
    from repro.core.cache_like import run_cache_study
    from repro.experiments.registry import (
        _cache_config,
        _scheme_factory,
        _suite_index,
        cached_address_stream,
    )

    created = []
    stream = cached_address_stream(
        bound["suite"], int(bound["length"]), int(bound["seed"])
    )
    study = run_cache_study(
        _cache_config(bound),
        _scheme_factory(bound, created),
        [stream],
        seed=int(bound["seed"]) + _suite_index(bound["suite"]),
    )
    metrics = {
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


def oracle_invert_ratio(bound):
    metrics = oracle_caches({**bound, "scheme": "line_fixed"})
    achieved = metrics["inverted_ratio"]
    bias = float(bound["data_bias"])
    metrics["expected_bias"] = (
        bias * (1.0 - achieved) + (1.0 - bias) * achieved
    )
    return metrics


def oracle_victim_policy(bound):
    from repro.core.cache_like import LineFixedScheme, run_cache_study
    from repro.experiments.registry import (
        AnyPositionLineFixedScheme,
        _cache_config,
        _suite_index,
        cached_address_stream,
    )
    from repro.uarch.backends import Cache

    config = _cache_config(bound)
    stream = cached_address_stream(
        bound["suite"], int(bound["length"]), int(bound["seed"])
    )
    seed = int(bound["seed"]) + _suite_index(bound["suite"])
    ratio = float(bound["ratio"])
    lru = run_cache_study(config, lambda: LineFixedScheme(ratio),
                          [stream], seed=seed)
    naive = run_cache_study(config,
                            lambda: AnyPositionLineFixedScheme(ratio),
                            [stream], seed=seed)
    baseline = Cache(config)
    baseline.replay(stream)
    return {
        "lru_loss": lru.mean_loss,
        "naive_loss": naive.mean_loss,
        "mru_hit_fraction": baseline.stats.mru_hit_fraction(0),
        "mru1_hit_fraction": baseline.stats.mru_hit_fraction(1),
    }


def oracle_regfile(bound):
    from repro.experiments.registry import cached_rf_biases

    base_bias, isv_bias, free_fraction = cached_rf_biases(
        bound["suite"], int(bound["length"]), int(bound["seed"]),
        float(bound["sample_period"]),
    )
    return {
        "base_worst_bias": base_bias,
        "isv_worst_bias": isv_bias,
        "free_fraction": free_fraction,
    }


def oracle_vmin_power(bound):
    from repro.experiments.registry import cached_rf_biases
    from repro.nbti.power import ArrayPowerModel

    base_bias, isv_bias, __ = cached_rf_biases(
        bound["suite"], int(bound["length"]), int(bound["seed"]),
        float(bound["sample_period"]),
    )
    model = ArrayPowerModel()
    target = float(bound["target"])
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


def oracle_multiprog(bound):
    from repro.core.cache_like import (
        DL0_ACCESSES_PER_UOP,
        DL0_EFFECTIVE_PENALTY,
        ProtectedCache,
        performance_loss,
    )
    from repro.experiments.registry import _cache_config, _scheme_factory
    from repro.uarch.backends import Cache
    from repro.workloads.multiprog import multiprog_address_stream

    raw_suites = bound["suites"]
    suites = ((raw_suites,) if isinstance(raw_suites, str)
              else tuple(raw_suites))
    policy = str(bound["policy"])
    if policy == "none":
        policy = "round_robin"
    stream_kwargs = dict(
        length=int(bound["length"]),
        seed=int(bound["seed"]),
        policy=policy,
        slice_length=int(bound["slice_length"]),
    )
    config = _cache_config(bound)

    baseline = Cache(config)
    baseline.replay(multiprog_address_stream(suites, **stream_kwargs))
    base_rate = baseline.stats.miss_rate

    created = []
    factory = _scheme_factory(bound, created)
    protected = ProtectedCache(Cache(config), factory(),
                               seed=int(bound["seed"]))
    protected.replay(multiprog_address_stream(suites, **stream_kwargs))
    scheme_rate = protected.stats.miss_rate

    metrics = {
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


def oracle_penelope(bound):
    from repro.config import MechanismSpec, ProtectionSpec
    from repro.core import PenelopeProcessor
    from repro.experiments.registry import cached_trace

    trace = cached_trace(
        bound["suite"], int(bound["length"]), int(bound["seed"])
    )
    inversion = MechanismSpec("line_fixed",
                              {"ratio": float(bound["invert_ratio"])})
    processor = PenelopeProcessor(
        protection=ProtectionSpec(
            dl0=inversion, dtlb=inversion,
            sample_period=float(bound["sample_period"])),
        seed=int(bound["seed"]),
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


ORACLES = {
    "caches": oracle_caches,
    "invert_ratio": oracle_invert_ratio,
    "victim_policy": oracle_victim_policy,
    "regfile": oracle_regfile,
    "vmin_power": oracle_vmin_power,
    "multiprog": oracle_multiprog,
    "penelope": oracle_penelope,
}


def test_every_registered_study_has_an_oracle():
    """A new study must be added to this differential suite."""
    assert set(ORACLES) == set(study_names())


@pytest.mark.parametrize("study_name", sorted(ORACLES))
def test_flatten_is_bit_identical_to_legacy_dict(study_name):
    study = get_study(study_name)
    params = PARAMS[study_name]
    flat = study.execute(params)
    legacy = ORACLES[study_name](study.bind(params))
    # key-for-key (including insertion order) and value-for-value
    assert list(flat) == list(legacy)
    for key in legacy:
        assert flat[key] == legacy[key], key
