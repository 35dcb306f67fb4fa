"""Spec serialisation and validation (repro.config.specs/registry)."""

import dataclasses
import json

import pytest

from repro.config import (
    CACHE_SCHEMES,
    CacheGeometrySpec,
    MechanismSpec,
    MISSING,
    ProcessorSpec,
    ProtectionSpec,
    SpecError,
    StudySpec,
    TLBGeometrySpec,
    WorkloadSpec,
    registry_for_structure,
    resolve_path,
    with_path,
)

ALL_DEFAULT_SPECS = [
    CacheGeometrySpec(),
    TLBGeometrySpec(),
    ProcessorSpec(),
    MechanismSpec("line_fixed", {"ratio": 0.5}),
    ProtectionSpec(),
    WorkloadSpec(),
    StudySpec(study="caches"),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec", ALL_DEFAULT_SPECS,
        ids=lambda s: type(s).__name__,
    )
    def test_dict_round_trip(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "spec", ALL_DEFAULT_SPECS,
        ids=lambda s: type(s).__name__,
    )
    def test_json_round_trip(self, spec):
        # Through real JSON text: tuples become arrays and must come
        # back equal (canonicalised) — and a second trip is stable.
        once = type(spec).from_json(spec.to_json())
        assert once == spec
        assert once.to_json() == spec.to_json()

    def test_non_default_study_round_trip(self):
        spec = StudySpec(
            study="caches",
            processor=ProcessorSpec(
                dl0=CacheGeometrySpec(size_kb=16, ways=4)),
            protection=ProtectionSpec(
                dl0=MechanismSpec("line_dynamic", {
                    "ratio": 0.6, "threshold": 0.03, "warmup": 500,
                    "test_window": 500, "period": 3000,
                }),
                dtlb=MechanismSpec("none"),
            ),
            workload=WorkloadSpec(suites=("office", "kernels"),
                                  length=900, seed=3),
            sweep={"protection.dl0.params.ratio": [0.4, 0.6]},
            overrides={},
            workers=2,
        )
        restored = StudySpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.sweep["protection.dl0.params.ratio"] == (0.4, 0.6)

    def test_to_dict_is_json_safe(self):
        # Everything to_dict emits must survive json.dumps untouched.
        payload = StudySpec(study="penelope").to_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestValidation:
    def test_unknown_key_names_the_class_and_valid_keys(self):
        with pytest.raises(SpecError, match="alloc_widht"):
            ProcessorSpec.from_dict({"alloc_widht": 3})
        with pytest.raises(SpecError, match="alloc_width"):
            ProcessorSpec.from_dict({"alloc_widht": 3})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(SpecError, match="dl0"):
            ProcessorSpec.from_dict({"dl0": {"size_mb": 1}})

    def test_non_mapping_payload(self):
        with pytest.raises(SpecError, match="expected a mapping"):
            ProcessorSpec.from_dict([1, 2, 3])

    def test_null_nested_field_rejected(self):
        # A JSON null must not silently skip nested-spec validation.
        with pytest.raises(SpecError, match="not null"):
            StudySpec.from_dict({"study": "caches", "workload": None})
        with pytest.raises(SpecError, match="not null"):
            ProcessorSpec.from_dict({"dl0": None})

    def test_impossible_cache_geometry(self):
        with pytest.raises(SpecError, match="not\\s+divisible"):
            CacheGeometrySpec(size_kb=1, ways=3, line_bytes=64)

    def test_impossible_tlb_geometry(self):
        with pytest.raises(SpecError, match="not divisible"):
            TLBGeometrySpec(entries=100, ways=8)

    def test_negative_geometry(self):
        with pytest.raises(SpecError, match="positive"):
            CacheGeometrySpec(size_kb=-4)

    def test_bad_adder_policy_lists_choices(self):
        with pytest.raises(SpecError, match="uniform"):
            ProcessorSpec(adder_policy="round_robin")

    def test_non_positive_width(self):
        with pytest.raises(SpecError, match="alloc_width"):
            ProcessorSpec(alloc_width=0)

    @pytest.mark.parametrize("name,value", [
        pytest.param("redirect_penalty", -10, id="redirect_penalty"),
        pytest.param("dl0_miss_penalty", -10, id="dl0_miss_penalty"),
        pytest.param("dtlb_miss_penalty", -10, id="dtlb_miss_penalty"),
        # Fractional penalties made bias results depend on the fold size.
        ("dl0_miss_penalty", 0.3),
        ("dtlb_miss_penalty", 20.1),
        ("redirect_penalty", 6.0),
    ])
    def test_negative_penalty_names_the_field(self, name, value):
        with pytest.raises(SpecError, match=f"{name} must be a non-negative"):
            ProcessorSpec(**{name: value})
        payload = {"study": "penelope", "processor": {name: value}}
        with pytest.raises(SpecError, match=name):
            StudySpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("path,value", [
        ("processor.rob_entries", 2.5),
        ("processor.int_regs", 100.5),
        ("processor.alloc_width", 2.5),
        ("processor.n_adders", True),
        ("processor.dl0.ways", 2.0),
        ("processor.dtlb.entries", 128.0),
        ("workload.length", 100.5),
        ("workers", 2.0),
    ])
    def test_non_integer_count_names_the_field(self, path, value):
        name = path.rpartition(".")[2]
        with pytest.raises(SpecError, match=f"{name} must be a positive "
                                            f"integer"):
            with_path(StudySpec(study="penelope"), path, value)
        payload = {"study": "penelope"}
        *parents, __ = path.split(".")
        level = payload
        for parent in parents:
            level = level.setdefault(parent, {})
        level[name] = value
        with pytest.raises(SpecError, match=name):
            StudySpec.from_json(json.dumps(payload))

    def test_zero_penalties_are_legal(self):
        zero = dict.fromkeys(
            ("redirect_penalty", "dl0_miss_penalty", "dtlb_miss_penalty"), 0)
        config = ProcessorSpec(**zero).to_core_config()
        assert all(getattr(config, name) == 0 for name in zero)
        spec = StudySpec.from_json(json.dumps({"study": "penelope",
                                               "processor": zero}))
        assert spec.processor == ProcessorSpec(**zero)

    def test_unknown_mechanism_lists_registered(self):
        with pytest.raises(SpecError,
                           match="line_fixed.*none|none.*line_fixed"):
            ProtectionSpec(dl0=MechanismSpec("bogus"))

    def test_unknown_mechanism_param_lists_accepted(self):
        with pytest.raises(SpecError, match="ratio"):
            ProtectionSpec(dl0=MechanismSpec("line_fixed",
                                             {"ration": 0.5}))

    def test_none_mechanism_rejects_params(self):
        with pytest.raises(SpecError, match="no parameters"):
            ProtectionSpec(dl0=MechanismSpec("none", {"ratio": 0.5}))

    def test_unknown_suite_lists_available(self):
        with pytest.raises(SpecError, match="specint2000"):
            WorkloadSpec(suites=("spec_int",))

    def test_empty_sweep_axis(self):
        with pytest.raises(SpecError, match="non-empty"):
            StudySpec(study="caches", sweep={"workload.length": []})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            StudySpec.from_json("{not json")

    def test_replace_revalidates(self):
        spec = CacheGeometrySpec()
        with pytest.raises(SpecError):
            spec.replace(ways=7, size_kb=13)


class TestFieldPaths:
    def test_resolve_existing_paths(self):
        spec = StudySpec(study="caches")
        assert resolve_path(spec, "processor.dl0.size_kb") == 32
        assert resolve_path(spec, "protection.dl0.name") == "line_fixed"
        assert resolve_path(spec, "protection.dl0.params.ratio") == 0.5

    def test_resolve_missing_is_sentinel(self):
        spec = StudySpec(study="caches")
        assert resolve_path(spec, "protection.dl0.params.threshold") \
            is MISSING
        assert resolve_path(spec, "processor.nonexistent") is MISSING

    def test_with_path_replaces_immutably(self):
        spec = StudySpec(study="caches")
        updated = with_path(spec, "processor.dl0.size_kb", 8)
        assert updated.processor.dl0.size_kb == 8
        assert spec.processor.dl0.size_kb == 32

    def test_with_path_validates_result(self):
        spec = StudySpec(study="caches")
        with pytest.raises(SpecError):
            with_path(spec, "processor.dl0.ways", 7)

    def test_with_path_unknown_field(self):
        spec = StudySpec(study="caches")
        with pytest.raises(SpecError, match="no field"):
            with_path(spec, "processor.cache_kb", 8)


class TestRegistries:
    def test_registered_scheme_names(self):
        assert {"set_fixed", "way_fixed", "line_fixed",
                "line_dynamic"} <= set(CACHE_SCHEMES.names())

    def test_build_none_returns_none(self):
        assert CACHE_SCHEMES.build("none", {}) is None

    def test_build_constructs_configured_scheme(self):
        scheme = CACHE_SCHEMES.build("line_dynamic", {
            "ratio": 0.6, "threshold": 0.01, "warmup": 100,
            "test_window": 100, "period": 1000,
        })
        assert scheme.name == "LineDynamic60%"
        assert scheme.threshold == 0.01

    def test_build_bad_value_wraps_as_spec_error(self):
        with pytest.raises(SpecError, match="cannot build"):
            CACHE_SCHEMES.build("line_fixed", {"ratio": 1.5})

    def test_structure_registry_lookup(self):
        assert registry_for_structure("dl0") is CACHE_SCHEMES
        with pytest.raises(SpecError, match="unknown structure"):
            registry_for_structure("l2")

    def test_new_scheme_plugs_in_without_construction_changes(self):
        """The extension point: register by name, build via spec."""
        from repro.core.cache_like import LineFixedScheme

        class EveryOtherLineScheme(LineFixedScheme):
            pass

        name = "_test_every_other_line"
        CACHE_SCHEMES.register(name)(EveryOtherLineScheme)
        try:
            protection = ProtectionSpec(
                dl0=MechanismSpec(name, {"ratio": 0.25}))
            from repro.api import build_scheme

            scheme = build_scheme(protection.dl0)
            assert isinstance(scheme, EveryOtherLineScheme)
            assert scheme.ratio == 0.25
        finally:
            del CACHE_SCHEMES._factories[name]

    def test_accepted_params_of_every_registered_mechanism(self):
        from repro.config.registry import (
            ADDER_MECHANISMS,
            RF_PROTECTORS,
            SCHEDULER_PROTECTORS,
        )

        pinned = {
            CACHE_SCHEMES: {
                "line_dynamic": ["ratio", "threshold", "warmup",
                                 "test_window", "period"],
                "line_fixed": ["ratio"],
                "set_fixed": ["ratio", "rotation_period"],
                "way_fixed": ["ratio", "rotation_period"],
            },
            RF_PROTECTORS: {"isv": []},
            SCHEDULER_PROTECTORS: {"derived_policy": [],
                                   "paper_policy": []},
            ADDER_MECHANISMS: {"idle_injection": ["pair"]},
        }
        for registry, expected in pinned.items():
            assert {name: registry.accepted_params(name)
                    for name in expected} == expected
            assert registry.accepted_params("none") == []

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            CACHE_SCHEMES.register("line_fixed")(object)

    def test_isv_accepts_no_parameters(self):
        with pytest.raises(SpecError, match="entries_hint"):
            ProtectionSpec(int_rf=MechanismSpec("isv", {"entries_hint": 64}))

    def test_memory_hooks_in_core_call_order(self):
        from repro.config.registry import build_memory_hooks
        from repro.core.memory_like import (
            PAPER_SCHEDULER_POLICY,
            ISVRegisterFileProtector,
            SchedulerProtector,
        )

        int_rf, fp_rf, scheduler = build_memory_hooks(ProtectionSpec()).hooks
        assert isinstance(int_rf, ISVRegisterFileProtector)
        assert (int_rf.rf_name, fp_rf.rf_name) == ("int_rf", "fp_rf")
        assert isinstance(scheduler, SchedulerProtector)
        # 'derived_policy' given no profiled policy applies the paper's.
        assert scheduler.policy is PAPER_SCHEDULER_POLICY


class TestCoreConfigConversion:
    def test_default_spec_matches_default_core_config(self):
        from repro.uarch.core import CoreConfig

        assert ProcessorSpec().to_core_config() == CoreConfig()

    def test_geometry_and_policy_flow_through(self):
        from repro.uarch.ports import AdderPolicy

        config = ProcessorSpec(
            adder_policy="priority",
            dl0=CacheGeometrySpec(size_kb=8, ways=4),
            dtlb=TLBGeometrySpec(entries=64, ways=4),
        ).to_core_config()
        assert config.adder_policy is AdderPolicy.PRIORITY
        assert config.dl0.name == "DL0-8K-4w"
        assert config.dl0.sets == 8 * 1024 // (4 * 64)
        assert config.dtlb.name == "DTLB-64"
        assert config.dtlb.entries == 64

    def test_specs_are_frozen(self):
        spec = ProcessorSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.alloc_width = 8
