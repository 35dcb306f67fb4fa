"""Tests for idle-input injection and the adder case study."""

import json

import pytest

from repro.core.combinational import (
    IdleInputInjector,
    adder_guardband_study,
    evaluate_input_pair,
    input_pairs,
    search_best_pair,
    synthetic_inputs,
)


class TestSyntheticInputs:
    def test_eight_combinations(self, adder8):
        inputs = synthetic_inputs(8)
        assert len(inputs) == 8
        assert inputs[0] == (0, 0, 0)        # input 1
        assert inputs[7] == (255, 255, 1)    # input 8

    def test_pair_enumeration(self):
        pairs = input_pairs(32)
        assert len(pairs) == 28
        assert (1, 8) in pairs
        assert all(a < b for a, b in pairs)


class TestEvaluateInputPair:
    def test_round_robin_duties_quantised(self, adder8):
        # Alternating two inputs gives every PMOS 0%, 50% or 100% duty.
        from repro.circuits import AgingSimulator

        inputs = synthetic_inputs(8)
        sim = AgingSimulator(adder8.circuit)
        sim.apply(adder8.input_vector(*inputs[0]), 1.0)
        sim.apply(adder8.input_vector(*inputs[7]), 1.0)
        for duty in sim.pmos_duties().values():
            assert duty in (0.0, 0.5, 1.0)

    def test_invalid_pair_rejected(self, adder8):
        with pytest.raises(ValueError):
            evaluate_input_pair(adder8, (0, 8))
        with pytest.raises(ValueError):
            evaluate_input_pair(adder8, (3, 3))

    def test_report_fields(self, adder8):
        report = evaluate_input_pair(adder8, (1, 8))
        assert report.total_transistors == adder8.transistor_count
        assert 0.0 <= report.narrow_fully_stressed_fraction <= 1.0


class TestSearchBestPair:
    def test_figure4_winner_is_1_8(self, adder32):
        result = search_best_pair(adder32)
        assert result.best_pair == (1, 8)
        fractions = result.fractions()
        assert len(fractions) == 28
        best = fractions[(1, 8)]
        assert all(best <= value for value in fractions.values())

    def test_complementary_pairs_beat_degenerate_ones(self, adder32):
        fractions = search_best_pair(adder32).fractions()
        # <0,0,0>+<0,0,1> keeps the operand inputs stressed throughout.
        assert fractions[(1, 2)] > fractions[(1, 8)]


class TestIdleInputInjector:
    def test_injection_reduces_guardband(self, adder32):
        vectors = [(12345, 678, 0), (1, 2, 0), (0xFFFF, 0x0F0F, 1)]
        injector = IdleInputInjector(adder32)
        baseline = injector.age(vectors, utilization=1.0, inject=False)
        protected = injector.age(vectors, utilization=0.21, inject=True)
        assert protected.worst_narrow_duty < baseline.worst_narrow_duty
        assert protected.guardband < baseline.guardband

    def test_lower_utilization_lower_guardband(self, adder32):
        vectors = [(12345, 678, 0)]
        injector = IdleInputInjector(adder32)
        high = injector.age(vectors, utilization=0.30)
        low = injector.age(vectors, utilization=0.11)
        assert low.guardband < high.guardband

    def test_validation(self, adder32):
        injector = IdleInputInjector(adder32)
        with pytest.raises(ValueError):
            injector.age([], utilization=0.2)
        with pytest.raises(ValueError):
            injector.age([(0, 0, 0)], utilization=1.5)

    @pytest.mark.parametrize("pair", [(0, 8), (1, 9), (8, 8), (1, 2, 3),
                                      (1,), ("1", 8)])
    def test_invalid_pair_rejected_at_construction(self, adder8, pair):
        # (0, 8) used to age silently as (8, 8): inputs[-1] is input 8.
        with pytest.raises(ValueError,
                           match="pair must be two distinct indices in 1..8"):
            IdleInputInjector(adder8, pair)

    def test_pair_normalised_to_tuple(self, adder8):
        assert IdleInputInjector(adder8, [8, 1]).pair == (8, 1)


class TestIdleInjectionConfig:
    @pytest.mark.parametrize("pair", [[0, 8], [1, 9], [4, 4]])
    def test_bad_pair_in_json_config_is_a_spec_error(self, pair):
        from repro import api
        from repro.config import SpecError, StudySpec

        spec = StudySpec.from_json(json.dumps({
            "study": "penelope",
            "protection": {"adder": {"name": "idle_injection",
                                     "params": {"pair": pair}}},
        }))
        with pytest.raises(SpecError, match="two distinct indices in 1..8"):
            api.build_penelope(spec)

    def test_good_pair_reaches_the_processor(self):
        from repro import api
        from repro.config import StudySpec

        spec = StudySpec.from_json(json.dumps({
            "study": "penelope",
            "protection": {"adder": {"name": "idle_injection",
                                     "params": {"pair": [2, 7]}}},
        }))
        assert api.build_penelope(spec).injector_pair == (2, 7)


class TestAdderGuardbandStudy:
    def test_figure5_shape(self, adder32):
        """Real inputs pay ~20%; injection scales down with utilisation."""
        vectors = [(12345, 678, 0), (99, 100, 0), (0xABCD, 0x1234, 1)]
        study = adder_guardband_study(adder32, vectors)
        assert study["real inputs"] == pytest.approx(0.20, abs=0.005)
        g30 = study["30% real + 000 + 111"]
        g21 = study["21% real + 000 + 111"]
        g11 = study["11% real + 000 + 111"]
        assert g11 < g21 < g30 < study["real inputs"]
        # Paper: 7.4% at 30% utilisation, 5.8% at 21%.
        assert g30 == pytest.approx(0.074, abs=0.01)
        assert g21 == pytest.approx(0.058, abs=0.01)
