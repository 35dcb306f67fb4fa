"""Property-based tests (hypothesis) on the core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.circuits import build_ladner_fischer_adder
from repro.core.metric import nbti_efficiency
from repro.core.policy import BitDirective, Technique, ideal_k, repair_bit
from repro.nbti.guardband import GuardbandModel
from repro.nbti.physics import ReactionDiffusionModel, steady_state_fill
from repro.uarch.bitbias import BitBiasAccumulator

# A shared small adder: building it inside every example is wasteful.
_ADDER = build_ladner_fischer_adder(width=16)

duties = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPhysicsProperties:
    @given(duty=duties)
    def test_steady_state_within_unit_interval(self, duty):
        assert 0.0 <= steady_state_fill(duty) <= 1.0

    @given(a=duties, b=duties)
    def test_steady_state_monotonic(self, a, b):
        low, high = sorted((a, b))
        assert steady_state_fill(low) <= steady_state_fill(high)

    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1, max_size=20,
        )
    )
    def test_nit_never_leaves_bounds(self, durations):
        model = ReactionDiffusionModel()
        for index, duration in enumerate(durations):
            if index % 2 == 0:
                model.stress(duration)
            else:
                model.relax(duration)
            assert 0.0 <= model.nit <= model.n_max

    @given(
        stress=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
        relax=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    )
    def test_relax_never_increases_nit(self, stress, relax):
        model = ReactionDiffusionModel()
        model.stress(stress)
        peak = model.nit
        model.relax(relax)
        assert model.nit <= peak


class TestGuardbandProperties:
    @given(duty=duties)
    def test_guardband_bounded(self, duty):
        model = GuardbandModel()
        assert (model.min_guardband
                <= model.guardband_for_duty(duty)
                <= model.worst_guardband)

    @given(bias=duties)
    def test_bias_symmetry(self, bias):
        model = GuardbandModel()
        assert math.isclose(
            model.guardband_for_bias(bias),
            model.guardband_for_bias(1.0 - bias),
            rel_tol=1e-9,
        )

    @given(a=duties, b=duties)
    def test_guardband_monotonic_in_duty(self, a, b):
        model = GuardbandModel()
        low, high = sorted((a, b))
        assert (model.guardband_for_duty(low)
                <= model.guardband_for_duty(high))


class TestMetricProperties:
    positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
    guardbands = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(delay=positive, guardband=guardbands, tdp=positive)
    def test_efficiency_positive(self, delay, guardband, tdp):
        assert nbti_efficiency(delay, guardband, tdp) > 0.0

    @given(delay=positive, guardband=guardbands, tdp=positive,
           factor=st.floats(min_value=1.0, max_value=4.0))
    def test_efficiency_monotonic_in_each_argument(self, delay, guardband,
                                                   tdp, factor):
        base = nbti_efficiency(delay, guardband, tdp)
        assert nbti_efficiency(delay * factor, guardband, tdp) >= base
        assert nbti_efficiency(delay, min(1.0, guardband * factor),
                               tdp) >= base - 1e-12
        assert nbti_efficiency(delay, guardband, tdp * factor) >= base


class TestPolicyProperties:
    fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(occupancy=fractions, bias=fractions)
    def test_ideal_k_in_unit_interval(self, occupancy, bias):
        assert 0.0 <= ideal_k(occupancy, bias) <= 1.0

    @given(occupancy=st.floats(min_value=0.51, max_value=0.99),
           bias=st.floats(min_value=0.5, max_value=1.0))
    def test_ideal_k_balances_zero_time(self, occupancy, bias):
        k = ideal_k(occupancy, bias)
        zero_time = occupancy * bias + (1.0 - occupancy) * (1.0 - k)
        # Either perfectly balanced, or K clamped at 1 because the busy
        # bias alone exceeds the 50% budget.
        assert zero_time >= 0.5 - 1e-9
        if k < 1.0:
            assert math.isclose(zero_time, 0.5, abs_tol=1e-9)

    @given(k=fractions, phase=st.floats(min_value=0.0, max_value=0.999))
    def test_repair_bit_always_binary(self, k, phase):
        for technique in (Technique.ALL1, Technique.ALL0,
                          Technique.ALL1_K, Technique.ALL0_K):
            value = repair_bit(BitDirective(technique, k), phase)
            assert value in (0, 1)


class TestBitPackingProperties:
    @given(value=st.integers(min_value=0, max_value=(1 << 80) - 1))
    def test_unpack_pack_roundtrip(self, value):
        # The fold unpacks a held value into its positions, little-endian.
        acc = BitBiasAccumulator(entries=1, width=80, initial_value=value)
        acc.finalize(1.0)
        assert sum(1 << bit for bit, bias in enumerate(acc.bias_to_zero())
                   if bias == 0.0) == value

    @given(
        values=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.floats(min_value=0.01, max_value=100.0),
            ),
            min_size=1, max_size=30,
        )
    )
    def test_accumulator_time_conservation(self, values):
        acc = BitBiasAccumulator(entries=1, width=8)
        now = 0.0
        for value, delta in values:
            now += delta
            acc.set_value(0, value, now)
        acc.finalize(now + 1.0)
        assert math.isclose(acc.total_observed_time(), (now + 1.0) * 8,
                            rel_tol=1e-9)
        bias = acc.bias_to_zero()
        assert all(0.0 <= b <= 1.0 for b in bias)


class TestAdderProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(min_value=0, max_value=(1 << 16) - 1),
        b=st.integers(min_value=0, max_value=(1 << 16) - 1),
        cin=st.integers(min_value=0, max_value=1),
    )
    def test_addition_matches_reference(self, a, b, cin):
        total, cout = _ADDER.add(a, b, cin)
        reference = a + b + cin
        assert total == reference & 0xFFFF
        assert cout == reference >> 16

    @settings(max_examples=30, deadline=None)
    @given(a=st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_identity_and_complement(self, a):
        assert _ADDER.add(a, 0, 0) == (a, 0)
        ones = (1 << 16) - 1
        total, cout = _ADDER.add(a, ones ^ a, 1)
        assert (total, cout) == (0, 1)
