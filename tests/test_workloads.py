"""Tests for the synthetic workload generators."""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.uarch.uop import FP_WIDTH, UopClass
from repro.workloads import (
    AddressGenerator,
    BiasedIntGenerator,
    FPValueGenerator,
    SUITE_PROFILES,
    TABLE1_TRACE_COUNTS,
    TraceGenerator,
    encode_x87,
    generate_address_stream,
    generate_workload,
    suite_names,
)


class TestEncodeX87:
    @pytest.mark.parametrize("value", [1.0, -1.0, 0.5, 3.1415, 1e6, -255.0])
    def test_fields_consistent(self, value):
        encoded = encode_x87(value)
        sign = encoded >> 79
        exponent = (encoded >> 64) & 0x7FFF
        integer_bit = (encoded >> 63) & 1
        assert sign == (1 if value < 0 else 0)
        assert integer_bit == 1  # normalised
        # Decode and compare.
        fraction = encoded & ((1 << 63) - 1)
        mantissa = 1.0 + fraction / (1 << 63)
        decoded = (-1) ** sign * mantissa * 2.0 ** (exponent - 16383)
        assert decoded == pytest.approx(value, rel=1e-12)

    def test_zero(self):
        assert encode_x87(0.0) == 0

    def test_fits_width(self):
        for value in (1.0, -1e300, 5e-324):
            assert encode_x87(value) < (1 << FP_WIDTH)

    def test_subnormal_double(self):
        encoded = encode_x87(5e-324)
        assert (encoded >> 63) & 1 == 1  # renormalised

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            encode_x87(float("nan"))


class TestBiasedIntGenerator:
    def test_bias_band(self):
        gen = BiasedIntGenerator(random.Random(0))
        values = [gen.next() for __ in range(20000)]
        bits = np.array([[(v >> i) & 1 for i in range(32)] for v in values])
        bias = 1.0 - bits.mean(axis=0)
        # Section 1.1: between 65% and 90% for all bits (sampling slack).
        assert bias.min() > 0.60
        assert bias.max() < 0.93

    def test_values_fit_width(self):
        gen = BiasedIntGenerator(random.Random(1))
        assert all(0 <= gen.next() < (1 << 32) for __ in range(1000))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            BiasedIntGenerator(random.Random(0), counter_weight=-1.0)


class TestFPValueGenerator:
    def test_values_fit_width(self):
        gen = FPValueGenerator(random.Random(0))
        assert all(0 <= gen.next() < (1 << FP_WIDTH) for __ in range(500))

    def test_mix_includes_zero_and_negative(self):
        gen = FPValueGenerator(random.Random(0))
        floats = [gen.next_float() for __ in range(2000)]
        assert any(f == 0.0 for f in floats)
        assert any(f < 0.0 for f in floats)
        assert any(f > 0.0 for f in floats)


class TestAddressGenerator:
    def test_hot_accesses_stay_in_working_set(self):
        gen = AddressGenerator(random.Random(0), working_set_bytes=8192,
                               hot_fraction=1.0)
        span = max(gen.next() for __ in range(2000)) - gen.base
        assert span < 8192 + 5 * 64 * 1024  # regions plus spacing

    def test_cold_stream_is_monotonic_ish(self):
        gen = AddressGenerator(random.Random(0), hot_fraction=0.0)
        addresses = [gen.next() for __ in range(500)]
        # The stream trends forward: the last address is far beyond the
        # first despite backward jumps.
        assert addresses[-1] > addresses[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressGenerator(random.Random(0), working_set_bytes=0)
        with pytest.raises(ValueError):
            AddressGenerator(random.Random(0), hot_fraction=1.5)

    def test_hot_region_narrower_than_a_word_rejected(self):
        # Its random offsets would be drawn below zero words: refused at
        # construction, not at the first such draw mid-stream.
        with pytest.raises(ValueError, match="regions of 2 bytes"):
            AddressGenerator(random.Random(0), working_set_bytes=8,
                             regions=4, stride_bytes=1)

    def test_one_word_regions_draw(self):
        gen = AddressGenerator(random.Random(0), working_set_bytes=4,
                               regions=1, stride_bytes=1, hot_fraction=1.0)
        assert set(gen.take(400)) == {gen.base, gen.base + 1, gen.base + 2,
                                      gen.base + 3}


class TestSuiteProfiles:
    def test_table1_counts(self):
        assert sum(TABLE1_TRACE_COUNTS.values()) == 531
        assert len(TABLE1_TRACE_COUNTS) == 10

    def test_all_profiles_valid(self):
        for name in suite_names():
            profile = SUITE_PROFILES[name]
            assert profile.name == name
            assert abs(sum(profile.uop_mix) - 1.0) < 0.011
            assert profile.mix_dict()["load"] > 0

    def test_server_has_biggest_working_set(self):
        sizes = {n: p.working_set_bytes for n, p in SUITE_PROFILES.items()}
        assert max(sizes, key=sizes.get) == "server"


class TestTraceGenerator:
    def test_length_and_tagging(self):
        trace = TraceGenerator(seed=1).generate("office", length=500)
        assert len(trace) == 500
        assert trace.suite == "office"

    def test_deterministic_given_seed(self):
        a = TraceGenerator(seed=5).generate("kernels", length=300)
        b = TraceGenerator(seed=5).generate("kernels", length=300)
        assert all(
            x.opcode == y.opcode and x.address == y.address
            for x, y in zip(a, b)
        )

    def test_different_traces_differ(self):
        gen = TraceGenerator(seed=5)
        a = gen.generate("kernels", length=300, trace_index=0)
        b = gen.generate("kernels", length=300, trace_index=1)
        assert any(x.opcode != y.opcode for x, y in zip(a, b))

    def test_mix_approximates_profile(self):
        trace = TraceGenerator(seed=2).generate("specfp2000", length=8000)
        stats = trace.stats()
        profile = SUITE_PROFILES["specfp2000"]
        assert stats.fraction(UopClass.FP) == pytest.approx(
            profile.mix_dict()["fp"], abs=0.03
        )
        assert stats.memory_fraction == pytest.approx(
            profile.mix_dict()["load"] + profile.mix_dict()["store"],
            abs=0.03,
        )

    def test_memory_uops_have_addresses(self):
        trace = TraceGenerator(seed=3).generate("server", length=1000)
        for uop in trace:
            if uop.uop_class.is_memory:
                assert uop.address is not None

    def test_sub_fraction_produces_carry_in(self):
        trace = TraceGenerator(seed=3).generate("specint2000", length=4000)
        alus = [u for u in trace if u.uop_class is UopClass.ALU]
        subs = [u for u in alus if u.is_sub]
        assert 0.0 < len(subs) / len(alus) < 0.3

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            TraceGenerator().generate("nonexistent")

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            TraceGenerator().generate("office", length=0)


class TestWorkloadHelpers:
    def test_generate_workload_proportional(self):
        workload = generate_workload(scale=0.02, length=50)
        by_suite = {}
        for trace in workload:
            by_suite[trace.suite] = by_suite.get(trace.suite, 0) + 1
        assert by_suite["multimedia"] == round(85 * 0.02)
        assert all(count >= 1 for count in by_suite.values())

    def test_generate_workload_fixed(self):
        workload = generate_workload(traces_per_suite=2, length=50,
                                     suites=["office", "kernels"])
        assert len(workload) == 4

    def test_address_stream(self):
        stream = generate_address_stream("server", length=1000, seed=4)
        assert len(stream) == 1000
        assert all(isinstance(a, int) and a >= 0 for a in stream)

    def test_address_stream_deterministic(self):
        a = generate_address_stream("office", length=200, seed=4)
        b = generate_address_stream("office", length=200, seed=4)
        assert a == b
