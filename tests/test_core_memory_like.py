"""Tests for RINV, the ISV register-file protector and the scheduler
protector."""

import pytest

from repro.core.memory_like import (
    ISVRegisterFileProtector,
    PAPER_SCHEDULER_POLICY,
    RINVRegister,
    SchedulerProfiler,
    SchedulerProtector,
    derive_scheduler_policy,
)
from repro.core.policy import Technique
from repro.uarch import TraceDrivenCore
from repro.uarch.uop import INT_WIDTH, SCHEDULER_LAYOUT
from repro.workloads import TraceGenerator


class TestRINVRegister:
    def test_stores_inversion(self):
        rinv = RINVRegister(8)
        rinv.update_from_sample(0b1010_1010)
        assert rinv.value == 0b0101_0101
        assert rinv.updates == 1

    def test_reset_state_is_all_ones(self):
        # Inversion of the all-zeros power-on value.
        assert RINVRegister(4).value == 0b1111

    def test_validation(self):
        with pytest.raises(ValueError):
            RINVRegister(0)


class TestISVRegisterFileProtector:
    def _run(self, length=4000):
        trace = TraceGenerator(seed=9).generate("specint2000", length=length)
        protector = ISVRegisterFileProtector("int_rf", INT_WIDTH,
                                             sample_period=256.0)
        core = TraceDrivenCore(hooks=protector)
        result = core.run(trace)
        return protector, result

    def test_improves_worst_bias(self):
        protector, result = self._run()
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        assert result.int_rf.worst_bias < baseline.int_rf.worst_bias
        # The paper reduces the worst bias to near 50%; warmup noise on
        # short traces keeps us within a looser band.
        assert result.int_rf.worst_bias < 0.75

    def test_inverted_time_converges_to_half(self):
        protector, __ = self._run()
        assert protector.inverted_time_fraction == pytest.approx(0.5,
                                                                 abs=0.05)

    def test_discards_are_rare(self):
        # Section 4.4: ports are free 92% of the time, so few updates
        # are discarded.
        protector, result = self._run()
        total = protector.updates_written + protector.updates_skipped
        assert total > 0
        assert protector.updates_skipped / total < 0.25

    def test_ignores_other_register_files(self):
        protector = ISVRegisterFileProtector("fp_rf", 80)
        trace = TraceGenerator(seed=9).generate("specint2000", length=800)
        core = TraceDrivenCore(hooks=protector)
        result = core.run(trace)
        # specint hardly touches FP: almost no updates either way, but
        # certainly none on the INT file.
        assert result.int_rf.special_writes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ISVRegisterFileProtector("int_rf", 32, sample_period=0.0)


class TestSchedulerProtector:
    def test_paper_policy_covers_all_fields(self):
        layout_fields = set(SCHEDULER_LAYOUT.fields())
        assert set(PAPER_SCHEDULER_POLICY) == layout_fields
        for name, directives in PAPER_SCHEDULER_POLICY.items():
            assert len(directives) == SCHEDULER_LAYOUT.fields()[name]

    def test_paper_policy_classification(self):
        policy = PAPER_SCHEDULER_POLICY
        assert policy["valid"][0].technique is Technique.UNPROTECTED
        assert policy["flags"][0].technique is Technique.ALL1
        assert policy["latency"][3].technique is Technique.ALL1
        assert policy["latency"][0].technique is Technique.ALL1_K
        assert policy["latency"][0].k == pytest.approx(0.95)
        assert policy["taken"][0].k == pytest.approx(0.50)
        assert policy["ready1"][0].k == pytest.approx(0.60)
        assert policy["src1_data"][0].technique is Technique.ISV
        assert policy["dst_tag"][0].technique is Technique.SELF_BALANCED

    def test_protection_flattens_bias(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protector = SchedulerProtector()
        protected = TraceDrivenCore(hooks=protector).run(trace)
        assert protector.updates_written > 0
        assert (protected.scheduler.worst_bias()
                < baseline.scheduler.worst_bias())

    def test_flags_specifically_repaired(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protected = TraceDrivenCore(hooks=SchedulerProtector()).run(trace)
        base_flags = max(baseline.scheduler.field_bias["flags"])
        prot_flags = max(protected.scheduler.field_bias["flags"])
        assert prot_flags < base_flags

    def test_valid_bit_untouched(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=2000)
        protector = SchedulerProtector()
        result = TraceDrivenCore(hooks=protector).run(trace)
        # The valid bit's bias reflects occupancy only (cannot repair).
        valid_bias = result.scheduler.field_bias["valid"][0]
        assert valid_bias == pytest.approx(1.0 - result.scheduler.occupancy,
                                           abs=0.05)


class TestDerivedPolicy:
    def _profile(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=3000)
        profiler = SchedulerProfiler()
        result = TraceDrivenCore(hooks=profiler).run(trace)
        return profiler, result

    def test_profiler_collects_fills(self):
        profiler, __ = self._profile()
        assert profiler.fills == 3000
        bias = profiler.busy_bias_to_zero()
        assert set(bias) == set(SCHEDULER_LAYOUT.fields())

    def test_derive_policy_structure(self):
        profiler, result = self._profile()
        policy = derive_scheduler_policy(profiler,
                                         result.scheduler.occupancy)
        assert policy["valid"][0].technique is Technique.UNPROTECTED
        assert policy["dst_tag"][0].technique is Technique.SELF_BALANCED
        # Highly zero-biased flag bits get ALL1-flavoured techniques.
        assert policy["flags"][2].technique in (
            Technique.ALL1, Technique.ALL1_K
        )

    def test_derived_policy_beats_baseline(self):
        profiler, result = self._profile()
        policy = derive_scheduler_policy(profiler,
                                         result.scheduler.occupancy)
        trace = TraceGenerator(seed=10).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protected = TraceDrivenCore(
            hooks=SchedulerProtector(policy)
        ).run(trace)
        assert (protected.scheduler.worst_bias()
                < baseline.scheduler.worst_bias())

    def test_profiler_requires_fills(self):
        with pytest.raises(ValueError):
            SchedulerProfiler().busy_bias_to_zero()
