"""Integration tests for the whole Penelope processor."""

import pytest

from repro.core import PenelopeProcessor
from repro.core.metric import BASELINE_GUARDBAND
from repro.workloads import generate_workload


@pytest.fixture(scope="module")
def report():
    workload = generate_workload(
        traces_per_suite=1, length=4000,
        suites=["specint2000", "office"], seed=21,
    )
    return PenelopeProcessor(seed=21).evaluate(workload)


class TestPenelopeReport:
    def test_beats_baseline(self, report):
        assert report.efficiency < report.baseline_efficiency
        assert report.baseline_efficiency == pytest.approx(1.73, abs=0.01)

    def test_bias_improves_everywhere(self, report):
        base, prot = report.int_rf_bias
        assert prot < base
        base, prot = report.fp_rf_bias
        assert prot < base
        base, prot = report.scheduler_bias
        assert prot < base

    def test_combined_cpi_is_small(self, report):
        # The paper measures 1.007; warmup effects leave us within a few
        # percent.
        assert 1.0 <= report.combined_cpi < 1.06

    def test_adder_guardband_below_baseline(self, report):
        assert report.adder_guardband < BASELINE_GUARDBAND
        # With utilisation in the 15-40% band the guardband lands in the
        # Figure 5 range.
        assert 0.02 <= report.adder_guardband <= 0.12

    def test_block_costs_cover_all_five_blocks(self, report):
        names = {block.name for block in report.block_costs}
        assert names == {"adder", "int_rf", "fp_rf", "scheduler",
                         "dl0+dtlb"}
        for block in report.block_costs:
            assert block.efficiency < 1.73

    def test_processor_guardband_is_max_of_blocks(self, report):
        assert report.processor.guardband == pytest.approx(
            max(b.guardband for b in report.block_costs)
        )

    def test_run_counts(self, report):
        assert len(report.baseline) == len(report.protected) == 2


class TestPenelopeConfiguration:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            PenelopeProcessor().evaluate([])

    def test_explicit_policy_is_used(self):
        from repro.core.memory_like import PAPER_SCHEDULER_POLICY

        workload = generate_workload(traces_per_suite=1, length=1000,
                                     suites=["kernels"], seed=3)
        processor = PenelopeProcessor(
            scheduler_policy=PAPER_SCHEDULER_POLICY, seed=3
        )
        report = processor.evaluate(workload)
        assert report.efficiency < report.baseline_efficiency

    @pytest.mark.parametrize("scheduler", ["paper_policy", "none"])
    def test_only_derived_policy_profiles(self, scheduler):
        from repro.config import MechanismSpec, ProtectionSpec
        from repro.core.memory_like import PAPER_SCHEDULER_POLICY

        assert PenelopeProcessor().scheduler_policy is None
        processor = PenelopeProcessor(protection=ProtectionSpec(
            scheduler=MechanismSpec(scheduler)))
        assert processor.scheduler_policy is PAPER_SCHEDULER_POLICY

    def test_derive_policy_smoke(self):
        from repro.workloads import TraceGenerator

        trace = TraceGenerator(seed=4).generate("office", length=1000)
        policy = PenelopeProcessor().derive_policy(trace)
        assert "flags" in policy
        assert len(policy["src1_data"]) == 32
