"""Counters and results pinned across refactors of the Penelope path.

The study digests of ``tests/test_pinned_digests.py`` cover these only
in part.  Every value below is reproduced exactly, with and without
numpy.

- The structure counters were recorded while each structure kept its
  own free list, port counters, special-write gate and ``finalize``,
  before the register files and the scheduler shared one entry base
  (:class:`repro.uarch.entries.EntryArray`).  ``scheduler.releases`` is
  the one metric the base added.
- The Penelope configuration pins were recorded while
  :class:`~repro.core.penelope.PenelopeProcessor` took its mechanisms
  as factory callables plus loose knobs, before it built every one from
  its :class:`~repro.config.specs.ProtectionSpec`.
"""

import pytest

from repro.config import MechanismSpec, ProtectionSpec
from repro.core.memory_like import ISVRegisterFileProtector, SchedulerProtector
from repro.core.penelope import PenelopeProcessor
from repro.uarch import TraceDrivenCore
from repro.uarch.core import CompositeHooks
from repro.uarch.uop import FP_WIDTH, INT_WIDTH
from repro.workloads import TraceGenerator, generate_workload

RF_FIELDS = ("allocations", "releases", "special_writes",
             "discarded_special_writes", "free_fraction",
             "port_free_fraction")
SCHEDULER_FIELDS = ("allocations", "special_writes",
                    "discarded_special_writes", "occupancy",
                    "port_free_fraction")

#: ``run_protected`` on a 20k-uop trace (seed 0): per structure, the
#: fields above in order.
PROTECTED = {
    "specint2000": {
        "int_rf": (13249, 13225, 8183, 556, 0.6835624430783243, 0.9363771598581073),
        "fp_rf": (200, 192, 142, 0, 0.7487334927140255, 1.0),
        "scheduler": (20000, 19154, 846, 0.5752675318761384, 0.9577),
    },
    "specfp2000": {
        "int_rf": (10047, 10023, 6236, 6, 0.48971764321854083, 0.9990387696251202),
        "fp_rf": (5280, 5272, 3542, 42, 0.06312734617267834, 0.98828125),
        "scheduler": (20000, 19172, 828, 0.7707253753876285, 0.9586),
    },
}

#: ``TraceDrivenCore.metrics().flatten()`` after a protected 3000-uop
#: specint2000 run (seed 0).
CORE_FLATTEN = {
    "dl0.accesses": 998,
    "dl0.hit_rate": 0.9208416833667334,
    "dl0.hit_way_position": {0: 894, 1: 25},
    "dl0.hits": 919,
    "dl0.inversions": 0,
    "dl0.inverted_frac": 0.0,
    "dl0.inverted_lines": 0,
    "dl0.miss_rate": 0.07915831663326653,
    "dl0.misses": 79,
    "dl0.refills_of_inverted": 0,
    "dl0.shadow_hits": 0,
    "dl0.shadow_lines": 0,
    "dtlb.accesses": 998,
    "dtlb.hit_rate": 0.9929859719438878,
    "dtlb.hit_way_position": {1: 284, 0: 333, 2: 232, 3: 142},
    "dtlb.hits": 991,
    "dtlb.inversions": 0,
    "dtlb.inverted_frac": 0.0,
    "dtlb.inverted_lines": 0,
    "dtlb.miss_rate": 0.0070140280561122245,
    "dtlb.misses": 7,
    "dtlb.refills_of_inverted": 0,
    "dtlb.shadow_hits": 0,
    "dtlb.shadow_lines": 0,
    "fp_rf.allocations": 29,
    "fp_rf.bias.observed_time": 4505600.0,
    "fp_rf.bias.worst_bias": 0.9587002840909091,
    "fp_rf.discarded_special_writes": 0,
    "fp_rf.port_checks": 21,
    "fp_rf.port_free_fraction": 1.0,
    "fp_rf.port_free_hits": 21,
    "fp_rf.releases": 21,
    "fp_rf.special_writes": 21,
    "int_rf.allocations": 2000,
    "int_rf.bias.observed_time": 7208960.0,
    "int_rf.bias.worst_bias": 0.7213068181818182,
    "int_rf.discarded_special_writes": 72,
    "int_rf.port_checks": 1367,
    "int_rf.port_free_fraction": 0.9473299195318216,
    "int_rf.port_free_hits": 1295,
    "int_rf.releases": 1976,
    "int_rf.special_writes": 1295,
    "mob.allocations": 998,
    "mob.usage_imbalance": 1.0260521042084167,
    "scheduler.allocations": 3000,
    "scheduler.bias.observed_time": 8110080.0,
    "scheduler.bias.worst_bias": 0.9526988636363636,
    "scheduler.discarded_special_writes": 140,
    "scheduler.port_checks": 3000,
    "scheduler.port_free_fraction": 0.9533333333333334,
    "scheduler.port_free_hits": 2860,
    "scheduler.special_writes": 2860,
}


@pytest.mark.parametrize("suite", sorted(PROTECTED))
def test_run_protected_structure_counters(suite):
    trace = TraceGenerator(seed=0).generate(suite, length=20000)
    result = PenelopeProcessor().run_protected(trace)
    for name, fields in (("int_rf", RF_FIELDS), ("fp_rf", RF_FIELDS),
                         ("scheduler", SCHEDULER_FIELDS)):
        stats = getattr(result, name)
        got = tuple(getattr(stats, field) for field in fields)
        assert got == PROTECTED[suite][name], name


def test_core_metrics_flatten():
    core = TraceDrivenCore(hooks=CompositeHooks([
        ISVRegisterFileProtector("int_rf", INT_WIDTH),
        ISVRegisterFileProtector("fp_rf", FP_WIDTH),
        SchedulerProtector()]))
    core.run(TraceGenerator(seed=0).generate("specint2000", length=3000))
    flat = core.metrics().flatten()
    assert flat.pop("scheduler.releases") == flat["scheduler.allocations"]
    assert flat == CORE_FLATTEN


NONE = MechanismSpec("none")

#: The protection spec of each pinned Penelope configuration.
PIN_PROTECTIONS = {
    "default": ProtectionSpec(),
    "line_fixed_40_period_256": ProtectionSpec(
        dl0=MechanismSpec("line_fixed", {"ratio": 0.4}),
        dtlb=MechanismSpec("line_fixed", {"ratio": 0.4}),
        sample_period=256.0),
    "adder_none": ProtectionSpec(adder=NONE),
    "adder_pair_2_7": ProtectionSpec(
        adder=MechanismSpec("idle_injection", {"pair": (2, 7)})),
    "paper_policy": ProtectionSpec(scheduler=MechanismSpec("paper_policy")),
    "unprotected": ProtectionSpec(adder=NONE, int_rf=NONE, fp_rf=NONE,
                                  scheduler=NONE, dl0=NONE, dtlb=NONE),
    "set_fixed_line_dynamic": ProtectionSpec(
        dl0=MechanismSpec("set_fixed", {"ratio": 0.5}),
        dtlb=MechanismSpec("line_dynamic", {"ratio": 0.6, "warmup": 100,
                                            "test_window": 100,
                                            "period": 400})),
}

#: ``PenelopeProcessor(protection=..., seed=9).evaluate(pin_workload())``
#: per configuration, as :func:`penelope_pin` lists it: efficiency,
#: baseline efficiency, combined CPI, adder guardband, the (baseline,
#: protected) worst bias of the INT and FP register files and of the
#: scheduler, and each block's guardband.
PENELOPE_PINS = {
    "default": (
        1.550522415896462, 1.7279999999999998, 1.0,
        0.06900097367305326,
        (0.9189725708914196, 0.681837013227207),
        (1.0, 0.8710888116308471),
        (1.0, 0.760370575221239),
        (0.06900097367305326, 0.08546132476179454,
         0.15359197218710494, 0.11373340707964605, 0.02)),
    "line_fixed_40_period_256": (
        1.6352030717733965, 1.7279999999999998, 1.0,
        0.06900097367305326,
        (0.9189725708914196, 0.6629427155458711),
        (1.0, 0.9283936472819216),
        (1.0, 0.760370575221239),
        (0.06900097367305326, 0.07865937759651362,
         0.1742217130214918, 0.11373340707964605, 0.02)),
    "adder_none": (
        1.739151437523308, 1.7279999999999998, 1.0,
        0.19859375,
        (0.9189725708914196, 0.681837013227207),
        (1.0, 0.8710888116308471),
        (1.0, 0.760370575221239),
        (0.19859375, 0.08546132476179454,
         0.15359197218710494, 0.11373340707964605, 0.02)),
    "adder_pair_2_7": (
        1.7419152190322023, 1.7279999999999998, 1.0,
        0.199228331123259,
        (0.9189725708914196, 0.681837013227207),
        (1.0, 0.8710888116308471),
        (1.0, 0.760370575221239),
        (0.199228331123259, 0.08546132476179454,
         0.15359197218710494, 0.11373340707964605, 0.02)),
    "paper_policy": (
        1.6616367596842938, 1.7279999999999998, 1.0,
        0.06900097367305326,
        (0.9189725708914196, 0.681837013227207),
        (1.0, 0.8710888116308471),
        (1.0, 0.9458754740834386),
        (0.06900097367305326, 0.08546132476179454,
         0.15359197218710494, 0.18051517067003792, 0.02)),
    "unprotected": (
        1.7452799999999995, 1.7279999999999998, 1.0,
        0.19859375,
        (0.9189725708914196, 0.9189725708914196),
        (1.0, 1.0),
        (1.0, 1.0),
        (0.19859375, 0.17083012552091106,
         0.2, 0.2, 0.02)),
    "set_fixed_line_dynamic": (
        1.550522415896462, 1.7279999999999998, 1.0,
        0.06900097367305326,
        (0.9189725708914196, 0.681837013227207),
        (1.0, 0.8710888116308471),
        (1.0, 0.760370575221239),
        (0.06900097367305326, 0.08546132476179454,
         0.15359197218710494, 0.11373340707964605, 0.02)),
}


def pin_workload():
    return generate_workload(traces_per_suite=1, length=1200,
                             suites=["specint2000", "office"], seed=9)


def penelope_pin(report):
    """The fields of a :class:`~repro.core.penelope.PenelopeReport` that
    :data:`PENELOPE_PINS` holds, in its order."""
    return (report.efficiency, report.baseline_efficiency,
            report.combined_cpi, report.adder_guardband,
            report.int_rf_bias, report.fp_rf_bias, report.scheduler_bias,
            tuple(block.guardband for block in report.block_costs))


@pytest.fixture(scope="module")
def workload():
    return pin_workload()


@pytest.mark.parametrize("name", sorted(PENELOPE_PINS))
def test_penelope_configuration_pins(name, workload):
    processor = PenelopeProcessor(protection=PIN_PROTECTIONS[name], seed=9)
    assert penelope_pin(processor.evaluate(workload)) == PENELOPE_PINS[name]
