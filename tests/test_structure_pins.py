"""Structure counters pinned before the register files and the scheduler
shared one entry base (:class:`repro.uarch.entries.EntryArray`).

The study digests of ``tests/test_pinned_digests.py`` cover these
counters only in part.  The values below were recorded while each
structure kept its own free list, port counters, special-write gate and
``finalize``; the shared base reproduces every one exactly, with and
without numpy.  ``scheduler.releases`` is the one metric the base added.
"""

import pytest

from repro.core.memory_like import ISVRegisterFileProtector, SchedulerProtector
from repro.core.penelope import PenelopeProcessor
from repro.uarch import TraceDrivenCore
from repro.uarch.core import CompositeHooks
from repro.uarch.uop import FP_WIDTH, INT_WIDTH
from repro.workloads import TraceGenerator

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
