"""reset() audit: every MetricSource zeroes its counters on reset.

PR 2 added per-component ``reset()`` methods ad hoc; this suite drives
every stat-bearing component through the shared audit helper
(``tests/conftest.py::assert_reset_zeroes_counters``), which exercises
the component, checks the activity registered, resets, and asserts all
counters in the metric tree read zero again.  BranchPredictor and TLB —
previously untested — are covered explicitly.
"""

import random

from repro.uarch.backends import Cache, CacheConfig
from repro.workloads import TraceGenerator

CONFIG = CacheConfig(name="DL0-4K-4w", size_bytes=4 * 1024, ways=4)


def _addresses(length=1200, seed=7):
    rng = random.Random(seed)
    return [rng.randrange(1 << 14) * 64 for __ in range(length)]


class TestResetAudit:
    def test_cache(self, reset_audit):
        reset_audit(Cache(CONFIG),
                    lambda cache: cache.replay(_addresses()))

    def test_tlb(self, reset_audit):
        from repro.uarch.tlb import TLB, TLBConfig

        def exercise(tlb):
            for address in _addresses(400):
                tlb.translate(address * 16)

        reset_audit(TLB(TLBConfig(name="DTLB-32", entries=32)), exercise)

    def test_protected_cache(self, reset_audit):
        from repro.core.cache_like import LineFixedScheme, ProtectedCache

        reset_audit(
            ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5), seed=2),
            lambda protected: protected.replay(_addresses()),
        )

    def test_register_file(self, reset_audit):
        from repro.uarch.regfile import RegisterFile

        def exercise(rf):
            entry = rf.allocate(0.0)
            rf.write(entry, 0b1010, 1.0)
            rf.release(entry, 2.0)
            rf.write_special(entry, 0b0101, 3.0)

        reset_audit(RegisterFile(entries=8, width=8), exercise)

    def test_scheduler(self, reset_audit):
        from repro.uarch.scheduler import Scheduler
        from repro.uarch.uop import Uop, UopClass

        def exercise(scheduler):
            uop = Uop(seq=0, uop_class=UopClass.ALU)
            slot = scheduler.allocate(0.0)
            scheduler.fill(slot, uop, None, 0.0)
            scheduler.release(slot, 1.0)
            scheduler.write_special(slot, {"immediate": 3}, 2.0)

        reset_audit(Scheduler(entries=4), exercise)

    def test_mob(self, reset_audit):
        from repro.uarch.mob import MemoryOrderBuffer

        def exercise(mob):
            for __ in range(20):
                mob.allocate()

        reset_audit(MemoryOrderBuffer(entries=8), exercise)

    def test_bitbias_accumulator(self, reset_audit):
        from repro.uarch.bitbias import BitBiasAccumulator

        def exercise(bias):
            bias.set_value(0, 0b1100, 1.0)
            bias.set_value(0, 0b0011, 2.0)
            bias.finalize(3.0)

        reset_audit(BitBiasAccumulator(4, 4), exercise)

    def test_bimodal_predictor(self, reset_audit):
        from repro.uarch.branch_predictor import BimodalPredictor

        def exercise(predictor):
            rng = random.Random(1)
            for __ in range(200):
                predictor.update(rng.randrange(1 << 12),
                                 rng.random() < 0.7)

        reset_audit(BimodalPredictor(entries=64), exercise)

    def test_protected_bimodal_predictor(self, reset_audit):
        from repro.uarch.branch_predictor import (
            BimodalPredictor,
            ProtectedBimodalPredictor,
        )

        def exercise(protected):
            rng = random.Random(2)
            for __ in range(200):
                protected.update(rng.randrange(1 << 12),
                                 rng.random() < 0.7)

        reset_audit(
            ProtectedBimodalPredictor(BimodalPredictor(entries=64),
                                      rotation_period=64),
            exercise,
        )

    def test_trace_driven_core(self, reset_audit):
        from repro.uarch import TraceDrivenCore

        trace = TraceGenerator(seed=5).generate("specint2000", length=600)
        # run() resets on entry, so exercise WITHOUT letting run() clean
        # up afterwards, then call reset() explicitly via the audit.
        reset_audit(TraceDrivenCore(), lambda core: core.run(trace))

    def test_predictor_reset_restores_prediction_behaviour(self):
        """reset() must restore the cold table, not just the counters."""
        from repro.uarch.branch_predictor import BimodalPredictor

        predictor = BimodalPredictor(entries=16)
        for __ in range(4):
            predictor.update(0x40, True)
        assert predictor.predict(0x40) is True
        predictor.reset()
        assert predictor.predict(0x40) is False  # weak-not-taken again
        assert predictor.stats.predictions == 0
        assert predictor.bias.total_observed_time() == 0.0

    def test_protected_predictor_reset_reapplies_inverted_window(self):
        from repro.uarch.branch_predictor import (
            ProtectedBimodalPredictor,
        )

        protected = ProtectedBimodalPredictor(ratio=0.5,
                                              rotation_period=32)
        rng = random.Random(3)
        for __ in range(100):
            protected.update(rng.randrange(1 << 12), True)
        protected.reset()
        assert protected._first == 0 and protected._updates == 0
        # the window is re-inverted at index 0
        assert protected._is_inverted(0)
        assert protected.stats.predictions == 0
