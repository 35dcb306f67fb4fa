"""Tests for the trace-driven core model."""

import pytest

from repro.uarch import CoreConfig, TraceDrivenCore, bitbias
from repro.uarch.core import CompositeHooks, CoreHooks
from repro.uarch.trace import Trace
from repro.uarch.uop import Uop, UopClass
from repro.workloads import TraceGenerator


def tiny_trace(uops):
    trace = Trace(name="t", suite="test")
    for uop in uops:
        trace.append(uop)
    return trace


class TestBasicExecution:
    def test_empty_result_fields(self, small_trace):
        result = TraceDrivenCore().run(small_trace)
        assert result.uops == len(small_trace)
        assert result.cycles > 0
        assert 0.0 < result.cpi < 10.0
        assert result.ipc == pytest.approx(1.0 / result.cpi)

    def test_deterministic(self, small_trace):
        a = TraceDrivenCore().run(small_trace)
        b = TraceDrivenCore().run(small_trace)
        assert a.cycles == b.cycles
        assert a.dl0.misses == b.dl0.misses

    def test_core_is_reusable_across_runs(self, small_trace):
        # Regression: the second run() on one instance used to raise
        # "time went backwards" (stale _ready/_mapping/bias timelines).
        core = TraceDrivenCore()
        first = core.run(small_trace)
        second = core.run(small_trace)
        assert first.cycles == second.cycles
        assert first.dl0 == second.dl0
        assert first.dtlb == second.dtlb
        assert first.scheduler.allocations == second.scheduler.allocations
        assert first.scheduler.occupancy == second.scheduler.occupancy
        assert first.int_rf.allocations == second.int_rf.allocations
        assert first.int_rf.worst_bias == second.int_rf.worst_bias
        assert (list(first.int_rf.bias_to_zero)
                == list(second.int_rf.bias_to_zero))
        assert first.fp_rf.worst_bias == second.fp_rf.worst_bias
        assert first.adder_utilization == second.adder_utilization
        assert first.adder_samples == second.adder_samples

    def test_reused_core_matches_fresh_core(self, small_trace, fp_trace):
        # Interleave two different traces: each run must match what a
        # fresh core produces for that trace.
        core = TraceDrivenCore()
        mixed = [core.run(small_trace), core.run(fp_trace),
                 core.run(small_trace)]
        fresh_small = TraceDrivenCore().run(small_trace)
        fresh_fp = TraceDrivenCore().run(fp_trace)
        assert mixed[0].cycles == fresh_small.cycles
        assert mixed[1].cycles == fresh_fp.cycles
        assert mixed[2].cycles == fresh_small.cycles
        assert mixed[1].dl0 == fresh_fp.dl0

    def test_dependency_serialisation(self):
        # A chain of dependent ALU ops cannot run faster than one per
        # cycle; independent ones can.
        chain = tiny_trace([
            Uop(seq=i, uop_class=UopClass.ALU, src1=0, dst=0)
            for i in range(64)
        ])
        parallel = tiny_trace([
            Uop(seq=i, uop_class=UopClass.ALU, src1=i % 8, dst=i % 8)
            for i in range(64)
        ])
        chain_res = TraceDrivenCore().run(chain)
        parallel_res = TraceDrivenCore().run(parallel)
        assert chain_res.cycles >= 63
        assert parallel_res.cycles < chain_res.cycles

    def test_cache_misses_slow_execution(self):
        hits = tiny_trace([
            Uop(seq=i, uop_class=UopClass.LOAD, src1=0, dst=1,
                address=0x1000)
            for i in range(128)
        ])
        misses = tiny_trace([
            Uop(seq=i, uop_class=UopClass.LOAD, src1=0, dst=1,
                address=0x1000 + i * 4096 * 17)
            for i in range(128)
        ])
        fast = TraceDrivenCore().run(hits)
        slow = TraceDrivenCore().run(misses)
        assert slow.cycles > fast.cycles
        assert slow.dl0.miss_rate > fast.dl0.miss_rate

    def test_mispredict_redirect_stalls_alloc(self):
        base_uops = [
            Uop(seq=i, uop_class=UopClass.ALU, src1=i % 4, dst=i % 4)
            for i in range(100)
        ]
        clean = tiny_trace(list(base_uops))
        flushed_uops = list(base_uops)
        flushed_uops[50] = Uop(seq=50, uop_class=UopClass.BRANCH, src1=0,
                               taken=True, mispredicted=True)
        flushed = tiny_trace(flushed_uops)
        assert (TraceDrivenCore().run(flushed).cycles
                > TraceDrivenCore().run(clean).cycles)

    def test_scheduler_capacity_limits_runahead(self):
        # Long-latency producers pile up: a tiny scheduler stalls alloc.
        uops = [
            Uop(seq=i, uop_class=UopClass.MUL, src1=0, dst=0, latency=8)
            for i in range(64)
        ]
        small = TraceDrivenCore(CoreConfig(scheduler_entries=4))
        big = TraceDrivenCore(CoreConfig(scheduler_entries=32))
        assert small.run(tiny_trace(uops)).cycles >= \
            big.run(tiny_trace(uops)).cycles


class TestStatistics:
    def test_occupancies_in_range(self, small_trace):
        result = TraceDrivenCore().run(small_trace)
        assert 0.0 < result.scheduler.occupancy < 1.0
        assert 0.0 < result.int_rf.free_fraction < 1.0

    def test_adder_utilisation_tracked(self, small_trace):
        result = TraceDrivenCore().run(small_trace)
        assert len(result.adder_utilization) == 4
        assert all(0.0 <= u <= 1.0 for u in result.adder_utilization)
        assert result.adder_samples  # reservoir collected vectors

    def test_carry_in_bias_matches_motivation(self, small_trace):
        # Section 1.1: the adder carry-in is "0" more than 90% of the time.
        result = TraceDrivenCore().run(small_trace)
        cins = [v[2] for v in result.adder_samples]
        assert 1.0 - sum(cins) / len(cins) > 0.9

    def test_int_bias_band_matches_motivation(self):
        # Section 1.1: INT RF zero bias between 65% and 90% for all bits
        # (wide tolerance: short traces carry warmup noise).
        trace = TraceGenerator(seed=2).generate("specint2000", length=4000)
        result = TraceDrivenCore().run(trace)
        bias = result.int_rf.bias_to_zero
        assert min(bias) > 0.55
        assert max(bias) < 0.97

    def test_mob_ids_evenly_used(self, small_trace):
        core = TraceDrivenCore()
        core.run(small_trace)
        assert core.mob.usage_imbalance() < 1.5


class TestHooks:
    def test_hooks_fire(self, small_trace):
        events = {"rf_write": 0, "rf_release": 0, "fill": 0, "release": 0}

        class Counter(CoreHooks):
            def on_regfile_write(self, rf, entry, value, now):
                events["rf_write"] += 1

            def on_regfile_release(self, rf, entry, now):
                events["rf_release"] += 1

            def on_scheduler_fill(self, sched, slot, uop, now):
                events["fill"] += 1

            def on_scheduler_release(self, sched, slot, now):
                events["release"] += 1

        TraceDrivenCore(hooks=Counter()).run(small_trace)
        assert events["fill"] == len(small_trace)
        assert events["release"] == len(small_trace)
        assert events["rf_write"] > 0
        assert events["rf_release"] > 0

    def test_composite_hooks_fan_out(self, small_trace):
        counts = [0, 0]

        class Counter(CoreHooks):
            def __init__(self, index):
                self.index = index

            def on_scheduler_fill(self, sched, slot, uop, now):
                counts[self.index] += 1

        hooks = CompositeHooks([Counter(0), Counter(1)])
        TraceDrivenCore(hooks=hooks).run(small_trace)
        assert counts[0] == counts[1] == len(small_trace)

    def test_cache_override(self, small_trace):
        class CountingCache:
            def __init__(self):
                self.calls = 0

            def access(self, address):
                self.calls += 1
                return True

            def translate(self, address):
                self.calls += 1
                return True

            stats = None

        dl0 = CountingCache()
        dtlb = CountingCache()
        TraceDrivenCore(dl0=dl0, dtlb=dtlb).run(small_trace)
        assert dl0.calls > 0
        assert dtlb.calls > 0


class PortCounterSizes(CoreHooks):
    """Samples the largest per-cycle port counter of a core."""

    def __init__(self):
        self.core = None
        self.fills = 0
        self.largest = 0

    def on_scheduler_fill(self, sched, slot, uop, now):
        self.fills += 1
        if self.fills % 256 == 0:
            core = self.core
            self.largest = max(self.largest, len(core._issue_use),
                               len(core.scheduler.port_use),
                               len(core.int_rf.port_use),
                               len(core.fp_rf.port_use))


class TestPortCounters:
    @pytest.mark.parametrize("suite,length,pinned", [
        # port_free_fraction of scheduler, int_rf and fp_rf, recorded
        # before the counters were pruned.
        ("specint2000", 80_000, (0.959625, 0.9372890645282257, 1.0)),
        ("specfp2000", 10_000,
         (0.9588, 0.9972677595628415, 0.9871508379888269)),
    ])
    def test_bounded_on_long_streams(self, suite, length, pinned):
        from repro.core.memory_like import (
            ISVRegisterFileProtector,
            SchedulerProtector,
        )
        from repro.uarch.uop import FP_WIDTH, INT_WIDTH

        sizes = PortCounterSizes()
        core = TraceDrivenCore(hooks=CompositeHooks([
            ISVRegisterFileProtector("int_rf", INT_WIDTH),
            ISVRegisterFileProtector("fp_rf", FP_WIDTH),
            SchedulerProtector(), sizes,
        ]))
        sizes.core = core
        result = core.run(TraceGenerator(seed=7).stream(suite, length=length))
        assert 0 < sizes.largest <= 2048
        assert (result.scheduler.port_free_fraction,
                result.int_rf.port_free_fraction,
                result.fp_rf.port_free_fraction) == pinned


class TestConfigValidation:
    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            CoreConfig(alloc_width=0)
        with pytest.raises(ValueError):
            CoreConfig(scheduler_entries=0)

    @pytest.mark.parametrize("name,value", [
        ("rob_entries", 0), ("rob_entries", -3), ("retire_width", 0),
        # Unchecked, a fractional ROB or register count died mid-run
        # with a TypeError and a fractional width ran silently.
        ("rob_entries", 2.5), ("int_regs", 100.5), ("alloc_width", 2.5),
        ("mob_entries", 0), ("n_adders", True),
    ])
    def test_rejects_empty_rob_and_retire_width(self, name, value):
        # Unchecked, these died on the first uop (ZeroDivisionError,
        # IndexError) or ran silently.
        with pytest.raises(ValueError,
                           match=f"{name} must be a positive integer"):
            CoreConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [
        pytest.param("redirect_penalty", -1, id="redirect_penalty"),
        pytest.param("dl0_miss_penalty", -1, id="dl0_miss_penalty"),
        pytest.param("dtlb_miss_penalty", -1, id="dtlb_miss_penalty"),
        ("dl0_miss_penalty", 0.3), ("dtlb_miss_penalty", 20.1),
    ])
    def test_rejects_negative_penalties(self, name, value, small_trace):
        with pytest.raises(ValueError,
                           match=f"{name} must be a non-negative integer"):
            CoreConfig(**{name: value})
        result = TraceDrivenCore(CoreConfig(**{name: 0})).run(small_trace)
        assert result.uops == len(small_trace)

    @pytest.mark.parametrize("penalties", [
        {}, {"dl0_miss_penalty": 7, "dtlb_miss_penalty": 21},
    ])
    def test_integer_penalties_keep_bias_independent_of_fold_size(
            self, penalties, monkeypatch):
        # Whole-cycle event times are what lets bias accounting regroup
        # exactly; fractional penalties (0.3, 20.1) changed these biases
        # between fold sizes 256 and 4 before they were rejected.
        trace = TraceGenerator(seed=1).generate("specint2000", length=2000)
        config = CoreConfig(**penalties)
        biases = []
        for fold in (bitbias.FOLD_KEYS, 4):
            monkeypatch.setattr(bitbias, "FOLD_KEYS", fold)
            result = TraceDrivenCore(config).run(trace)
            biases.append((list(result.int_rf.bias_to_zero),
                           list(result.scheduler.flattened_bias())))
        assert biases[0] == biases[1]


class TestErrorPaths:
    def test_register_file_exhaustion(self, small_trace):
        # 24 architectural int registers cannot all be mapped onto 8.
        with pytest.raises(RuntimeError,
                           match="^int_rf exhausted: trace holds too many"):
            TraceDrivenCore(CoreConfig(int_regs=8)).run(small_trace)

    def test_oversize_result_value(self):
        trace = tiny_trace([
            Uop(seq=0, uop_class=UopClass.ALU, src1=1, dst=2,
                result_value=7),
            Uop(seq=1, uop_class=UopClass.ALU, src1=2, dst=3,
                result_value=1 << 32),
        ])
        with pytest.raises(ValueError, match="does not fit in 32 bits"):
            TraceDrivenCore().run(trace)
