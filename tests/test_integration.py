"""Cross-module integration tests: the paper's end-to-end claims."""

import pytest

np = pytest.importorskip("numpy")

from repro.analysis import merge_bias_arrays, worst_imbalance
from repro.core import (
    LineDynamicScheme,
    LineFixedScheme,
    SetFixedScheme,
    run_cache_study,
)
from repro.core.cache_like import PAPER_DYNAMIC_THRESHOLDS
from repro.core.memory_like import ISVRegisterFileProtector
from repro.uarch import CoreConfig, TraceDrivenCore
from repro.uarch.backends import CacheConfig
from repro.uarch.ports import AdderPolicy
from repro.uarch.uop import INT_WIDTH
from repro.workloads import TraceGenerator, generate_address_stream


class TestMotivationSection11:
    """Section 1.1's bias observations emerge from the substrate."""

    @pytest.fixture(scope="class")
    def results(self):
        gen = TraceGenerator(seed=31)
        cores = []
        for suite in ("specint2000", "office", "multimedia"):
            trace = gen.generate(suite, length=4000)
            cores.append(TraceDrivenCore().run(trace))
        return cores

    def test_carry_in_mostly_zero(self, results):
        cins = [v[2] for res in results for v in res.adder_samples]
        assert 1.0 - sum(cins) / len(cins) > 0.90

    def test_int_rf_bias_band(self, results):
        merged = merge_bias_arrays(
            [r.int_rf.bias_to_zero for r in results],
            weights=[r.cycles for r in results],
        )
        assert merged.min() > 0.55
        assert merged.max() < 0.95

    def test_scheduler_has_nearly_always_zero_fields(self, results):
        # "some fields of the scheduler have almost 100% zero-signal
        # probability"
        worst = max(r.scheduler.worst_bias() for r in results)
        assert worst > 0.95


class TestAdderUtilisationSection43:
    def test_uniform_vs_priority_utilisation(self):
        gen = TraceGenerator(seed=32)
        trace = gen.generate("multimedia", length=6000)
        uniform = TraceDrivenCore(
            CoreConfig(adder_policy=AdderPolicy.UNIFORM)
        ).run(trace)
        priority = TraceDrivenCore(
            CoreConfig(adder_policy=AdderPolicy.PRIORITY)
        ).run(trace)
        u_min, u_max = min(uniform.adder_utilization), max(
            uniform.adder_utilization
        )
        p_min, p_max = min(priority.adder_utilization), max(
            priority.adder_utilization
        )
        # Uniform: all adders near the mean; priority: skewed spread.
        assert u_max - u_min < p_max - p_min
        assert p_min < u_min <= u_max < p_max


class TestRegisterFileSection44:
    def test_isv_end_to_end(self):
        gen = TraceGenerator(seed=33)
        traces = [gen.generate(s, length=4000)
                  for s in ("specint2000", "office")]
        base_bias, isv_bias = [], []
        for trace in traces:
            base = TraceDrivenCore().run(trace)
            protector = ISVRegisterFileProtector("int_rf", INT_WIDTH, 256.0)
            prot = TraceDrivenCore(hooks=protector).run(trace)
            base_bias.append(base.int_rf.bias_to_zero)
            isv_bias.append(prot.int_rf.bias_to_zero)
        __, base_worst = worst_imbalance(merge_bias_arrays(base_bias))
        merged = merge_bias_arrays(isv_bias)
        isv_worst = max(float(np.maximum(merged, 1 - merged).max()), 0.5)
        base_worst = max(base_worst, 1 - base_worst)
        # Figure 6's shape: ~0.9 baseline flattened toward 0.5.
        assert base_worst > 0.85
        assert isv_worst < base_worst - 0.2


class TestCacheStudyTable3:
    """The Table 3 orderings on a reduced workload."""

    @pytest.fixture(scope="class")
    def streams(self):
        return [
            generate_address_stream(suite, length=12_000, seed=34,
                                    trace_index=i)
            for suite in ("office", "server", "kernels", "spec2006")
            for i in range(1)
        ]

    @pytest.fixture(scope="class")
    def results(self, streams):
        config = CacheConfig(name="DL0-16K-8w", size_bytes=16 * 1024,
                             ways=8)
        set_fixed = run_cache_study(
            config, lambda: SetFixedScheme(0.5), streams
        )
        line_fixed = run_cache_study(
            config, lambda: LineFixedScheme(0.5), streams
        )
        line_dynamic = run_cache_study(
            config,
            lambda: LineDynamicScheme(
                ratio=0.6, threshold=PAPER_DYNAMIC_THRESHOLDS["DL0-16K"],
                warmup=2000, test_window=2000, period=12_000,
            ),
            streams,
        )
        return set_fixed, line_fixed, line_dynamic

    def test_losses_are_small(self, results):
        for study in results:
            assert 0.0 <= study.mean_loss < 0.08

    def test_dynamic_not_worse_than_fixed(self, results):
        set_fixed, line_fixed, line_dynamic = results
        assert line_dynamic.mean_loss <= set_fixed.mean_loss + 0.002
        assert line_dynamic.mean_loss <= line_fixed.mean_loss + 0.002

    def test_line_fixed_keeps_ratio(self, results):
        __, line_fixed, __ = results
        assert line_fixed.mean_inverted_ratio > 0.35


class TestSmallerCachesLoseMore:
    def test_size_ordering(self):
        streams = [
            generate_address_stream(suite, length=8000, seed=35)
            for suite in ("office", "spec2006", "server")
        ]
        losses = []
        for kb in (32, 16, 8):
            config = CacheConfig(name=f"DL0-{kb}K-8w",
                                 size_bytes=kb * 1024, ways=8)
            study = run_cache_study(config,
                                    lambda: LineFixedScheme(0.5), streams)
            losses.append(study.mean_loss)
        # Table 3: the loss grows as the cache shrinks.
        assert losses[0] <= losses[1] <= losses[2] + 1e-9
