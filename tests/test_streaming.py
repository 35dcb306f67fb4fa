"""Streaming workload pipeline: bit-identity against materialised paths.

The streaming subsystem's contract is that laziness never changes a
number: generator-backed traces, chunked trace-file readers and
interleaved multiprogram streams must produce byte-for-byte the same
uops/addresses — and therefore bit-identical core metrics and cache
counters — as their materialised twins.
"""

import dataclasses

import pytest

from repro.config import SpecError, WorkloadSpec
from repro.uarch import TraceDrivenCore
from repro.uarch.backends import Cache, CacheConfig
from repro.workloads import (
    TraceGenerator,
    generate_address_stream,
    interleave,
    iter_address_stream,
    multiprog_address_stream,
    multiprog_uop_stream,
)

CONFIG = CacheConfig(name="DL0-8K-4w", size_bytes=8 * 1024, ways=4)


def uop_dicts(uops):
    return [dataclasses.asdict(u) for u in uops]


def assert_same_core_result(lhs, rhs):
    assert lhs.uops == rhs.uops
    assert lhs.cycles == rhs.cycles
    assert (lhs.dl0.hits, lhs.dl0.misses) == (rhs.dl0.hits, rhs.dl0.misses)
    assert (lhs.dtlb.hits, lhs.dtlb.misses) == (rhs.dtlb.hits,
                                                rhs.dtlb.misses)
    assert lhs.scheduler.occupancy == rhs.scheduler.occupancy
    assert lhs.int_rf.worst_bias == rhs.int_rf.worst_bias
    assert lhs.adder_samples == rhs.adder_samples


class TestGeneratorStreaming:
    def test_stream_equals_generate(self):
        gen = TraceGenerator(seed=11)
        trace = gen.generate("multimedia", length=700, trace_index=2)
        streamed = list(gen.stream("multimedia", length=700,
                                   trace_index=2))
        assert uop_dicts(trace) == uop_dicts(streamed)

    def test_stream_validates_eagerly(self):
        with pytest.raises(ValueError, match="length"):
            TraceGenerator().stream("office", length=0)
        with pytest.raises(KeyError):
            TraceGenerator().stream("no_such_suite")

    def test_iter_address_stream_equals_list(self):
        eager = generate_address_stream("kernels", length=900, seed=4,
                                        trace_index=1)
        lazy = list(iter_address_stream("kernels", length=900, seed=4,
                                        trace_index=1))
        assert eager == lazy

    def test_iter_address_stream_validates_eagerly(self):
        with pytest.raises(ValueError, match="length"):
            iter_address_stream("office", length=-1)

    def test_core_run_accepts_generator(self):
        gen = TraceGenerator(seed=3)
        materialised = TraceDrivenCore().run(
            gen.generate("specint2000", length=600))
        streamed = TraceDrivenCore().run(
            gen.stream("specint2000", length=600))
        assert_same_core_result(materialised, streamed)

    def test_core_run_empty_iterable(self):
        result = TraceDrivenCore().run(iter(()))
        assert result.uops == 0
        assert result.cycles == 1.0

    def test_cache_replay_accepts_generator(self):
        eager = Cache(CONFIG)
        eager.replay(generate_address_stream("office", length=1500,
                                             seed=9))
        lazy = Cache(CONFIG)
        lazy.replay(iter_address_stream("office", length=1500, seed=9))
        assert eager.stats.hits == lazy.stats.hits
        assert eager.stats.misses == lazy.stats.misses
        assert eager.stats.hit_way_position == lazy.stats.hit_way_position


class TestInterleave:
    def test_round_robin_order(self):
        merged = list(interleave([iter("AAAA"), iter("BB")],
                                 slice_length=2))
        assert merged == ["A", "A", "B", "B", "A", "A"]

    def test_conserves_elements(self):
        a, b, c = list(range(10)), list(range(100, 105)), []
        for policy in ("round_robin", "random_slice"):
            merged = list(interleave([a, b, c], policy=policy,
                                     slice_length=3, seed=1))
            assert sorted(merged) == sorted(a + b + c)

    def test_random_slice_deterministic_per_seed(self):
        streams = lambda: [iter(range(40)), iter(range(100, 140))]
        first = list(interleave(streams(), policy="random_slice",
                                slice_length=4, seed=7))
        again = list(interleave(streams(), policy="random_slice",
                                slice_length=4, seed=7))
        other = list(interleave(streams(), policy="random_slice",
                                slice_length=4, seed=8))
        assert first == again
        assert first != other
        assert sorted(first) == sorted(other)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="policy"):
            interleave([[1]], policy="zigzag")
        with pytest.raises(ValueError, match="slice_length"):
            interleave([[1]], slice_length=0)
        with pytest.raises(ValueError, match="at least one"):
            interleave([])


class TestMultiprogStreams:
    def test_duplicate_suites_are_distinct_programs(self):
        merged = list(multiprog_address_stream(
            ["office", "office"], length=400, seed=5))
        assert len(merged) == 800
        first = generate_address_stream("office", length=400, seed=5,
                                        trace_index=0)
        second = generate_address_stream("office", length=400, seed=5,
                                         trace_index=1)
        assert first != second
        assert sorted(merged) == sorted(first + second)

    def test_stream_equals_materialised_through_cache(self):
        kwargs = dict(length=600, seed=2, policy="random_slice",
                      slice_length=16)
        suites = ["specint2000", "multimedia", "server"]
        materialised = list(multiprog_address_stream(suites, **kwargs))
        eager = Cache(CONFIG)
        eager.replay(materialised)
        lazy = Cache(CONFIG)
        lazy.replay(multiprog_address_stream(suites, **kwargs))
        assert eager.stats.hits == lazy.stats.hits
        assert eager.stats.misses == lazy.stats.misses

    def test_uop_stream_drives_core(self):
        kwargs = dict(length=300, seed=6, slice_length=32)
        suites = ["office", "kernels"]
        stream = multiprog_uop_stream(suites, **kwargs)
        materialised = list(multiprog_uop_stream(suites, **kwargs))
        assert len(materialised) == 600
        lazy_run = TraceDrivenCore().run(stream)
        eager_run = TraceDrivenCore().run(materialised)
        assert_same_core_result(lazy_run, eager_run)

    def test_policies_reorder_but_preserve(self):
        rr = list(multiprog_address_stream(["office", "kernels"],
                                           length=300, seed=1))
        rs = list(multiprog_address_stream(["office", "kernels"],
                                           length=300, seed=1,
                                           policy="random_slice"))
        assert rr != rs
        assert sorted(rr) == sorted(rs)


class TestWorkloadSpecInterleave:
    def test_round_trip_and_defaults(self):
        spec = WorkloadSpec(suites=("office", "kernels"),
                            interleave="random_slice", slice_length=32)
        restored = WorkloadSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert WorkloadSpec().interleave == "none"

    def test_rejects_unknown_policy_and_bad_slice(self):
        with pytest.raises(SpecError, match="interleave"):
            WorkloadSpec(interleave="zigzag")
        with pytest.raises(SpecError, match="slice_length"):
            WorkloadSpec(slice_length=0)

    def test_build_multiprog_stream_matches_direct_call(self):
        from repro import api

        spec = WorkloadSpec(suites=("office", "kernels"), length=400,
                            seed=3, interleave="random_slice",
                            slice_length=8)
        via_api = list(api.build_multiprog_stream(spec))
        direct = list(multiprog_address_stream(
            ("office", "kernels"), length=400, seed=3,
            policy="random_slice", slice_length=8))
        assert via_api == direct


class TestMultiprogStudy:
    def test_point_runs_and_reports_interference(self):
        from repro.experiments import get_study

        study = get_study("multiprog")
        metrics = study.execute({"length": 500, "suites": ("office",
                                                           "kernels")})
        assert metrics["n_programs"] == 2
        assert 0.0 <= metrics["baseline_miss_rate"] <= 1.0
        assert metrics["scheme_name"] == "LineFixed50%"
        assert metrics["inverted_ratio"] > 0.0

    def test_point_is_deterministic(self):
        from repro.experiments import get_study

        study = get_study("multiprog")
        params = {"length": 400, "seed": 9, "policy": "random_slice"}
        assert study.execute(params) == study.execute(params)

    def test_scalar_suites_param_coerced(self):
        from repro.experiments import get_study

        metrics = get_study("multiprog").execute(
            {"length": 400, "suites": "office"})
        assert metrics["n_programs"] == 1

    def test_cli_sweep_multiprog(self, capsys):
        from repro.cli import main

        assert main(["sweep", "multiprog", "--grid", "ratio=0.4,0.6",
                     "--length", "400", "--no-store",
                     "--suites", "office", "kernels"]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "LineFixed40%" in out and "LineFixed60%" in out

    def test_cli_sweep_rejects_suites_grid_axis(self, capsys):
        # --grid suites=a,b would sweep SINGLE-program points, silently
        # dropping the interference this study measures.
        from repro.cli import main

        assert main(["sweep", "multiprog",
                     "--grid", "suites=office,kernels",
                     "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "whole program set" in err and "--suites" in err

    def test_plain_workload_spec_runs_with_policy_fallback(self):
        # A StudySpec that never sets workload.interleave ("none") must
        # still run — falling back to round-robin like
        # api.build_multiprog_stream does.
        from repro import api
        from repro.config import StudySpec

        spec = StudySpec(
            "multiprog",
            workload=WorkloadSpec(suites=("office", "kernels"),
                                  length=400),
        )
        outcome = api.run_study(spec)
        assert len(outcome.results) == 1
        assert outcome.results[0].metrics["n_programs"] == 2
