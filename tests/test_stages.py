"""Stages: the work a point shares with points that differ only in
protection (DESIGN.md "Stages").

A point that reuses a stage must equal the same point run alone on an
empty memo, in any order and on any number of workers; a point that
differs in an input of a stage must not reuse it; the memo evicts the
least recently used value of each kind; clearing any of the memo's
legacy names drops every stage; concurrent lookups never fail; and a
worker forked while another thread holds the memo's lock can use it.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.experiments import SweepRunner, SweepSpec, get_study, registry
from repro.experiments.registry import cached_address_stream
from repro.experiments.runner import bind_spec_points

LENGTH = 400

#: One short grid per staged study: a protection axis x 2 seeds, so
#: each stage serves two points.
GRIDS = {
    "caches": {"ratio": [0.3, 0.6], "seed": [0, 1]},
    "invert_ratio": {"ratio": [0.3, 0.6], "seed": [0, 1]},
    "victim_policy": {"ratio": [0.3, 0.6], "seed": [0, 1]},
    "multiprog": {"ratio": [0.3, 0.6], "seed": [0, 1]},
    "regfile": {"sample_period": [256.0, 512.0], "seed": [0, 1]},
    "vmin_power": {"sample_period": [256.0, 512.0], "seed": [0, 1]},
    "penelope": {"invert_ratio": [0.3, 0.5], "seed": [0, 1]},
}

try:
    import numpy  # noqa: F401  (the vectorized backend needs it)
    HAS_NUMPY = True
except ImportError:
    HAS_NUMPY = False

_COLD = {}


def spec_of(study, reverse=False):
    grid = {axis: list(reversed(values)) if reverse else list(values)
            for axis, values in GRIDS[study].items()}
    return SweepSpec(study, base={"length": LENGTH}, grid=grid)


def cold_metrics(study):
    """Each point of the study's grid run alone on an empty memo."""
    if study not in _COLD:
        cold = {}
        for point in bind_spec_points(spec_of(study)):
            registry._STAGES.clear()
            cold[point.key] = get_study(study).execute(point.as_dict())
        _COLD[study] = cold
    return _COLD[study]


@pytest.mark.parametrize("study", sorted(GRIDS))
@pytest.mark.parametrize("order,workers,batch_size", [
    ("grid", 1, None),
    ("reversed", 1, None),
    ("grid", 2, 1),
    ("grid", 2, None),
])
def test_a_staged_point_equals_a_cold_point(study, order, workers,
                                            batch_size):
    cold = cold_metrics(study)
    registry._STAGES.clear()
    outcome = SweepRunner(workers=workers, batch_size=batch_size).run(
        spec_of(study, reverse=order == "reversed"))
    assert len(outcome) == len(cold) == 4
    for result in outcome:
        assert result.metrics == cold[result.point.key]


def counted(monkeypatch, name):
    """Wrap the registry's stage function ``name``; returns its calls."""
    calls = []
    compute = getattr(registry, name)

    def counting(*args):
        calls.append(args)
        return compute(*args)

    counting.__name__ = name
    monkeypatch.setattr(registry, name, counting)
    return calls


_CACHE_VARIANTS = [{"ways": 4}, {"size_kb": 8}, {"length": 300},
                   {"seed": 1}, {"backend": "vectorized"}]
_CORE_VARIANTS = [{"length": 300}, {"seed": 1}, {"backend": "vectorized"}]


@pytest.mark.parametrize("study,compute,protection,variants", [
    ("caches", "_cache_baseline", {"ratio": 0.3}, _CACHE_VARIANTS),
    ("invert_ratio", "_cache_baseline", {"ratio": 0.3}, _CACHE_VARIANTS),
    ("victim_policy", "_cache_baseline", {"ratio": 0.3}, _CACHE_VARIANTS),
    ("multiprog", "_multiprog_baseline", {"ratio": 0.3},
     _CACHE_VARIANTS + [{"slice_length": 32}, {"policy": "random_slice"}]),
    ("regfile", "_rf_unprotected", {"sample_period": 256.0},
     _CORE_VARIANTS),
    ("vmin_power", "_rf_unprotected", {"sample_period": 256.0},
     _CORE_VARIANTS),
    ("penelope", "_penelope_baseline", {"invert_ratio": 0.3},
     _CORE_VARIANTS),
])
def test_a_point_that_differs_in_a_stage_input_computes_its_own(
        monkeypatch, study, compute, protection, variants):
    if not HAS_NUMPY:
        variants = [v for v in variants if v.get("backend") != "vectorized"]
    calls = counted(monkeypatch, compute)
    run = get_study(study).execute
    base = {"length": LENGTH}
    run(base)
    run({**base, **protection})
    assert len(calls) == 1
    for count, variant in enumerate(variants, start=2):
        run({**base, **variant})
        assert len(calls) == count, variant


def test_the_isv_pass_is_keyed_by_sample_period_too(monkeypatch):
    unprotected = counted(monkeypatch, "_rf_unprotected")
    isv = counted(monkeypatch, "_rf_isv")
    for period in (256.0, 512.0, 256.0):
        get_study("regfile").execute({"length": LENGTH,
                                      "sample_period": period})
    # vmin_power reads the same two stages.
    get_study("vmin_power").execute({"length": LENGTH, "seed": 0,
                                     "sample_period": 512.0})
    assert len(unprotected) == 1 and len(isv) == 2


def test_eviction_is_least_recently_used_per_kind(monkeypatch):
    monkeypatch.setattr(registry, "_CACHE_CAP", 2)
    memo = registry.StageMemo()
    computed = []

    def get(key):
        return memo.get(key, lambda: computed.append(key) or key)

    for key in [("a", 1), ("a", 2), ("a", 1), ("a", 3), ("b", 1)]:
        get(key)
    # ("a", 3) evicted ("a", 2), the least recently used of its kind;
    # ("b", 1) evicted nothing.
    assert len(memo) == 3
    get(("a", 1))
    get(("a", 2))
    assert computed == [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("a", 2)]


@pytest.mark.parametrize("name", ["_TRACE_CACHE", "_STREAM_CACHE",
                                  "_RF_BIAS_CACHE"])
def test_clearing_a_legacy_name_drops_every_stage(monkeypatch, name):
    for study in GRIDS:
        get_study(study).execute({"length": 200})
    kinds = {key[0] for key in _stage_keys()}
    assert kinds == {"_trace", "_address_stream", "_cache_baseline",
                     "_multiprog_baseline", "_rf_unprotected", "_rf_isv",
                     "_penelope_baseline"}
    getattr(registry, name).clear()
    assert len(registry._STAGES) == 0
    calls = counted(monkeypatch, "_cache_baseline")
    get_study("caches").execute({"length": 200})
    assert len(calls) == 1


def _stage_keys():
    memo = registry._STAGES
    with memo._lock:
        return [key for values in memo._kinds.values() for key in values]


def test_concurrent_lookups_never_raise():
    """Four threads make 20,000 lookups each over 200 seeds, switching
    every microsecond, so lookups race other threads' evictions."""
    errors = []

    def lookups(offset):
        try:
            for index in range(20_000):
                cached_address_stream("office", 4, (offset + index) % 200)
        except Exception as exc:  # collected: a thread's error is lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lookups, args=(50 * k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_worker_forked_while_the_memo_is_locked_can_use_it():
    """A service job forks its sweep workers while another job's thread
    may be inside a lookup: the child must not inherit the lock held."""
    memo = registry._STAGES
    held = threading.Event()

    def hold():
        with memo._lock:
            held.set()
            time.sleep(0.3)

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait()
    child = multiprocessing.get_context("fork").Process(
        target=cached_address_stream, args=("office", 4, 0))
    child.start()
    child.join(timeout=20)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    holder.join()
    assert not hung, "the forked child blocked on an inherited lock"
    assert child.exitcode == 0
