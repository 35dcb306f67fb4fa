"""Simulation-kernel hot-path performance (tracked since PR 2).

Measures µs/access of the cache replay under each inversion scheme, the
trace-driven core's replay throughput, and (since PR 4) the trace-IO
path — v1 JSONL vs the packed v2 format, save/load/stream — and writes
the numbers as JSON artefacts so the perf trajectory is visible across
commits.

Reference point (PR 2's motivating bug): before the O(1) INVCOUNT /
shadow counters, `LineFixed50%` replay cost ~107 µs/access against a
~7 µs/access baseline (15x), because `maintain()` rescanned all
sets x ways lines on every access.  After the overhaul the protected
replay must stay within a small constant factor of the baseline.
"""

import os
import random
import tempfile
import time

import pytest

from repro.analysis import format_series, format_table
from repro.core.cache_like import (
    LineDynamicScheme,
    LineFixedScheme,
    ProtectedCache,
    SetFixedScheme,
)
from repro.metrics import IntervalTelemetry
from repro.uarch import TraceDrivenCore
from repro.uarch.backends import Cache, CacheConfig
from repro.workloads import TraceGenerator

from conftest import SMOKE, scaled, write_result

#: Uniform random addresses over a footprint >> cache size: the
#: miss-heavy worst case that made the INVCOUNT rescan pathological.
STREAM_LENGTH = scaled(200_000, floor=5_000)
TRACE_LENGTH = scaled(20_000, floor=2_000)

#: Pre-overhaul measurement on the reference machine (see module doc).
PRE_PR_LINE_FIXED_US = 107.0

#: Protected replay must stay within this factor of the baseline
#: (pre-overhaul it was 15x; post-overhaul ~1.6-2.0x; with the line
#: schemes on the scalar kernel ``Cache.replay_inverting`` and SetFixed
#: on plain replay segments ~1.0x — 6x leaves headroom for noisy CI
#: machines while still catching an O(lines) regression).
MAX_PROTECTED_OVERHEAD = 6.0

#: Interval-telemetry collection (chunked replay + periodic MetricSet
#: snapshots) must stay within this fraction of the plain seed-counter
#: replay — the metrics API is pull-based, so the hot path pays only
#: chunk bookkeeping, not per-access instrumentation.
MAX_METRICS_OVERHEAD = 0.05

#: The execution tracer (PR 6) gates: disabled it is one attribute
#: test per replay call (<1% on the seed-counter replay), enabled it
#: records one span per chunk, never per access (<5%).
MAX_TRACE_DISABLED_OVERHEAD = 0.01
MAX_TRACE_ENABLED_OVERHEAD = 0.05

#: Accesses per traced chunk in the overhead bench — the same batch
#: granularity the sweep runner traces at.
TRACE_CHUNK = 2_000

CONFIG = CacheConfig(name="DL0-32K-8w", size_bytes=32 * 1024, ways=8)


def uniform_stream(length: int, seed: int = 42):
    rng = random.Random(seed)
    line_bytes = CONFIG.line_bytes
    return [rng.randrange(1 << 20) * line_bytes for __ in range(length)]


def us_per_access(target, stream) -> float:
    start = time.perf_counter()
    target.replay(stream)
    return (time.perf_counter() - start) * 1e6 / len(stream)


def run_kernel_perf():
    stream = uniform_stream(STREAM_LENGTH)
    timings = {
        "baseline": us_per_access(Cache(CONFIG), stream),
        "SetFixed50%": us_per_access(
            ProtectedCache(Cache(CONFIG), SetFixedScheme(0.5)), stream),
        "LineFixed50%": us_per_access(
            ProtectedCache(Cache(CONFIG), LineFixedScheme(0.5)), stream),
        "LineDynamic60%": us_per_access(
            ProtectedCache(Cache(CONFIG), LineDynamicScheme(0.6)), stream),
    }

    trace = TraceGenerator(seed=7).generate("specint2000",
                                            length=TRACE_LENGTH)
    core = TraceDrivenCore()
    start = time.perf_counter()
    first = core.run(trace)
    core_elapsed = time.perf_counter() - start
    second = core.run(trace)  # reusable-core check rides along
    throughput = len(trace) / core_elapsed
    return timings, throughput, first, second


def _best_of(n, func, *args):
    """Minimum wall time of ``n`` calls (noise-resistant CI timing)."""
    best = float("inf")
    for __ in range(n):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def run_traceio_perf():
    from repro.uarch.traceio import load_trace, save_trace, stream_trace

    trace = TraceGenerator(seed=11).generate("specint2000",
                                             length=TRACE_LENGTH)
    with tempfile.TemporaryDirectory() as tmp:
        v1 = os.path.join(tmp, "trace_v1.jsonl")
        v2 = os.path.join(tmp, "trace_v2.jsonl")
        save_v1 = _best_of(3, save_trace, trace, v1, 1)
        save_v2 = _best_of(3, save_trace, trace, v2)
        sizes = {"v1": os.path.getsize(v1), "v2": os.path.getsize(v2)}
        load_v1 = _best_of(3, load_trace, v1)
        load_v2 = _best_of(3, load_trace, v2)
        stream_v2 = _best_of(3, lambda p: sum(1 for __ in stream_trace(p)),
                             v2)
        # Correctness rides along: both formats restore the same trace.
        assert len(load_trace(v1)) == len(load_trace(v2)) == len(trace)
    return {
        "uops": len(trace),
        "bytes": sizes,
        "save_s": {"v1": save_v1, "v2": save_v2},
        "load_s": {"v1": load_v1, "v2": load_v2},
        "stream_v2_s": stream_v2,
    }


def test_perf_traceio(benchmark):
    """v2 packed trace files must stay smaller AND faster to load."""
    perf = benchmark.pedantic(run_traceio_perf, rounds=1, iterations=1)

    # The size cut is scale-independent: the packed records drop every
    # repeated key, so v2 regressing above ~2/3 of v1 means the format
    # rotted back towards objects.
    assert perf["bytes"]["v2"] * 1.5 < perf["bytes"]["v1"], perf
    # Load-time ordering is only stable with enough records to time.
    if perf["uops"] >= 2000:
        assert perf["load_s"]["v2"] < perf["load_s"]["v1"], perf

    rows = [
        ["v1 JSONL", f"{perf['bytes']['v1']:,}",
         f"{perf['save_s']['v1'] * 1e3:.1f}",
         f"{perf['load_s']['v1'] * 1e3:.1f}"],
        ["v2 packed", f"{perf['bytes']['v2']:,}",
         f"{perf['save_s']['v2'] * 1e3:.1f}",
         f"{perf['load_s']['v2'] * 1e3:.1f}"],
        ["v2 stream_trace", "-", "-",
         f"{perf['stream_v2_s'] * 1e3:.1f}"],
    ]
    text = format_table(
        ["format", "bytes", "save ms", "load ms"], rows,
        title=f"trace-IO perf ({perf['uops']} uops per trace file)",
    )
    text += (f"\nv2 size {perf['bytes']['v2'] / perf['bytes']['v1']:.2f}x"
             f" of v1; v2 load "
             f"{perf['load_s']['v1'] / max(perf['load_s']['v2'], 1e-9):.2f}x"
             f" faster")
    write_result("perf_traceio.txt", text, data={**perf, "smoke": SMOKE})


def run_metrics_overhead():
    """Plain replay vs interval-telemetry replay of the same stream."""
    stream = uniform_stream(STREAM_LENGTH, seed=43)
    every = max(2_000, STREAM_LENGTH // 10)

    def plain():
        Cache(CONFIG).replay(stream)

    last = {}

    def instrumented():
        telemetry = IntervalTelemetry(Cache(CONFIG), every=every)
        telemetry.replay(stream)
        # runs are deterministic, so the last timed run's telemetry
        # doubles as the correctness/artefact sample for free.
        last["telemetry"] = telemetry

    plain_s = _best_of(5, plain)
    instrumented_s = _best_of(5, instrumented)
    reference = Cache(CONFIG)
    reference.replay(stream)
    return plain_s, instrumented_s, last["telemetry"], reference


def test_perf_metrics_overhead(benchmark):
    """Interval telemetry must cost <5% over the seed counters."""
    plain_s, instrumented_s, telemetry, reference = benchmark.pedantic(
        run_metrics_overhead, rounds=1, iterations=1
    )
    overhead = instrumented_s / plain_s - 1.0

    # Correctness rides along: the chunked, snapshotting replay is
    # bit-identical to one replay call, interval deltas telescope to
    # the end-of-run totals, and a streaming run yields >= 2 intervals.
    totals = telemetry.totals()
    assert totals["misses"] == reference.stats.misses
    assert totals["hits"] == reference.stats.hits
    deltas = telemetry.deltas()
    assert len(deltas) >= 2
    assert sum(d["misses"] for d in deltas) == reference.stats.misses

    # The 5% gate only means anything on full-size, non-smoke timing.
    if not SMOKE and STREAM_LENGTH >= 100_000:
        assert overhead < MAX_METRICS_OVERHEAD, (
            f"metrics collection costs {overhead:.1%} on the hot "
            f"replay path (plain {plain_s:.4f}s vs instrumented "
            f"{instrumented_s:.4f}s)"
        )

    text = format_table(
        ["target", "seconds", "vs plain"],
        [
            ["plain replay", f"{plain_s:.4f}", "1.00x"],
            ["interval telemetry", f"{instrumented_s:.4f}",
             f"{instrumented_s / plain_s:.2f}x"],
        ],
        title=(f"metrics-collection overhead ({STREAM_LENGTH} accesses, "
               f"{len(telemetry.snapshots)} snapshots)"),
    )
    text += "\n\n" + format_series(
        {k: float(v) for k, v in telemetry.series("misses").items()},
        title="dl0 misses per interval", percent=False,
    )
    write_result("perf_metrics_intervals.txt", text, data={
        "stream_length": STREAM_LENGTH,
        "plain_s": plain_s,
        "instrumented_s": instrumented_s,
        "overhead_frac": overhead,
        "telemetry": telemetry.to_payload(),
        "smoke": SMOKE,
    })


def run_trace_overhead():
    """Chunked seed-counter replay, three ways: untraced, traced-but-
    disabled, traced-and-enabled.  Identical chunk lists, so the only
    difference between the drivers is the tracer itself."""
    from repro.obs.trace import TRACER

    stream = uniform_stream(STREAM_LENGTH, seed=44)
    chunks = [stream[i:i + TRACE_CHUNK]
              for i in range(0, len(stream), TRACE_CHUNK)]

    def untraced():
        cache = Cache(CONFIG)
        for chunk in chunks:
            cache.replay(chunk)
        return cache

    def chunk_traced():
        cache = Cache(CONFIG)
        for chunk in chunks:
            _t = TRACER.begin()
            cache.replay(chunk)
            if _t is not None:
                TRACER.end(_t, "bench.chunk", accesses=len(chunk))
        return cache

    was_enabled = TRACER.enabled
    try:
        TRACER.disable()
        base_s = _best_of(5, untraced)
        disabled_s = _best_of(5, chunk_traced)
        reference = untraced()
        disabled_cache = chunk_traced()
        TRACER.enable()
        TRACER.clear()
        enabled_s = _best_of(5, chunk_traced)
        TRACER.clear()
        enabled_cache = chunk_traced()
        span_count = len(TRACER)
    finally:
        TRACER.clear()
        if was_enabled:
            TRACER.enable()
        else:
            TRACER.disable()
    return (base_s, disabled_s, enabled_s, span_count,
            reference, disabled_cache, enabled_cache)


def test_perf_trace_overhead(benchmark):
    """Tracing must cost <1% disabled and <5% enabled vs the plain
    seed-counter replay — and must not change a single counter bit."""
    (base_s, disabled_s, enabled_s, span_count, reference,
     disabled_cache, enabled_cache) = benchmark.pedantic(
        run_trace_overhead, rounds=1, iterations=1
    )
    disabled_overhead = disabled_s / base_s - 1.0
    enabled_overhead = enabled_s / base_s - 1.0

    # Correctness rides along: the bit-identity differential.  The
    # replays are deterministic, so every counter must agree whether
    # the region was untraced, traced-disabled, or traced-enabled.
    for cache in (disabled_cache, enabled_cache):
        assert cache.stats.hits == reference.stats.hits
        assert cache.stats.misses == reference.stats.misses
    # Enabled tracing recorded one explicit span per chunk plus the
    # cache.replay instrumentation span each replay call emits.
    assert span_count == 2 * len(range(0, STREAM_LENGTH, TRACE_CHUNK))

    # The gates only mean anything on full-size, non-smoke timing.
    if not SMOKE and STREAM_LENGTH >= 100_000:
        assert disabled_overhead < MAX_TRACE_DISABLED_OVERHEAD, (
            f"disabled tracer costs {disabled_overhead:.2%} on the hot "
            f"replay path (base {base_s:.4f}s vs {disabled_s:.4f}s) — "
            f"begin()/end() must stay allocation-free when off"
        )
        assert enabled_overhead < MAX_TRACE_ENABLED_OVERHEAD, (
            f"enabled tracer costs {enabled_overhead:.2%} at chunk "
            f"granularity (base {base_s:.4f}s vs {enabled_s:.4f}s)"
        )

    text = format_table(
        ["target", "seconds", "vs untraced"],
        [
            ["untraced replay", f"{base_s:.4f}", "1.00x"],
            ["tracer disabled", f"{disabled_s:.4f}",
             f"{disabled_s / base_s:.3f}x"],
            ["tracer enabled", f"{enabled_s:.4f}",
             f"{enabled_s / base_s:.3f}x"],
        ],
        title=(f"tracer overhead ({STREAM_LENGTH} accesses in "
               f"{TRACE_CHUNK}-access chunks, {span_count} spans "
               f"when enabled)"),
    )
    write_result("perf_trace_overhead.txt", text, data={
        "stream_length": STREAM_LENGTH,
        "chunk": TRACE_CHUNK,
        "base_s": base_s,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "disabled_overhead_frac": disabled_overhead,
        "enabled_overhead_frac": enabled_overhead,
        "spans_recorded": span_count,
        "smoke": SMOKE,
    })


def run_slots_bench():
    """Uop allocation/access timing after the ``__slots__`` migration.

    PR 7's HOT001 lint rule forced ``__slots__`` onto every hot-path
    class; this bench pins down that the migration did not regress the
    two things slots touch — instance construction and attribute reads —
    by timing the slotted :class:`Uop` against a field-identical
    ``__dict__``-based twin built on the fly.
    """
    from dataclasses import fields as dc_fields, make_dataclass

    from repro.uarch.uop import Uop, UopClass

    DictUop = make_dataclass(
        "DictUop",
        [(f.name, f.type, f) for f in dc_fields(Uop)],
        # Same validation cost as the real Uop — without this the twin
        # skips __post_init__ and the comparison is meaningless.
        namespace={"__post_init__": Uop.__post_init__},
        slots=False,
    )
    n = scaled(50_000, floor=5_000)

    def build(cls):
        return [
            cls(seq=i, uop_class=UopClass.ALU, src1_value=i,
                src2_value=i ^ 0xFF)
            for i in range(n)
        ]

    def read(uops):
        total = 0
        for uop in uops:
            total += uop.src1_value + uop.src2_value + uop.latency
        return total

    slotted = build(Uop)
    dict_based = build(DictUop)
    construct_slots_s = _best_of(3, build, Uop)
    construct_dict_s = _best_of(3, build, DictUop)
    read_slots_s = _best_of(3, read, slotted)
    read_dict_s = _best_of(3, read, dict_based)
    return {
        "uops": n,
        "construct_s": {"slots": construct_slots_s,
                        "dict": construct_dict_s},
        "read_s": {"slots": read_slots_s, "dict": read_dict_s},
        "construct_ratio": construct_slots_s / construct_dict_s,
        "read_ratio": read_slots_s / read_dict_s,
    }


def test_perf_slots(benchmark):
    """Slotted Uop must not be slower than a __dict__ twin (+noise)."""
    from repro.uarch.uop import Uop, UopClass

    perf = benchmark.pedantic(run_slots_bench, rounds=1, iterations=1)

    # Structural check is exact regardless of machine noise: the slots
    # migration actually removed per-instance dicts.
    probe = Uop(seq=0, uop_class=UopClass.NOP)
    assert not hasattr(probe, "__dict__")

    # Timing check: slots are expected at-or-below dict cost; 1.3x
    # headroom absorbs CI jitter without letting a real regression
    # (e.g. an accidental __getattr__ indirection) through.
    if not SMOKE:
        assert perf["construct_ratio"] <= 1.3, perf
        assert perf["read_ratio"] <= 1.3, perf

    rows = [
        ["construct", f"{perf['construct_s']['slots'] * 1e3:.2f} ms",
         f"{perf['construct_s']['dict'] * 1e3:.2f} ms",
         f"{perf['construct_ratio']:.2f}x"],
        ["read 3 attrs", f"{perf['read_s']['slots'] * 1e3:.2f} ms",
         f"{perf['read_s']['dict'] * 1e3:.2f} ms",
         f"{perf['read_ratio']:.2f}x"],
    ]
    text = format_table(
        ["operation", "slots", "__dict__", "slots/dict"], rows,
        title=f"Uop __slots__ micro-bench ({perf['uops']} uops)",
    )
    write_result("perf_slots.txt", text, data={**perf, "smoke": SMOKE})


def test_perf_kernel(benchmark):
    timings, core_uops_per_s, first, second = benchmark.pedantic(
        run_kernel_perf, rounds=1, iterations=1
    )

    # A reused core replays the same trace bit-exactly.
    assert first.cycles == second.cycles
    assert first.dl0.misses == second.dl0.misses
    # The overhead ratio is scale-independent (unlike the other
    # benches' shape anchors), so assert it even in scaled runs — as
    # long as the stream is long enough for stable timing.
    if STREAM_LENGTH >= 20_000:
        for scheme in ("SetFixed50%", "LineFixed50%", "LineDynamic60%"):
            assert timings[scheme] <= (
                timings["baseline"] * MAX_PROTECTED_OVERHEAD
            ), f"{scheme} replay regressed to O(lines)-like cost: {timings}"

    rows = [
        [name, f"{us:.2f}",
         f"{us / timings['baseline']:.2f}x"]
        for name, us in timings.items()
    ]
    rows.append(["core replay", f"{core_uops_per_s:,.0f} uops/s", "-"])
    text = format_table(
        ["target", "us/access", "vs baseline"], rows,
        title=(f"kernel hot-path perf ({STREAM_LENGTH} uniform accesses "
               f"on {CONFIG.name})"),
    )
    text += (f"\npre-overhaul reference: LineFixed50% "
             f"~{PRE_PR_LINE_FIXED_US:.0f} us/access (15x baseline)")
    write_result("perf_kernel.txt", text, data={
        "stream_length": STREAM_LENGTH,
        "trace_length": TRACE_LENGTH,
        "us_per_access": timings,
        "core_uops_per_s": core_uops_per_s,
        "protected_overhead_vs_baseline": {
            name: us / timings["baseline"] for name, us in timings.items()
        },
        "speedup_vs_pre_pr_line_fixed": (
            PRE_PR_LINE_FIXED_US / timings["LineFixed50%"]
        ),
        "smoke": SMOKE,
    })


#: Many-set geometry where batching pays: 512 sets at 4 ways spread a
#: uniform stream thin enough that the vectorized backend's set-parallel
#: time-slicing amortises the materialise/write-back overhead.
BACKEND_CONFIG = CacheConfig(name="DL0-128K-4w",
                             size_bytes=128 * 1024, ways=4)

#: CI gate: the ``"vectorized"`` backend must hold at least this
#: speedup over ``"reference"`` on the protected many-set replay
#: (measured ~7-8x on the reference machine; 5x leaves noise headroom
#: while still catching a batching regression).
MIN_VECTORIZED_SPEEDUP = 5.0


def run_backend_perf():
    from repro.uarch.backends import get_backend

    stream = uniform_stream(STREAM_LENGTH, seed=45)
    elapsed = {}
    hits = {}
    snapshots = {}
    for name in ("reference", "vectorized"):
        engine = get_backend(name)

        def plain():
            cache = engine.make_cache(BACKEND_CONFIG)
            hits[name, "plain"] = cache.replay(stream)
            snapshots[name, "plain"] = cache.metrics().flatten()

        def protected():
            target = ProtectedCache(engine.make_cache(BACKEND_CONFIG),
                                    SetFixedScheme(0.5), seed=1)
            hits[name, "protected"] = target.replay(stream)
            snapshots[name, "protected"] = (
                target.cache.metrics().flatten()
            )

        elapsed[name, "plain"] = _best_of(3, plain)
        elapsed[name, "protected"] = _best_of(3, protected)
    return elapsed, hits, snapshots


def test_perf_backend(benchmark):
    """The vectorized engine must beat the reference engine by
    :data:`MIN_VECTORIZED_SPEEDUP` on the many-set protected replay,
    while staying bit-identical (DESIGN.md section 10)."""
    pytest.importorskip("numpy")
    elapsed, hits, snapshots = benchmark.pedantic(
        run_backend_perf, rounds=1, iterations=1
    )

    # Bit-exactness rides along: hit counts and every flattened metric
    # agree between the two engines, timed runs included.
    for path in ("plain", "protected"):
        assert hits["reference", path] == hits["vectorized", path], path
        assert snapshots["reference", path] == \
            snapshots["vectorized", path], path

    speedup = {
        path: (elapsed["reference", path]
               / max(elapsed["vectorized", path], 1e-12))
        for path in ("plain", "protected")
    }
    # The ratio is scale-independent; only require enough accesses for
    # stable timing (both CI bench legs run at or above this length).
    if STREAM_LENGTH >= 20_000:
        assert speedup["protected"] >= MIN_VECTORIZED_SPEEDUP, (
            f"vectorized backend regressed below "
            f"{MIN_VECTORIZED_SPEEDUP}x: {speedup}"
        )

    rows = [
        [path,
         f"{elapsed['reference', path] * 1e6 / STREAM_LENGTH:.2f}",
         f"{elapsed['vectorized', path] * 1e6 / STREAM_LENGTH:.2f}",
         f"{speedup[path]:.2f}x"]
        for path in ("plain", "protected")
    ]
    text = format_table(
        ["replay", "reference us/acc", "vectorized us/acc", "speedup"],
        rows,
        title=(f"backend perf ({STREAM_LENGTH} uniform accesses on "
               f"{BACKEND_CONFIG.name}, SetFixed50% protected)"),
    )
    text += (f"\ngate: protected speedup >= "
             f"{MIN_VECTORIZED_SPEEDUP:.0f}x (bit-identical outputs "
             f"asserted on every run)")
    write_result("perf_backend.txt", text, data={
        "stream_length": STREAM_LENGTH,
        "config": BACKEND_CONFIG.name,
        "elapsed_s": {
            f"{name}_{path}": elapsed[name, path]
            for name, path in elapsed
        },
        "speedup": speedup,
        "min_required_speedup": MIN_VECTORIZED_SPEEDUP,
        "smoke": SMOKE,
    })


STORE_RECORDS = scaled(10_000, floor=2_000)


def run_store_perf():
    from repro.experiments.spec import point_key
    from repro.fabric.io import append_record
    from repro.fabric.store import ShardedResultStore, StoredResult

    n = STORE_RECORDS
    studies = ["office", "kernels", "media", "mixed"]
    with tempfile.TemporaryDirectory() as tmp:
        flat_path = os.path.join(tmp, "records.jsonl")
        records = []
        for i in range(n):
            study = studies[i % len(studies)]
            params = {"i": i, "ratio": (i % 10) / 10.0}
            records.append(StoredResult(
                key=point_key(study, params),
                study=study,
                params=params,
                metrics={"ipc": 1.0 + (i % 7) * 0.01},
                elapsed=0.001,
                created=float(i),
            ))
        append_record(flat_path, "".join(
            r.to_json() + "\n" for r in records).encode("utf-8"))
        office = [r for r in records if r.study == "office"]
        probe = office[len(office) // 2].key
        flat_bytes = os.path.getsize(flat_path)

        # Baseline: the same records in one JSONL file, where every
        # lookup is a full-file parse.
        def flat_latest():
            with open(flat_path, encoding="utf-8") as handle:
                return {r.key: r for r in map(StoredResult.from_json,
                                              handle)}

        def flat_open_get():
            assert flat_latest().get(probe) is not None

        def flat_open_query():
            return sum(r.study == "office" for r in flat_latest().values())

        flat_get = _best_of(3, flat_open_get)
        flat_query = _best_of(3, flat_open_query)

        sharded_dir = os.path.join(tmp, "sharded")
        start = time.perf_counter()
        sharded = ShardedResultStore(sharded_dir)
        for record in records:
            sharded.put_record(record)
        fill_s = time.perf_counter() - start
        stored = len(sharded)
        expect_office = len(sharded.records("office"))
        sharded.close()

        # Sharded store: open stats the shards; a lookup reads and
        # searches one shard, a study query parses every shard but only
        # the lines holding the study's bytes.
        def sharded_open_get():
            store = ShardedResultStore(sharded_dir)
            try:
                assert store.get(probe) is not None
            finally:
                store.close()

        def sharded_open_query():
            store = ShardedResultStore(sharded_dir)
            try:
                count = len(store.records("office"))
            finally:
                store.close()
            assert count == expect_office
            return count

        sharded_get = _best_of(3, sharded_open_get)
        sharded_query = _best_of(3, sharded_open_query)

        # Correctness rides along: the store kept every record.
        assert expect_office == flat_open_query()
    return {
        "records": n,
        "stored": stored,
        "flat_bytes": flat_bytes,
        "fill_s": fill_s,
        "open_get_s": {"flat": flat_get, "sharded": sharded_get},
        "open_query_s": {"flat": flat_query, "sharded": sharded_query},
    }


def test_perf_store(benchmark):
    """Sharded lookups and queries must beat re-parsing every record
    from one JSONL file."""
    perf = benchmark.pedantic(run_store_perf, rounds=1, iterations=1)

    assert perf["stored"] == perf["records"], perf
    # Timing ordering is only stable with enough records to measure; the
    # margin is structural (O(1) open vs O(records) rescan), so it holds
    # at the CI floor too.
    if perf["records"] >= 2000:
        assert perf["open_get_s"]["sharded"] < perf["open_get_s"]["flat"], perf
        assert (perf["open_query_s"]["sharded"]
                < perf["open_query_s"]["flat"]), perf

    rows = [
        ["flat rescan", f"{perf['open_get_s']['flat'] * 1e3:.2f}",
         f"{perf['open_query_s']['flat'] * 1e3:.2f}"],
        ["sharded", f"{perf['open_get_s']['sharded'] * 1e3:.2f}",
         f"{perf['open_query_s']['sharded'] * 1e3:.2f}"],
    ]
    text = format_table(
        ["store", "open+get ms", "open+query ms"], rows,
        title=(f"result-store perf ({perf['records']:,} records, "
               f"{perf['flat_bytes']:,} flat bytes)"),
    )
    text += (f"\nfilling the sharded store: {perf['fill_s'] * 1e3:.1f} ms; "
             f"sharded lookup "
             f"{perf['open_get_s']['flat'] / max(perf['open_get_s']['sharded'], 1e-9):.1f}x"
             f" faster than flat rescan")
    write_result("perf_store.txt", text, data={**perf, "smoke": SMOKE})


#: Vectors aged per Penelope evaluation (``PenelopeProcessor`` samples
#: at most this many real adder inputs).
AGING_VECTORS = 256

#: CI gate: bit-sliced aging of the default 32-bit adder must beat the
#: per-vector gate walk by at least this factor (measured ~75x on a
#: 2-vCPU host under Python 3.11, 357 ms -> 4.7 ms; 10x leaves noise
#: headroom while still catching a fall back to per-vector walks).
MIN_PACKED_AGING_SPEEDUP = 10.0

PENELOPE_LENGTH = scaled(2000, floor=500)


def per_vector_aging(circuit, vectors, duration):
    """The reference aging loop bit-slicing must match: one gate walk
    per vector, then one ledger observation per node."""
    from repro.circuits.aging import AgingSimulator

    simulator = AgingSimulator(circuit)
    order = circuit.topological_order()
    for vector in vectors:
        values = {node: vector[node] for node in circuit.inputs}
        for gate in order:
            values[gate.output] = gate.evaluate(
                [values[node] for node in gate.inputs])
        for node, value in values.items():
            simulator.ledger.observe(node, value, duration)
    return simulator.report()


def packed_aging(circuit, vectors, duration):
    from repro.circuits.aging import AgingSimulator

    simulator = AgingSimulator(circuit)
    simulator.apply_sequence(vectors, duration)
    return simulator.report()


def run_penelope_perf():
    from repro.circuits import build_ladner_fischer_adder
    from repro.core import PenelopeProcessor

    adder = build_ladner_fischer_adder()
    rng = random.Random(13)
    vectors = [adder.input_vector(rng.getrandbits(32), rng.getrandbits(32),
                                  rng.getrandbits(1))
               for __ in range(AGING_VECTORS)]
    duration = 0.3 / AGING_VECTORS
    reports = {
        "per_vector": per_vector_aging(adder.circuit, vectors, duration),
        "packed": packed_aging(adder.circuit, vectors, duration),
    }
    elapsed = {
        "per_vector": _best_of(2, per_vector_aging, adder.circuit, vectors,
                               duration),
        "packed": _best_of(5, packed_aging, adder.circuit, vectors,
                           duration),
    }
    trace = TraceGenerator(seed=7).generate("specint2000",
                                            length=PENELOPE_LENGTH)
    evaluate_s = _best_of(1, PenelopeProcessor().evaluate, [trace])
    core_s = _best_of(3, TraceDrivenCore().run, trace)
    return reports, elapsed, {"evaluate": evaluate_s * 1e6 / len(trace),
                              "core": core_s * 1e6 / len(trace)}


def test_perf_penelope(benchmark):
    """Bit-sliced adder aging must beat the per-vector gate walk by
    :data:`MIN_PACKED_AGING_SPEEDUP` with an identical report; one
    whole Penelope evaluation and one hook-free core pass are recorded
    in µs per trace uop."""
    reports, elapsed, us_per_uop = benchmark.pedantic(
        run_penelope_perf, rounds=1, iterations=1
    )
    assert reports["packed"] == reports["per_vector"]
    speedup = elapsed["per_vector"] / max(elapsed["packed"], 1e-12)
    assert speedup >= MIN_PACKED_AGING_SPEEDUP, (
        f"bit-sliced aging regressed below {MIN_PACKED_AGING_SPEEDUP}x: "
        f"{elapsed}"
    )

    rows = [
        ["per-vector aging", f"{elapsed['per_vector'] * 1e3:.1f} ms", "1.00x"],
        ["bit-sliced aging", f"{elapsed['packed'] * 1e3:.1f} ms",
         f"{speedup:.1f}x"],
        ["PenelopeProcessor.evaluate", f"{us_per_uop['evaluate']:.1f} "
         "us/uop", "-"],
        ["TraceDrivenCore.run (no hooks)", f"{us_per_uop['core']:.1f} "
         "us/uop", "-"],
    ]
    text = format_table(
        ["target", "time", "speedup"], rows,
        title=(f"penelope perf ({AGING_VECTORS} vectors on the 32-bit "
               f"Ladner-Fischer adder; evaluate on {PENELOPE_LENGTH} "
               f"specint2000 uops)"),
    )
    text += (f"\ngate: bit-sliced aging >= {MIN_PACKED_AGING_SPEEDUP:.0f}x "
             f"(identical AgingReport asserted)")
    write_result("perf_penelope.txt", text, data={
        "vectors": AGING_VECTORS,
        "trace_length": PENELOPE_LENGTH,
        "elapsed_s": elapsed,
        "speedup": speedup,
        "min_required_speedup": MIN_PACKED_AGING_SPEEDUP,
        "evaluate_us_per_uop": us_per_uop["evaluate"],
        "core_us_per_uop": us_per_uop["core"],
        "smoke": SMOKE,
    })
