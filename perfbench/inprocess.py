"""The in-process workloads: ``penelope`` and ``cache_replay``.

Both run study points through the experiment engine in this process,
with no store and one worker, and bypass the fabric and the service.
Simulation seeds come from a small pool, so every point has a committed
golden digest; the workload seed picks where each point shape starts
in the pool.  The point *shapes* and their order are fixed, so runs
with different seeds do the same kind and amount of work.

A run repeats passes over its point list until ``--seconds`` have
elapsed, always finishing the first pass.  Each point's time is scaled
to the reference host speed (:class:`harness.HostSpeed`), and the
end-to-end figures use each point slot's median over the passes.
Exact work counts are taken over the first pass, so they repeat for a
given seed.  A traced run first times one pass untraced, then runs
traced (the first traced pass against the untraced one gives
``obs.trace_overhead_frac``).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

from harness import Golden, HostSpeed, LayerClock, median, reset_memos

#: Simulation seeds with committed goldens, per point shape.
SEED_POOL = 4

#: Trace length of a ``penelope`` point.  Adder aging costs the same
#: per point at any length (it ages at most 256 sampled vectors), so at
#: 2000 uops both the core passes with their protection hooks and the
#: gate-level adder aging take a visible share of a point.
PENELOPE_LENGTH = 2000

#: Address-stream length of a ``cache_replay`` point: long enough that
#: replay, not per-point set-up, dominates.
CACHE_LENGTH = 100_000

#: ``cache_replay`` point shapes; each runs on both backends.  DL0
#: 16 KB 8-way is the paper's; 128 KB 4-way (512 sets) suits batching.
CACHE_SHAPES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("caches", {"suite": "specint2000", "scheme": "line_fixed",
                "ratio": 0.5, "size_kb": 16, "ways": 8}),
    ("caches", {"suite": "office", "scheme": "line_dynamic",
                "ratio": 0.5, "size_kb": 16, "ways": 8}),
    ("caches", {"suite": "multimedia", "scheme": "set_fixed",
                "ratio": 0.25, "size_kb": 16, "ways": 8}),
    ("caches", {"suite": "server", "scheme": "set_fixed",
                "ratio": 0.5, "size_kb": 128, "ways": 4}),
    ("caches", {"suite": "workstation", "scheme": "set_fixed",
                "ratio": 0.75, "size_kb": 128, "ways": 4}),
    ("caches", {"suite": "specfp2000", "scheme": "line_fixed",
                "ratio": 0.5, "size_kb": 128, "ways": 4}),
    ("victim_policy", {"suite": "productivity", "ratio": 0.5,
                       "size_kb": 16, "ways": 8}),
    ("multiprog", {"suites": ["specint2000", "office"],
                   "scheme": "set_fixed", "ratio": 0.5,
                   "size_kb": 128, "ways": 4,
                   "length": CACHE_LENGTH // 2}),
    ("multiprog", {"suites": ["kernels", "encoder"],
                   "scheme": "line_fixed", "ratio": 0.5,
                   "size_kb": 16, "ways": 8,
                   "length": CACHE_LENGTH // 2}),
)

BACKENDS = ("reference", "vectorized")

Point = Tuple[str, Dict[str, Any]]


# ----------------------------------------------------------------------
# Point lists
# ----------------------------------------------------------------------
def penelope_shapes() -> List[Point]:
    from repro.workloads import suite_names

    return [("penelope", {"suite": suite, "length": PENELOPE_LENGTH,
                          "backend": "reference"})
            for suite in suite_names()]


def cache_shapes() -> List[Point]:
    return [(study, {"length": CACHE_LENGTH, **params,
                     "backend": backend})
            for study, params in CACHE_SHAPES for backend in BACKENDS]


def passes(shapes: List[Point], seed: int) -> Iterator[List[Point]]:
    """The run's passes: each shape steps through the simulation-seed
    pool from an offset the seed picks, so a run averages over several
    inputs per shape rather than riding on one.

    Points that differ only in backend share a simulation seed, so the
    two backends replay identical inputs and must agree.
    """
    rng = random.Random(seed)
    offsets: Dict[str, int] = {}
    ids = []
    for study, params in shapes:
        shape_id = repr((study, sorted((k, v) for k, v in params.items()
                                       if k != "backend")))
        offsets.setdefault(shape_id, rng.randrange(SEED_POOL))
        ids.append(shape_id)
    for index in itertools.count():
        yield [(study, {**params,
                        "seed": (offsets[shape_id] + index) % SEED_POOL})
               for (study, params), shape_id in zip(shapes, ids)]


def golden_points() -> List[Point]:
    """Every point a run can draw, on the reference backend."""
    points = []
    for study, params in penelope_shapes() + cache_shapes():
        if params["backend"] != "reference":
            continue
        for sim_seed in range(SEED_POOL):
            points.append((study, {**params, "seed": sim_seed}))
    return points


# ----------------------------------------------------------------------
# Executing points
# ----------------------------------------------------------------------
def execute(study: str, params: Mapping[str, Any]
            ) -> Tuple[float, Dict[str, Any], Dict[str, Any]]:
    """One point through the engine: ``(wall_s, bound params, metrics)``.

    ``penelope`` goes through :func:`repro.api.run_study`, the cache
    studies through a :class:`~repro.experiments.SweepRunner` sweep of
    one point; both with no store and one worker.
    """
    from repro import api
    from repro.config.specs import StudySpec, WorkloadSpec
    from repro.experiments import SweepRunner, SweepSpec

    reset_memos()
    start = time.perf_counter()
    if study == "penelope":
        spec = StudySpec(
            study="penelope",
            workload=WorkloadSpec(suites=(params["suite"],),
                                  length=params["length"],
                                  seed=params["seed"]))
        outcome = api.run_study(spec, store=None, workers=1)
    else:
        outcome = SweepRunner(store=None, workers=1).run(
            SweepSpec(study, base=dict(params)))
    wall = time.perf_counter() - start
    (result,) = outcome.results
    return wall, result.point.as_dict(), dict(result.metrics)


def units_of(study: str, params: Mapping[str, Any]) -> int:
    """Simulated work of a point: trace uops, or replayed addresses."""
    length = int(params["length"])
    if study == "penelope":
        return length
    if study == "victim_policy":
        return 5 * length      # two run_cache_study calls + baseline
    if study == "multiprog":
        return 2 * length * len(params["suites"])
    return 2 * length          # baseline + protected


# ----------------------------------------------------------------------
# Outside-in instrumentation
# ----------------------------------------------------------------------
def _defining_class(cls: type, attr: str) -> type:
    return next(k for k in cls.__mro__ if attr in k.__dict__)


def instrument(clock: LayerClock, counts: Counter) -> None:
    """Wrap each layer's public entry points (see README.md)."""
    import repro.workloads as workloads
    import repro.workloads.multiprog as multiprog
    from repro.circuits.aging import AgingSimulator
    from repro.core.cache_like import ProtectedCache, SetFixedScheme
    from repro.core.combinational import IdleInputInjector
    from repro.core.penelope import PenelopeProcessor
    from repro.metrics import MetricSet
    from repro.uarch.backends import CacheConfig, get_backend
    from repro.uarch.core import TraceDrivenCore
    from repro.workloads import TraceGenerator

    # -- workloads
    clock.wrap(TraceGenerator, "generate", "workloads.trace_synth",
               units=lambda a, r, b: len(r))
    clock.wrap(workloads, "generate_address_stream",
               "workloads.addr_synth", units=lambda a, r, b: len(r))
    lazy = multiprog.multiprog_address_stream
    # The multiprogram stream is lazy; materialise it inside the timed
    # call so its synthesis is not billed to the replay that pulls it.
    clock.replace(multiprog, "multiprog_address_stream",
                  lambda *a, **k: list(lazy(*a, **k)))
    clock.wrap(multiprog, "multiprog_address_stream",
               "workloads.addr_synth", units=lambda a, r, b: len(r))

    # -- uarch core passes and core (protection hooks)
    clock.wrap(PenelopeProcessor, "run_baseline", "uarch.core.baseline",
               units=lambda a, r, b: r.uops)
    clock.wrap(PenelopeProcessor, "derive_policy", "uarch.core.profile",
               units=lambda a, r, b: len(a[1]))
    clock.wrap(PenelopeProcessor, "run_protected", "core.protected",
               units=lambda a, r, b: r.uops)

    def core_counts(args, result) -> None:
        counts["uarch.core.uops"] += result.uops
        counts["uarch.core.scheduler_allocs"] += \
            result.scheduler.allocations
        counts["uarch.core.rf_writes"] += (result.int_rf.allocations
                                           + result.fp_rf.allocations)
        counts["uarch.core.rf_releases"] += (result.int_rf.releases
                                             + result.fp_rf.releases)
        counts["uarch.core.dl0_accesses"] += result.dl0.accesses
        counts["uarch.core.dtlb_accesses"] += result.dtlb.accesses

    clock.wrap(TraceDrivenCore, "run", None, observe=core_counts)

    # -- circuits / nbti: gate-level adder aging
    clock.wrap(IdleInputInjector, "age", "circuits.adder_aging",
               units=lambda a, r, b: 1)

    def gate_evals(args, result) -> None:
        counts["circuits.gate_evals"] += len(args[0].circuit.gates)

    clock.wrap(AgingSimulator, "apply", None, observe=gate_evals)

    # -- uarch.backends (plain replay) and core.cache_like (protected)
    def backend_of(cache) -> str:
        module = type(cache).__module__
        return "vectorized" if module.endswith("vectorized") else "reference"

    def plain(args):
        if clock.inside("uarch.backends") or clock.inside("core.cache_like"):
            return None
        return f"uarch.backends.{backend_of(args[0])}"

    def accesses(args, result, before) -> int:
        counts["uarch.backends.accesses"] += (args[0].stats.accesses
                                              - before)
        return args[0].stats.accesses - before

    probe = CacheConfig(name="probe", size_bytes=1024, ways=2)
    for backend in BACKENDS:
        cls = type(get_backend(backend).make_cache(probe))
        clock.wrap(_defining_class(cls, "replay"), "replay", plain,
                   units=accesses, snap=lambda a: a[0].stats.accesses)

    def protected(args):
        family = "set" if isinstance(args[0].scheme, SetFixedScheme) \
            else "line"
        return f"core.cache_like.{family}.{backend_of(args[0].cache)}"

    clock.wrap(ProtectedCache, "replay", protected, units=accesses,
               snap=lambda a: a[0].stats.accesses)

    # -- metrics
    clock.wrap(MetricSet, "flatten", "metrics.flatten")


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------
class Outcome:
    """What one run measured."""

    def __init__(self, points: List[Point]) -> None:
        #: each point slot's times scaled to the reference host speed,
        #: and as measured; one per pass
        self.walls: List[List[float]] = [[] for __ in points]
        self.raw: List[List[float]] = [[] for __ in points]
        self.units = [units_of(study, params) for study, params in points]
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.rows: List[Tuple[str, Dict[str, Any], Dict[str, Any]]] = []


def _run_pass(batch: List[Point], golden: Golden, out: Outcome,
              speed: HostSpeed, deadline: float = math.inf) -> float:
    """Run one pass, or its points up to ``deadline``; returns its wall
    time.  Each failed point counts: an error, a golden mismatch, or
    backends disagreeing."""
    total = 0.0
    by_shape: Dict[str, Tuple[str, str]] = {}
    speed.mark()
    for index, (study, params) in enumerate(batch):
        if time.perf_counter() >= deadline:
            break
        out.attempted += 1
        mismatches = len(golden.mismatches)
        try:
            wall, bound, metrics = execute(study, params)
        except Exception as exc:  # counted, reported, run continues
            out.failed += 1
            out.errors.append(f"{study} {params}: {type(exc).__name__}: "
                              f"{exc}")
            continue
        total += wall
        out.raw[index].append(wall)
        out.walls[index].append(speed.scale(wall))
        out.rows.append((study, bound, metrics))
        digest = golden.check(study, bound, metrics)
        failed = len(golden.mismatches) > mismatches
        shape = repr(sorted((k, repr(v)) for k, v in bound.items()
                            if k != "backend"))
        if shape in by_shape and by_shape[shape][0] != digest:
            out.errors.append(f"{study} {shape}: backends disagree "
                              f"({by_shape[shape][1]} vs "
                              f"{bound.get('backend')})")
            failed = True
        by_shape.setdefault(shape, (digest, str(bound.get("backend"))))
        out.failed += failed
    return total


def run(shapes: List[Point], seed: int, seconds: float, trace: bool,
        golden: Golden) -> Dict[str, Any]:
    """Run passes until ``seconds`` elapse; returns raw measurements."""
    plan = passes(shapes, seed)
    points = next(plan)
    out = Outcome(points)
    clock = LayerClock()
    counts: Counter = Counter()
    speed = HostSpeed()
    result: Dict[str, Any] = {"outcome": out, "clock": clock,
                              "speed": speed}
    start = time.perf_counter()
    if trace:
        untraced = _run_pass(points, golden, Outcome(points), speed)
        instrument(clock, counts)
    try:
        traced_first = _run_pass(points, golden, out, speed)
        result["first_pass_counts"] = dict(counts)
        while time.perf_counter() < start + seconds:
            _run_pass(next(plan), golden, out, speed, start + seconds)
    finally:
        clock.restore()
    if trace:
        result["trace_overhead_frac"] = traced_first / untraced - 1.0
    return result


def summarise(name: str, raw: Mapping[str, Any], trace: bool
              ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(end_to_end, per_layer, report lines)`` of a finished run."""
    out: Outcome = raw["outcome"]
    clock: LayerClock = raw["clock"]
    unit = "uop" if name == "penelope" else "access"
    passes = sum(len(walls) for walls in out.walls) / len(out.walls)
    units = sum(u for u, walls in zip(out.units, out.walls) if walls)
    typical = [median(walls) for walls in out.walls if walls]
    measured = [median(walls) for walls in out.raw if walls]
    us_per_op = sum(typical) / units * 1e6
    e2e = {"us_per_op": us_per_op, "point_s.p50": median(typical)}
    lines = [
        raw["speed"].describe(),
        f"us_per_{unit} = {us_per_op:.4f} us  ({units} per pass, "
        f"median of {passes:.1f} passes; as measured "
        f"{sum(measured) / units * 1e6:.4f} us)",
        f"point_s.p50 = {median(typical):.4f} s  (n={len(typical)} "
        f"points, each its median of {passes:.1f} passes; as measured "
        f"{median(measured):.4f} s)",
    ]
    if name == "penelope":
        lines += paper_anchors(out.rows)
    if not trace:
        return e2e, {}, lines
    layer: Dict[str, float] = {}
    layer.update(raw["first_pass_counts"])
    for key in ("workloads.trace_synth", "uarch.core.baseline",
                "uarch.core.profile", "core.protected"):
        layer[f"{key}.us_per_uop"] = clock.per_unit_us(key)
    layer["workloads.addr_synth.us_per_access"] = \
        clock.per_unit_us("workloads.addr_synth")
    if clock.units.get("uarch.core.baseline"):
        layer["core.hooks.overhead_ratio"] = (
            clock.per_unit_us("core.protected")
            / clock.per_unit_us("uarch.core.baseline"))
    adder = clock.units.get("circuits.adder_aging", 0.0)
    if adder:
        layer["circuits.adder_aging.s_per_point"] = \
            clock.self_s["circuits.adder_aging"] / adder
    for backend in BACKENDS:
        layer[f"uarch.backends.{backend}.us_per_access"] = \
            clock.per_unit_us(f"uarch.backends.{backend}")
        for family in ("line", "set"):
            layer[f"core.cache_like.{family}.{backend}.us_per_access"] = \
                clock.per_unit_us(f"core.cache_like.{family}.{backend}")
    for family in ("line", "set"):
        fast = layer[f"core.cache_like.{family}.vectorized.us_per_access"]
        if fast:
            layer[f"uarch.backends.vectorized.speedup.{family}"] = (
                layer[f"core.cache_like.{family}.reference.us_per_access"]
                / fast)
    # Layer times are self times as measured, so shares use the
    # measured point times too.
    total = sum(sum(walls) for walls in out.raw)
    layer["metrics.flatten.us_per_point"] = (
        clock.self_s["metrics.flatten"]
        / sum(len(walls) for walls in out.raw) * 1e6)
    layer["obs.trace_overhead_frac"] = raw["trace_overhead_frac"]
    shares = dict(clock.self_s)
    shares["experiments.runner"] = total - sum(clock.self_s.values())
    for key, spent in shares.items():
        layer[f"share.{key}"] = spent / total
    lines += layer_table(shares, total)
    return e2e, layer, lines


def layer_table(shares: Mapping[str, float], total: float) -> List[str]:
    ranked = sorted(shares.items(), key=lambda kv: -kv[1])
    lines = ["layer shares of measured point time (self time, traced):"]
    lines += [f"  {key:<34s} {spent / total:7.1%}  {spent:8.3f} s"
              for key, spent in ranked]
    lines.append(f"dominant layer: {ranked[0][0]}")
    return lines


def paper_anchors(rows) -> List[str]:
    """The paper's headline figures beside this run's simulated ones."""
    def mean(key: str) -> float:
        values = [metrics[key] for __, __, metrics in rows]
        return sum(values) / len(values)

    return [
        "paper anchors (simulated, not validated against hardware):",
        f"  NBTIefficiency Penelope {mean('efficiency'):.3f} vs full "
        f"guardband {mean('baseline_efficiency'):.3f}  "
        f"(paper: 1.28 vs 1.73)",
        f"  INT RF worst bias {mean('int_rf_base_bias'):.1%} -> "
        f"{mean('int_rf_isv_bias'):.1%} with ISV  "
        f"(paper: 89.9% -> 48.5%)",
        f"  adder guardband {mean('adder_guardband'):.2%}  "
        f"(paper: 7.4% at 30% utilisation)",
    ]


WORKLOADS: Dict[str, Callable[[], List[Point]]] = {
    "penelope": penelope_shapes,
    "cache_replay": cache_shapes,
}
