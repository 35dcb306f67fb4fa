"""The ``sweep_service`` workload: ``repro serve`` driven by one client.

One client process, one connection at a time, runs ``ROUNDS`` rounds of
two phases, then a query phase:

- cold: on a fresh store directory and server, submits many tiny
  ``caches`` points (writes), split across the in-process runner and
  the ``fabric: true`` runner on disjoint point sets, one job at a time
  (submit, stream until done, fetch rows);
- warm: restarts the service on that store, so in-memory job dedup
  cannot answer, and re-submits the same jobs: every point is a store
  hit (reads);
- query (after the last round): a closed loop of
  ``GET /v1/results?key=`` lookups over the stored keys until
  ``--seconds`` have elapsed.

Each job's time is scaled to the reference host speed
(:class:`harness.HostSpeed`) and the end-to-end figures use its median
over the rounds.  The cold and warm phases have a fixed size set by the
seed, so their exact counts repeat; only the query phase is
time-bounded.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Tuple

from harness import (
    WORK,
    Golden,
    HostSpeed,
    Server,
    median,
    tail,
)

#: Addresses per point: tiny, so service, store and runner work dominate.
SWEEP_LENGTH = 400
SWEEP_SEEDS = 16          # simulation seeds with goldens
SEEDS_PER_JOB = 8
SWEEP_RATIOS = (0.2, 0.4, 0.6, 0.8)
IN_PROCESS_JOBS = 6       # line_fixed, one suite each
FABRIC_JOBS = 3           # set_fixed, one suite each
#: Fabric workers per job; the load never exceeds the host's cores.
FABRIC_WORKERS = max(1, min(2, os.cpu_count() or 1))
ROUNDS = 5
MIN_QUERIES = 200


def job_payload(suite: str, scheme: str, seeds: List[int]
                ) -> Dict[str, Any]:
    return {"study": "caches",
            "base": {"suite": suite, "scheme": scheme,
                     "length": SWEEP_LENGTH},
            "grid": {"seed": sorted(seeds), "ratio": list(SWEEP_RATIOS)}}


def plan_jobs(seed: int) -> List[Tuple[Dict[str, Any], bool]]:
    """``(payload, fabric)`` per cold job; disjoint point sets because
    every job has its own (suite, scheme)."""
    from repro.workloads import suite_names

    rng = random.Random(seed)
    suites = suite_names()
    line = rng.sample(suites, IN_PROCESS_JOBS)
    fabric = rng.sample(suites, FABRIC_JOBS)
    jobs = []
    for index in range(max(IN_PROCESS_JOBS, FABRIC_JOBS)):
        if index < IN_PROCESS_JOBS:
            seeds = rng.sample(range(SWEEP_SEEDS), SEEDS_PER_JOB)
            jobs.append((job_payload(line[index], "line_fixed", seeds),
                         False))
        if index < FABRIC_JOBS:
            seeds = rng.sample(range(SWEEP_SEEDS), SEEDS_PER_JOB)
            jobs.append((job_payload(fabric[index], "set_fixed", seeds),
                         True))
    return jobs


def golden_points() -> List[Tuple[str, Dict[str, Any]]]:
    """Every point a run can submit."""
    from repro.workloads import suite_names

    return [("caches", {"suite": suite, "scheme": scheme,
                        "length": SWEEP_LENGTH, "seed": sim_seed,
                        "ratio": ratio})
            for suite in suite_names()
            for scheme in ("line_fixed", "set_fixed")
            for sim_seed in range(SWEEP_SEEDS)
            for ratio in SWEEP_RATIOS]


class Phase:
    """Per-job measurements of the cold or warm phase."""

    def __init__(self) -> None:
        self.job_ids: List[str] = []
        self.fabric_ids: List[str] = []
        self.points = 0
        #: each job's time scaled to the reference host speed, and as
        #: measured
        self.job_walls: List[float] = []
        self.raw_walls: List[float] = []
        self.cached = 0
        self.submit_ms: List[float] = []
        self.status_ms: List[float] = []
        self.ws_events = 0
        self.ws_lag_ms: List[float] = []
        self.ws_dropped = 0
        self.exec_ms: List[float] = []
        self.keys: List[str] = []


def run_job(client, payload: Mapping[str, Any], fabric: bool,
            phase: Phase, golden: Golden, counts: Dict[str, int],
            speed: HostSpeed, warm: bool) -> None:
    """Submit one job, stream it to the end and check its rows; on the
    warm phase a row not served from the store is a failure too."""
    submitted = time.time()
    start = time.perf_counter()
    job = client.submit(payload, fabric=fabric,
                        workers=FABRIC_WORKERS if fabric else None)
    phase.submit_ms.append((time.perf_counter() - start) * 1e3)
    job_id = job["job"]
    final = None
    for message in client.stream(job_id, timeout=120):
        if message.get("type") == "event":
            phase.ws_events += 1
            phase.ws_lag_ms.append(
                (time.time() - message["record"]["ts"]) * 1e3)
        elif message.get("type") == "job":
            final = message
    phase.ws_dropped += final is None
    start = time.perf_counter()
    status = client.status(job_id)
    phase.status_ms.append((time.perf_counter() - start) * 1e3)
    rows = client.result(job_id)["rows"] if status["state"] == "done" \
        else []
    expected = 1
    for values in payload["grid"].values():
        expected *= len(values)
    counts["attempted"] += expected
    counts["failed"] += expected - len(rows)
    for row in rows:
        mismatches = len(golden.mismatches)
        golden.check("caches", row["params"], row["metrics"])
        counts["failed"] += (len(golden.mismatches) > mismatches
                             or (warm and not row["cached"]))
        phase.cached += bool(row["cached"])
        phase.keys.append(row["key"])
    phase.job_ids.append(job_id)
    if fabric:
        phase.fabric_ids.append(job_id)
    if status.get("manifest"):
        # Read now: the next job in this store overwrites the manifest.
        with open(status["manifest"], encoding="utf-8") as handle:
            phase.exec_ms += [point["elapsed"] * 1e3 for point in
                              json.load(handle)["points"]
                              if not point.get("cached")]
    phase.points += expected
    phase.raw_walls.append(status["finished"] - submitted)
    phase.job_walls.append(speed.scale(phase.raw_walls[-1]))


@contextmanager
def serving(store: str, raw: Dict[str, Any]):
    """A client of a fresh ``repro serve`` on ``store``."""
    from repro.client import ServiceClient

    speed: HostSpeed = raw["speed"]
    speed.mark()
    server = Server(store)
    raw["ready_s"].append(speed.scale(server.ready_s))
    try:
        yield ServiceClient(server.url, timeout=120)
    finally:
        server.stop()


def run(seed: int, seconds: float, trace: bool,
        golden: Golden) -> Dict[str, Any]:
    """One ``sweep_service`` run; returns raw measurements."""
    from repro import api

    rng = random.Random(seed)
    start = time.perf_counter()
    jobs = plan_jobs(seed)
    plan_start = time.perf_counter()
    for payload, __ in jobs:
        api.sweep_from_payload(payload).expand()
    plan_ms = (time.perf_counter() - plan_start) * 1e3 / len(jobs)
    counts = {"attempted": 0, "failed": 0}
    speed = HostSpeed()
    raw: Dict[str, Any] = {"counts": counts, "plan_ms": plan_ms,
                           "ready_s": [], "cold": [], "warm": [],
                           "speed": speed}
    stores: List[str] = []
    try:
        for index in range(ROUNDS):
            stores.append(tempfile.mkdtemp(prefix="store-", dir=WORK))
            for phase in ("cold", "warm"):
                raw[phase].append(Phase())
                with serving(stores[-1], raw) as client:
                    for payload, fabric in jobs:
                        run_job(client, payload, fabric, raw[phase][-1],
                                golden, counts, speed, phase == "warm")
                    if phase == "warm" and index == ROUNDS - 1:
                        raw["query_ms"] = query_loop(
                            client, raw["cold"][-1].keys, rng,
                            start + seconds, golden, counts)
                if phase == "cold" and trace and index == ROUNDS - 1:
                    raw["events"] = _events(stores[-1])
        cold = raw["cold"][-1]
        if trace:
            traced_start = time.perf_counter()
            raw["layers"] = store_layers(stores[-1], cold)
            raw["trace_s"] = time.perf_counter() - traced_start
        raw["wall_s"] = time.perf_counter() - start
    finally:
        for store in stores:
            shutil.rmtree(store, ignore_errors=True)
    return raw


def query_loop(client, keys: List[str], rng: random.Random,
               deadline: float, golden: Golden,
               counts: Dict[str, int]) -> List[float]:
    """Closed loop: the next lookup is sent when the previous returns."""
    from repro.client import ServiceError

    order = list(keys)
    rng.shuffle(order)
    latencies: List[float] = []
    while time.perf_counter() < deadline or len(latencies) < MIN_QUERIES:
        key = order[len(latencies) % len(order)]
        start = time.perf_counter()
        try:
            records = client.query(key=key)["records"]
        except ServiceError:
            records = []
        latencies.append((time.perf_counter() - start) * 1e3)
        counts["attempted"] += 1
        if len(records) != 1:
            counts["failed"] += 1
            continue
        mismatches = len(golden.mismatches)
        golden.check("caches", records[0]["params"], records[0]["metrics"])
        counts["failed"] += len(golden.mismatches) > mismatches
    return latencies


def _events(store: str) -> Dict[str, Any]:
    path = os.path.join(store, "events.jsonl")
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {"records": records, "bytes": os.path.getsize(path)}


def store_layers(store: str, cold: Phase) -> Dict[str, float]:
    """Fabric/experiments/obs figures read from the finished store."""
    from repro.fabric.store import ShardedResultStore

    keys = cold.keys
    layers: Dict[str, float] = {}
    layers["experiments.point_exec_ms.p50"] = median(cold.exec_ms)
    layers["share.experiments.point_exec"] = \
        sum(cold.exec_ms) / 1e3 / sum(cold.raw_walls)
    lines = 0
    for path in glob.glob(os.path.join(store, "shards", "*.jsonl")):
        with open(path, "rb") as handle:
            lines += sum(1 for line in handle if line.strip())
    layers["fabric.shard_lines_per_key"] = lines / len(set(keys))
    start = time.perf_counter()
    reader = ShardedResultStore(store, index_writes=False)
    layers["fabric.store_open_ms"] = (time.perf_counter() - start) * 1e3
    try:
        start = time.perf_counter()
        for key in keys:
            reader.get(key)
        layers["fabric.store_get_us"] = \
            (time.perf_counter() - start) / len(keys) * 1e6
    finally:
        reader.close()
    return layers


def summarise(raw: Mapping[str, Any], trace: bool
              ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(end_to_end, per_layer, report lines)`` of a finished run."""
    cold: Phase = raw["cold"][-1]
    warm: Phase = raw["warm"][-1]
    queries: List[float] = raw["query_ms"]
    pct, tail_ms, n = tail(queries)

    def per_job(phase: str, attr: str) -> List[float]:
        return [median(walls) for walls in
                zip(*(getattr(p, attr) for p in raw[phase]))]

    cold_jobs = per_job("cold", "job_walls")
    cold_rate = cold.points / sum(cold_jobs)
    warm_rate = warm.points / sum(per_job("warm", "job_walls"))
    # Every job has the same number of points.
    per_point = [wall / (cold.points / len(cold_jobs)) for wall in cold_jobs]
    e2e = {"us_per_op": 1e6 / cold_rate, "point_s.p50": median(per_point)}
    rounds = f"each job its median of {len(raw['cold'])} rounds"
    lines = [
        raw["speed"].describe(),
        f"cold_points_per_s = {cold_rate:.2f} 1/s  "
        f"({cold.points} points, {len(cold.job_ids)} jobs, "
        f"{len(cold.fabric_ids)} on the fabric; {rounds}; as measured "
        f"{cold.points / sum(per_job('cold', 'raw_walls')):.2f} 1/s)",
        f"warm_points_per_s = {warm_rate:.2f} 1/s  "
        f"({warm.cached}/{warm.points} store hits; {rounds}; as "
        f"measured {warm.points / sum(per_job('warm', 'raw_walls')):.2f}"
        f" 1/s)",
        f"point_s.p50 = {median(per_point) * 1e3:.4f} ms per point "
        f"executed and stored  (n={len(per_point)} cold jobs)",
        f"query_ms.p50 = {median(queries):.4f} ms  (n={n}, as measured)",
        f"query_ms.tail = {tail_ms:.4f} ms  (p{pct:g}, n={n}, as "
        f"measured)",
    ]
    if not trace:
        return e2e, {}, lines
    layer: Dict[str, float] = dict(raw["layers"])
    layer["experiments.plan_ms"] = raw["plan_ms"]
    layer["experiments.cache_hit_frac"] = warm.cached / warm.points
    layer["service.cold_points_per_s"] = \
        cold.points / sum(per_job("cold", "raw_walls"))
    layer["service.warm_points_per_s"] = \
        warm.points / sum(per_job("warm", "raw_walls"))
    layer["service.query_ms.p50"] = median(queries)
    layer["service.query_ms.tail"] = tail_ms
    both = (cold, warm)
    layer["service.submit_ms"] = median([x for p in both
                                         for x in p.submit_ms])
    layer["service.status_ms"] = median([x for p in both
                                         for x in p.status_ms])
    layer["service.ws.events"] = sum(p.ws_events for p in both)
    layer["service.ws.lag_ms.p50"] = median([x for p in both
                                             for x in p.ws_lag_ms])
    layer["service.ws.dropped"] = sum(p.ws_dropped for p in both)
    events = raw["events"]
    records = events["records"]
    cold_runs = set(cold.job_ids)
    fabric_runs = set(cold.fabric_ids)
    fabric_done = [r for r in records if r["event"] == "point_done"
                   and r["run_id"] in fabric_runs]
    fabric_keys = {r["payload"]["key"] for r in fabric_done}
    layer["fabric.exec_per_key"] = (len(fabric_done) / len(fabric_keys)
                                    if fabric_keys else 0.0)
    layer["fabric.lease_stolen"] = sum(r["event"] == "lease_stolen"
                                       for r in records)
    layer["fabric.point_retry"] = sum(r["event"] == "point_retry"
                                      for r in records)
    run_start = {r["run_id"]: r["ts"] for r in records
                 if r["event"] == "run_start"}
    layer["fabric.queue_wait_ms.p50"] = median([
        (r["ts"] - r["payload"]["elapsed"] - run_start[r["run_id"]]) * 1e3
        for r in fabric_done if r["run_id"] in run_start])
    layer["obs.events_per_point"] = (
        sum(r["run_id"] in cold_runs for r in records) / cold.points)
    layer["obs.event_log_bytes"] = events["bytes"]
    layer["obs.trace_overhead_frac"] = raw["trace_s"] / raw["wall_s"]
    layer["setup.serve_ready_s"] = median(raw["ready_s"])
    point_exec = layer["share.experiments.point_exec"]
    # The server's own layers are not visible from outside: the rest of
    # the cold phase is service, fabric, runner and store IO together.
    shares = {"experiments.point_exec": point_exec,
              "service.overhead": 1.0 - point_exec}
    layer["share.service.overhead"] = 1.0 - point_exec
    lines.append("layer shares of the cold phase (submit to job done):")
    lines += [f"  {key:<34s} {share:7.1%}" for key, share in
              sorted(shares.items(), key=lambda kv: -kv[1])]
    lines.append("dominant layer: "
                 + max(shares.items(), key=lambda kv: kv[1])[0])
    return e2e, layer, lines
