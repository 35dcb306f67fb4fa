"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload penelope --seed 1 --seconds 30 \
        --trace 0

Prints a human-readable report (environment, workload-specific figures,
paper anchors, layer shares when traced) and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics (a layer the workload does not
exercise reports 0).  Exit status: 0 when every simulated output matched
its golden digest, 1 on a mismatch (the result is still printed), 2
when the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List

import harness
from harness import BenchError, Golden, median

WORKLOADS = ("penelope", "cache_replay", "sweep_service")
SETUP_PROBES = 5


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool
                 ) -> Dict[str, Any]:
    """Measure one workload; returns the printed result and report."""
    import inprocess
    import sweep

    golden = Golden()
    speed = harness.HostSpeed()
    import_s = median([speed.scale(harness.import_setup_s())
                       for __ in range(SETUP_PROBES)])
    if name == "sweep_service":
        raw = sweep.run(seed, seconds, trace, golden)
        e2e, layer, lines = sweep.summarise(raw, trace)
        counts = raw["counts"]
        attempted, failed = counts["attempted"], counts["failed"]
        setup_s = import_s + median(raw["ready_s"])
    else:
        raw = inprocess.run(inprocess.WORKLOADS[name](), seed, seconds,
                            trace, golden)
        e2e, layer, lines = inprocess.summarise(name, raw, trace)
        outcome = raw["outcome"]
        attempted, failed = outcome.attempted, outcome.failed
        lines += outcome.errors
        setup_s = import_s
    lines += golden.mismatches
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = harness.peak_rss_mb()
    e2e["ok_frac"] = 1.0 - failed / attempted
    layer["setup.import_s"] = import_s
    lines.insert(0, f"failed_frac = {failed / attempted:.6f} ratio  "
                    f"({failed} of {attempted})")
    return {"e2e": e2e, "layer": layer, "lines": lines,
            "attempted": attempted, "failed": failed,
            "correct": failed == 0}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.require_program()
        contract = load_contract()
        os.makedirs(harness.WORK, exist_ok=True)
        env = harness.environment(args.seed)
        try:
            out = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace))
        finally:
            shutil.rmtree(harness.WORK, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    measured = out["layer"] if args.trace else out["e2e"]
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"trace: {args.trace}  finished: {time.strftime('%H:%M:%S')}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in out["lines"]:
        print(line)
    metrics = {}
    for spec in contract[section]:
        name = spec["name"]
        if name not in measured and not args.trace:
            print(f"error: end-to-end metric {name} was not measured",
                  file=sys.stderr)
            return 2
        value = float(measured.get(name, 0.0))
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"{name} = {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": out["correct"],
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
