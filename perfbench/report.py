"""Which layer dominates each workload: traced runs, layer shares.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Runs every workload once with ``--trace 1`` and prints its layer table,
its dominant layer and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=600)
        print(f"== {workload} (exit {proc.returncode})")
        if proc.returncode == 2:
            print(proc.stderr, end="")
            status = 2
            continue
        lines = proc.stdout.splitlines()
        start = next((i for i, line in enumerate(lines)
                      if line.startswith("layer shares")), len(lines))
        end = next((i for i, line in enumerate(lines)
                    if line.startswith("dominant layer")), start)
        print("\n".join(lines[start:end + 1]))
        metrics = json.loads(lines[-1])["metrics"]
        print("obs.trace_overhead_frac = "
              f"{metrics['obs.trace_overhead_frac']['value']:.4f}")
        status = max(status, proc.returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
