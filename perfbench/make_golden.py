"""Regenerate ``golden.json``: the digest of every point a run can draw.

    python3 perfbench/make_golden.py

Runs each point once on the reference backend (about two minutes) and
writes ``{golden key: metrics digest}``.  Only regenerate when a change
is *meant* to alter simulated results; a speed-up must leave the file
unchanged.
"""

from __future__ import annotations

import json
import sys

import harness


def main() -> int:
    harness.require_program()
    import inprocess
    import sweep

    digests = {}
    points = inprocess.golden_points() + sweep.golden_points()
    for index, (study, params) in enumerate(points):
        __, bound, metrics = inprocess.execute(study, params)
        digests[harness.golden_key(study, bound)] = \
            harness.metrics_digest(metrics)
        if index % 100 == 0:
            print(f"{index}/{len(points)} {study} {params}", flush=True)
    with open(harness.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"points": len(points), "digests": digests}, handle,
                  indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {harness.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
