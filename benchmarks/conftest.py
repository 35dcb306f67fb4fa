"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Heavy
artefacts (traces, baseline core runs) are session-scoped; each module
prints its artefact and also writes it under ``benchmarks/results/``,
where the measured numbers are read; README's Performance section
cites the timed ones.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

import pytest

from repro.uarch import TraceDrivenCore
from repro.workloads import TraceGenerator, suite_names

#: Smoke mode (`repro bench-smoke` / REPRO_BENCH_SMOKE=1): every bench
#: executes end to end with scaled-down workloads and its shape
#: assertions relaxed, so API rot is caught without paying full-size
#: runs.  Artefacts are diverted to a separate directory so smoke runs
#: never clobber the full-size results in ``benchmarks/results/``.
_SMOKE_ENV = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

#: Workload divisor; >1 shrinks every bench's trace/stream lengths.
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "10" if _SMOKE_ENV else "1"))

#: The full-size shape assertions only hold for full-size workloads, so
#: ANY scaled run relaxes them — REPRO_BENCH_SCALE>1 without the smoke
#: flag must not fail anchors like fig6's `int_base > 0.85`.
SMOKE = _SMOKE_ENV or SCALE > 1


def scaled(n: int, floor: int = 200) -> int:
    """``n`` shrunk by the bench scale factor, but never below ``floor``."""
    return max(min(floor, n), n // SCALE)


#: Scaled-down study shape: one trace per Table 1 suite.
BENCH_SEED = 1234
BENCH_TRACE_LENGTH = scaled(6000)

RESULTS_DIR = os.environ.get(
    "REPRO_BENCH_RESULTS_DIR",
    os.path.join(os.path.dirname(__file__),
                 "results" if SCALE == 1 else "results-scaled"),
)


def write_result(
    name: str, text: str, data: Optional[Dict[str, Any]] = None
) -> None:
    """Persist a rendered artefact under :data:`RESULTS_DIR`.

    Alongside the text artefact a machine-readable ``<stem>.json`` is
    written (the rendered text plus whatever structured ``data`` the
    bench hands over), so BENCH_*.json trajectories can be tracked
    across commits without parsing ASCII tables.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    stem = os.path.splitext(name)[0]
    payload = {"name": stem, "text": text}
    if data is not None:
        payload["data"] = data
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def workload():
    """One trace per suite (the paper's 531 traces, scaled)."""
    generator = TraceGenerator(seed=BENCH_SEED)
    return [
        generator.generate(suite, length=BENCH_TRACE_LENGTH)
        for suite in suite_names()
    ]


@pytest.fixture(scope="session")
def baseline_results(workload) -> Dict[str, object]:
    """Baseline (unprotected) core runs, one per suite."""
    results = {}
    for trace in workload:
        results[trace.suite] = TraceDrivenCore().run(trace)
    return results


@pytest.fixture(scope="session")
def adder32():
    from repro.circuits import build_ladner_fischer_adder

    return build_ladner_fischer_adder(width=32)
