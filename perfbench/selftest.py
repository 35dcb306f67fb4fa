"""The benchmark's own tests (about three minutes).

    python3 -m pytest perfbench/selftest.py -q

They check that BENCHMARK.json keeps to its contract, that every run
emits every metric it declares, that exact work counts repeat across
processes, that a second seed runs clean, and that a perturbed golden
digest is reported as a failure.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics each workload must measure (non-zero) when traced.
EXERCISED = {
    "penelope": [
        "workloads.trace_synth.us_per_uop",
        "uarch.core.baseline.us_per_uop", "uarch.core.profile.us_per_uop",
        "uarch.core.uops", "uarch.core.scheduler_allocs",
        "uarch.core.rf_writes", "uarch.core.rf_releases",
        "uarch.core.dl0_accesses", "uarch.core.dtlb_accesses",
        "core.protected.us_per_uop", "core.hooks.overhead_ratio",
        "circuits.adder_aging.s_per_point", "circuits.gate_evals",
        "metrics.flatten.us_per_point", "setup.import_s",
    ],
    "cache_replay": [
        "workloads.addr_synth.us_per_access", "uarch.backends.accesses",
        "uarch.backends.reference.us_per_access",
        "uarch.backends.vectorized.us_per_access",
        "core.cache_like.line.reference.us_per_access",
        "core.cache_like.line.vectorized.us_per_access",
        "core.cache_like.set.reference.us_per_access",
        "core.cache_like.set.vectorized.us_per_access",
        "uarch.backends.vectorized.speedup.line",
        "uarch.backends.vectorized.speedup.set",
        "metrics.flatten.us_per_point", "setup.import_s",
    ],
    "sweep_service": [
        "experiments.plan_ms", "experiments.point_exec_ms.p50",
        "experiments.cache_hit_frac", "fabric.exec_per_key",
        "fabric.shard_lines_per_key", "fabric.queue_wait_ms.p50",
        "fabric.store_open_ms", "fabric.store_get_us",
        "service.submit_ms", "service.status_ms", "service.ws.events",
        "service.ws.lag_ms.p50", "service.cold_points_per_s",
        "service.warm_points_per_s", "service.query_ms.p50",
        "service.query_ms.tail", "obs.events_per_point",
        "obs.event_log_bytes", "obs.trace_overhead_frac",
        "setup.import_s", "setup.serve_ready_s",
    ],
}

#: Exact counts: identical across processes for one seed.
EXACT = {
    "penelope": ["uarch.core.uops", "uarch.core.scheduler_allocs",
                 "uarch.core.rf_writes", "uarch.core.rf_releases",
                 "uarch.core.dl0_accesses", "uarch.core.dtlb_accesses",
                 "circuits.gate_evals"],
    "cache_replay": ["uarch.backends.accesses"],
    "sweep_service": ["fabric.shard_lines_per_key", "fabric.exec_per_key",
                      "experiments.cache_hit_frac", "service.ws.dropped",
                      "fabric.lease_stolen", "fabric.point_retry"],
}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def test_contract_is_valid(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["perfbench"]
    assert 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])
    for workload, exercised in EXERCISED.items():
        layer_names = {m["name"] for m in contract["per_layer"]}
        assert set(exercised) <= layer_names, workload


def test_tail_needs_ten_samples_beyond():
    assert harness.tail(list(range(1, 21)))[:2] == (50.0, 10)
    pct, value, n = harness.tail([float(i) for i in range(1000)])
    assert (pct, n) == (99.0, 1000) and value == 989.0


def test_golden_key_ignores_backend():
    harness.require_program()
    params = {"suite": "office", "length": 400, "seed": 3}
    assert (harness.golden_key("caches", {**params, "backend": "vectorized"})
            == harness.golden_key("caches", params))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_runs_emit_every_metric_and_repeat(contract, workload):
    untraced = bench(workload, 2, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"]
                                        for m in contract["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    first, second = bench(workload, 1, 1), bench(workload, 1, 1)
    for traced in (first, second):
        assert traced["correct"]
        assert set(traced["metrics"]) == {m["name"]
                                          for m in contract["per_layer"]}
        for name in EXERCISED[workload]:
            assert traced["metrics"][name]["value"] > 0, name
    for name in EXACT[workload]:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_perturbed_golden_is_a_failure(tmp_path, monkeypatch, capsys):
    with open(harness.GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    golden["digests"] = {key: "0" * 16 for key in golden["digests"]}
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    monkeypatch.setattr(harness, "GOLDEN_PATH", str(perturbed))
    status = run.main(["--workload", "cache_replay", "--seed", "1",
                       "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
