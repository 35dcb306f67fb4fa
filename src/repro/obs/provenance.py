"""Run provenance manifests: what produced a stored result, exactly.

A JSONL store row says *what* was measured; the manifest next to it
says *how*: which code revision, package version, interpreter, host,
spec, worker count and wall-clock produced the rows.  Every sweep with
a result store writes ``manifest-<run_id>.json`` into the store's
directory twice: at plan time, before any point runs (the record
``repro sweep --resume RUN_ID`` reads back), and at the end with the
per-point record and totals.  ``repro results`` / ``repro report``
surface the newest one as a provenance header, and ``repro store info``
lists the runs (:func:`list_runs`).

The probes are failure-tolerant: a missing ``git`` binary or a
non-checkout install degrade to ``None`` fields.  Only the plan-time
write may fail a sweep, since a run that cannot be resumed must not
start; the runner logs a failed end-of-run write and goes on.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.fabric.io import atomic_write_json

#: Schema tag so later readers can evolve the format.
MANIFEST_SCHEMA = "repro.manifest/1"

#: The ``repro`` package directory: git probes the checkout holding it.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def manifest_path_for(directory: str, run_id: str) -> str:
    """``manifest-<run_id>.json`` in the store directory."""
    return os.path.join(directory, f"manifest-{run_id}.json")


def list_runs(directory: str) -> List[str]:
    """Run ids with a manifest in ``directory``, oldest write first.

    The one lister of a store's runs: ``repro store info`` prints it,
    the newest heads ``repro results``, and ``resume`` names it when a
    run id is unknown.
    """
    stamped = []
    for path in glob.glob(os.path.join(glob.escape(directory),
                                       "manifest-*.json")):
        try:
            stamped.append((os.path.getmtime(path), path))
        except OSError:
            continue  # removed since the listing
    return [os.path.basename(path)[len("manifest-"):-len(".json")]
            for __, path in sorted(stamped)]


def git_revision(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """``{"revision": ..., "dirty": ...}`` of the work tree holding
    ``cwd``, by default the one this package was imported from.

    Probed once per directory and process: a process runs the code it
    imported, so one probe describes every manifest it writes.
    """
    found = _probe_git(cwd or _PACKAGE_DIR)
    return dict(found) if found is not None else None


@functools.lru_cache(maxsize=None)
def _probe_git(cwd: str) -> Optional[Dict[str, Any]]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, timeout=5,
            capture_output=True, text=True,
        )
        if revision.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd, timeout=5,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {
        "revision": revision.stdout.strip(),
        "dirty": bool(status.returncode == 0 and status.stdout.strip()),
    }


def spec_hash(spec_payload: Mapping[str, Any]) -> str:
    """Stable content hash of a sweep/study spec payload."""
    blob = json.dumps(spec_payload, sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def environment_fingerprint() -> Dict[str, Any]:
    """Interpreter / platform / host identity of this process."""
    from repro import __version__

    return {
        "package_version": __version__,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
    }


def build_manifest(
    *,
    run_id: str,
    spec_payload: Mapping[str, Any],
    workers: int,
    started: float,
    points: Optional[List[Dict[str, Any]]] = None,
    finished: Optional[float] = None,
    store_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    events_path: Optional[str] = None,
    fabric: Optional[Mapping[str, Any]] = None,
    resumed_from: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the manifest dict of one sweep.

    Without ``finished`` it is the plan-time manifest: the run's
    identity and spec, ``"finished": None``.  The end-of-run manifest
    adds ``points``, whose entries carry ``key`` / ``params`` /
    ``cached`` / ``elapsed`` per design point, and their totals.  The
    runner records its execution settings in ``fabric`` (on worker
    processes also the batch plan and the batch counts by state) and,
    on resume, the prior attempt's run id.
    """
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "study": spec_payload.get("study"),
        "spec": dict(spec_payload),
        "spec_hash": spec_hash(spec_payload),
        "git": git_revision(),
        "environment": environment_fingerprint(),
        "workers": workers,
        "started": started,
        "started_iso": _iso(started),
        "finished": finished,
        "store": store_path,
        "trace": trace_path,
        "events": events_path,
    }
    if finished is not None:
        points = list(points or [])
        executed = [p for p in points if not p.get("cached")]
        slowest = max(executed, key=lambda p: p.get("elapsed", 0.0),
                      default=None)
        manifest.update({
            "finished_iso": _iso(finished),
            "wall_time": finished - started,
            "points": points,
            "totals": {
                "points": len(points),
                "cache_hits": len(points) - len(executed),
                "executed": len(executed),
                "slowest_key": slowest["key"] if slowest else None,
                "slowest_elapsed": slowest["elapsed"] if slowest else None,
            },
        })
    if fabric is not None:
        manifest["fabric"] = dict(fabric)
    if resumed_from is not None:
        manifest["resumed_from"] = resumed_from
    return manifest


def write_manifest(path: str, manifest: Mapping[str, Any]) -> None:
    """Atomic write (temp + rename): readers never see a torn manifest."""
    atomic_write_json(path, manifest)


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back, validating the schema tag."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: not a run manifest (expected schema "
            f"{MANIFEST_SCHEMA!r})"
        )
    return payload


def load_run_manifest(directory: str, run_id: str) -> Dict[str, Any]:
    """The manifest of ``run_id`` in ``directory``, its spec hash checked.

    What a resume reads.  An unknown run fails naming the known ones; a
    spec payload that does not hash to the recorded hash fails too, so
    a hand-edited or mixed-up manifest cannot replay the wrong spec
    under a run id that claims otherwise.
    """
    try:
        manifest = load_manifest(manifest_path_for(directory, run_id))
    except FileNotFoundError:
        known = ", ".join(list_runs(directory)) or "none"
        raise FileNotFoundError(
            f"no manifest for run {run_id!r} in {directory} "
            f"(known runs: {known})"
        ) from None
    actual = spec_hash(manifest["spec"])
    if actual != manifest["spec_hash"]:
        raise ValueError(
            f"manifest of run {run_id} is inconsistent: spec payload "
            f"hashes to {actual}, manifest claims {manifest['spec_hash']}"
        )
    return manifest


def describe_manifest(manifest: Mapping[str, Any]) -> str:
    """One provenance line for CLI headers."""
    git = manifest.get("git") or {}
    revision = git.get("revision") or "no-git"
    if git.get("dirty"):
        revision = f"{revision[:12]}+dirty"
    else:
        revision = revision[:12]
    line = (
        f"provenance: run {manifest.get('run_id', '?')} "
        f"@ {revision} v{(manifest.get('environment') or {}).get('package_version', '?')} "
        f"| {manifest.get('study', '?')} "
    )
    workers = f"on {manifest.get('workers', '?')} worker(s)"
    if manifest.get("finished") is None:
        # Still running, stopped or killed; its rows may be stored.
        line += (f"unfinished, started {workers} "
                 f"at {manifest.get('started_iso', '?')}")
    else:
        totals = manifest.get("totals") or {}
        line += (
            f"{totals.get('points', '?')} points "
            f"({totals.get('cache_hits', '?')} cached) "
            f"in {manifest.get('wall_time', 0.0):.2f}s {workers} "
            f"at {manifest.get('finished_iso', '?')}"
        )
    if manifest.get("resumed_from"):
        line += f" [resumed from {manifest['resumed_from']}]"
    return line


def _iso(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(epoch))
