"""Atomic sweep journal: what a run planned, for checkpoint/resume.

One JSON file per run (``journal-<run_id>.json`` in the store
directory) written with temp+rename, exactly like the PR 6 provenance
manifests: a resume must read either the complete plan or nothing — a
torn journal would silently re-plan the wrong batches, which is worse
than no journal at all.

The journal records the run's identity (``run_id``, the canonical spec
payload and its hash) and the batch plan (hash-range batches of point
keys with their fully-bound params).  Every run with a store writes
one, whichever executor runs it.  Progress deliberately lives
elsewhere, in the store (which points exist), which changes thousands
of times per run; the journal is written once at plan time, so
``repro sweep --resume RUN_ID`` verifies the spec hash and plans the
rest against the store.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.fabric.io import atomic_write_json
from repro.obs.provenance import spec_hash

if TYPE_CHECKING:
    from repro.experiments.spec import SweepSpec

__all__ = [
    "JOURNAL_SCHEMA",
    "BatchPlan",
    "SweepJournal",
    "journal_path",
    "load_journal",
    "list_runs",
    "plan_batches",
]

JOURNAL_SCHEMA = "repro.journal/1"


@dataclass(frozen=True)
class BatchPlan:
    """One hash-range batch of pending points."""

    batch_id: str
    keys: Tuple[str, ...]
    params: Tuple[Dict[str, Any], ...]

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class SweepJournal:
    """The immutable plan of one fabric run."""

    run_id: str
    study: str
    spec_payload: Dict[str, Any]
    spec_hash: str
    store_dir: str
    batches: List[BatchPlan]
    cached: int = 0
    workers: int = 1
    batch_size: int = 1
    created: float = 0.0
    schema: str = JOURNAL_SCHEMA

    def spec(self) -> "SweepSpec":
        """Reconstruct the sweep spec this run was planned from."""
        # Imported here: the runner that writes journals imports this
        # module, and importing repro.experiments loads that runner.
        from repro.experiments.spec import SweepSpec

        return SweepSpec.from_payload(self.spec_payload)

    def batch(self, batch_id: str) -> BatchPlan:
        for batch in self.batches:
            if batch.batch_id == batch_id:
                return batch
        raise KeyError(f"run {self.run_id} has no batch {batch_id!r}")

    @property
    def pending_points(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def verify(self) -> None:
        """Fail loudly if payload and recorded hash disagree.

        Catches a hand-edited or mixed-up journal before it can replay
        the wrong spec under a run_id that claims otherwise.
        """
        actual = spec_hash(self.spec_payload)
        if actual != self.spec_hash:
            raise ValueError(
                f"journal for run {self.run_id} is inconsistent: spec "
                f"payload hashes to {actual}, journal claims "
                f"{self.spec_hash}"
            )

    # -- serialisation --------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "study": self.study,
            "spec": self.spec_payload,
            "spec_hash": self.spec_hash,
            "store_dir": self.store_dir,
            "cached": self.cached,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "created": self.created,
            "batches": [
                {"id": b.batch_id, "keys": list(b.keys),
                 "params": [dict(p) for p in b.params]}
                for b in self.batches
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepJournal":
        if payload.get("schema") != JOURNAL_SCHEMA:
            raise ValueError(
                f"unsupported journal schema {payload.get('schema')!r} "
                f"(expected {JOURNAL_SCHEMA})"
            )
        batches = [
            BatchPlan(
                batch_id=b["id"],
                keys=tuple(b["keys"]),
                params=tuple(dict(p) for p in b["params"]),
            )
            for b in payload.get("batches", [])
        ]
        return cls(
            run_id=payload["run_id"],
            study=payload["study"],
            spec_payload=dict(payload["spec"]),
            spec_hash=payload["spec_hash"],
            store_dir=payload.get("store_dir", ""),
            batches=batches,
            cached=int(payload.get("cached", 0)),
            workers=int(payload.get("workers", 1)),
            batch_size=int(payload.get("batch_size", 1)),
            created=float(payload.get("created", 0.0)),
        )

    def save(self) -> str:
        path = journal_path(self.store_dir, self.run_id)
        atomic_write_json(path, self.to_payload())
        return path


def journal_path(directory: str, run_id: str) -> str:
    return os.path.join(directory, f"journal-{run_id}.json")


def load_journal(directory: str, run_id: str) -> SweepJournal:
    path = journal_path(directory, run_id)
    if not os.path.exists(path):
        known = ", ".join(list_runs(directory)) or "none"
        raise FileNotFoundError(
            f"no journal for run {run_id!r} in {directory} "
            f"(known runs: {known})"
        )
    with open(path) as handle:
        payload = json.load(handle)
    journal = SweepJournal.from_payload(payload)
    journal.verify()
    return journal


def list_runs(directory: str) -> List[str]:
    """Run ids with a journal in ``directory``, oldest first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    stamped = []
    for name in sorted(names):
        if name.startswith("journal-") and name.endswith(".json"):
            run_id = name[len("journal-"):-len(".json")]
            stamped.append(
                (os.path.getmtime(os.path.join(directory, name)), run_id)
            )
    return [run_id for __, run_id in sorted(stamped)]


def plan_batches(
    pending: List[Tuple[str, Dict[str, Any]]],
    batch_size: int,
) -> List[BatchPlan]:
    """Chunk pending ``(key, bound_params)`` pairs into hash-range
    batches.

    Sorting by content hash *is* the range partition: each batch owns a
    contiguous slice of key space, so any scheduler replanning the same
    pending set produces the same batches regardless of grid order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ordered = sorted(pending, key=lambda item: item[0])
    total = len(ordered)
    count = math.ceil(total / batch_size) if total else 0
    batches = []
    for i in range(count):
        chunk = ordered[i * batch_size:(i + 1) * batch_size]
        batches.append(BatchPlan(
            batch_id=f"b{i:04d}",
            keys=tuple(key for key, __ in chunk),
            params=tuple(dict(params) for __, params in chunk),
        ))
    return batches
