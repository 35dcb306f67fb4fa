"""Lease board: TTL + heartbeat batch ownership over SQLite.

The board is the one piece of mutable shared state in the fabric.
Workers (processes today, hosts tomorrow — anything that can open the
store directory) claim batches with :meth:`LeaseBoard.acquire`, renew
ownership with :meth:`heartbeat` while executing, and mark
:meth:`complete` / :meth:`fail`.  A lease that outlives its TTL without
a heartbeat is *stolen* by the next acquirer — a SIGKILLed worker's
batch is re-run, never lost — and every acquisition bumps the batch's
attempt counter so a poisoned batch stops retrying at
``max_attempts`` instead of crash-looping the fleet.

State machine per ``(run_id, batch_id)`` row::

    pending ──acquire──> leased ──complete──> done
       ^                  │  │
       │     deadline <   │  └──fail──> failed ──acquire──> leased
       └─ (re-acquire ────┘      (while attempts < max_attempts)
           = steal)

Claims run under ``BEGIN IMMEDIATE`` so concurrent workers serialise on
SQLite's file lock; unlike the result shards (append-only) the board
needs real transactional writes, which is exactly what stdlib SQLite
provides without a server.
"""

from __future__ import annotations

import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Lease", "LeaseBoard", "LEASES_NAME"]

LEASES_NAME = "leases.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS batches (
    run_id TEXT NOT NULL,
    batch_id TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    owner TEXT,
    deadline REAL NOT NULL DEFAULT 0,
    heartbeat REAL NOT NULL DEFAULT 0,
    attempts INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    updated REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, batch_id)
);
"""


@dataclass(frozen=True)
class Lease:
    """A successful claim returned by :meth:`LeaseBoard.acquire`."""

    run_id: str
    batch_id: str
    owner: str
    attempts: int
    deadline: float
    #: True when this claim took over an expired lease (or a failed
    #: attempt) from another owner — the killed-worker recovery path.
    stolen: bool = False
    prev_owner: Optional[str] = None


class LeaseBoard:
    """Shared batch-ownership table in the store directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Autocommit connection: transactions are explicit (`BEGIN
        # IMMEDIATE`) so a claim is one short write-locked critical
        # section, not whatever the driver's implicit mode decides.
        self._conn = sqlite3.connect(path, timeout=30.0,
                                     isolation_level=None)
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)

    # -- plan -----------------------------------------------------------
    def register(self, run_id: str, batch_ids: List[str]) -> None:
        """Create pending rows; existing rows (resume) keep their state."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT OR IGNORE INTO batches "
                "(run_id, batch_id, state, updated) "
                "VALUES (?, ?, 'pending', ?)",
                [(run_id, batch_id, time.time())
                 for batch_id in batch_ids],
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise

    # -- claim / renew / settle ----------------------------------------
    def acquire(
        self,
        run_id: str,
        owner: str,
        ttl: float,
        max_attempts: int,
        now: Optional[float] = None,
    ) -> Optional[Lease]:
        """Claim one batch: pending, expired-leased, or retryable-failed.

        Returns ``None`` when nothing is currently claimable (all done,
        all attempts exhausted, or every live lease still within TTL).
        """
        now = time.time() if now is None else now
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT batch_id, state, owner, attempts FROM batches "
                "WHERE run_id = ? AND attempts < ? AND ("
                "  state = 'pending' OR state = 'failed' "
                "  OR (state = 'leased' AND deadline < ?)"
                ") ORDER BY batch_id LIMIT 1",
                (run_id, max_attempts, now),
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return None
            batch_id, state, prev_owner, attempts = row
            deadline = now + ttl
            self._conn.execute(
                "UPDATE batches SET state = 'leased', owner = ?, "
                "deadline = ?, heartbeat = ?, attempts = ?, updated = ? "
                "WHERE run_id = ? AND batch_id = ?",
                (owner, deadline, now, attempts + 1, now,
                 run_id, batch_id),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return Lease(
            run_id=run_id,
            batch_id=batch_id,
            owner=owner,
            attempts=attempts + 1,
            deadline=deadline,
            stolen=state in ("leased", "failed"),
            prev_owner=prev_owner,
        )

    def heartbeat(
        self,
        run_id: str,
        batch_id: str,
        owner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> bool:
        """Extend a live lease; False means it was already lost."""
        now = time.time() if now is None else now
        cursor = self._conn.execute(
            "UPDATE batches SET deadline = ?, heartbeat = ?, updated = ? "
            "WHERE run_id = ? AND batch_id = ? AND owner = ? "
            "AND state = 'leased'",
            (now + ttl, now, now, run_id, batch_id, owner),
        )
        return cursor.rowcount > 0

    def complete(self, run_id: str, batch_id: str, owner: str) -> bool:
        cursor = self._conn.execute(
            "UPDATE batches SET state = 'done', updated = ? "
            "WHERE run_id = ? AND batch_id = ? AND owner = ? "
            "AND state = 'leased'",
            (time.time(), run_id, batch_id, owner),
        )
        return cursor.rowcount > 0

    def fail(self, run_id: str, batch_id: str, owner: str,
             error: str) -> bool:
        cursor = self._conn.execute(
            "UPDATE batches SET state = 'failed', error = ?, updated = ? "
            "WHERE run_id = ? AND batch_id = ? AND owner = ? "
            "AND state = 'leased'",
            (error[:500], time.time(), run_id, batch_id, owner),
        )
        return cursor.rowcount > 0

    # -- queries --------------------------------------------------------
    def counts(self, run_id: str) -> Dict[str, int]:
        rows = self._conn.execute(
            "SELECT state, COUNT(*) FROM batches WHERE run_id = ? "
            "GROUP BY state",
            (run_id,),
        ).fetchall()
        return {state: int(n) for state, n in rows}

    def remaining(self, run_id: str, max_attempts: int) -> int:
        """Batches that are not done and can still make progress."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM batches WHERE run_id = ? "
            "AND state != 'done' AND NOT "
            "(state = 'failed' AND attempts >= ?)",
            (run_id, max_attempts),
        ).fetchone()
        return int(row[0])

    def done_batches(self, run_id: str) -> List[str]:
        rows = self._conn.execute(
            "SELECT batch_id FROM batches WHERE run_id = ? "
            "AND state = 'done' ORDER BY batch_id",
            (run_id,),
        ).fetchall()
        return [r[0] for r in rows]

    def exhausted(self, run_id: str,
                  max_attempts: int) -> List[Dict[str, str]]:
        """Failed batches with no attempts left, plus their last error."""
        rows = self._conn.execute(
            "SELECT batch_id, COALESCE(error, '') FROM batches "
            "WHERE run_id = ? AND state = 'failed' AND attempts >= ? "
            "ORDER BY batch_id",
            (run_id, max_attempts),
        ).fetchall()
        return [{"batch": b, "error": e} for b, e in rows]

    def last_heartbeat(self, run_id: str) -> Optional[float]:
        row = self._conn.execute(
            "SELECT MAX(heartbeat) FROM batches WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        return float(row[0]) if row and row[0] else None

    def close(self) -> None:
        self._conn.close()
