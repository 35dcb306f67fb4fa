"""The result store: a directory of JSONL shards.

Layout of a store directory::

    <dir>/fabric.json            # store meta (schema tag, shard count)
    <dir>/shards/shard-000.jsonl # records whose key-hash lands in range
    <dir>/shards/shard-001.jsonl
    ...

Each record is one self-contained canonical-JSON line::

    {"key": "...", "study": "caches", "params": {...},
     "metrics": {...}, "elapsed": 0.12, "created": 1690000000.0}

Records are partitioned by key-hash range (``int(key[:4], 16) %
shards``), so a shard never needs locking beyond the ``O_APPEND``
single-write discipline.  The shards are the store's only state: there
is no index to keep in step with them, so every handle — the sweep's
parent, its worker processes, the service's per-job runners — reads
the same way.  :meth:`ShardedResultStore.get` reads the key's shard and
searches it backwards for the key's bytes; study queries parse whole
shards.  Only complete lines (ending in ``\\n``) count: a torn
in-flight append stays invisible.  The last record per key wins, so
reruns are idempotent; ``compact`` rewrites each shard keeping only
that record (atomic temp+rename per shard).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.fabric.io import (
    append_record,
    atomic_write_json,
    atomic_write_text,
    canonical_json,
)

if TYPE_CHECKING:
    from repro.experiments.spec import ExperimentPoint

__all__ = [
    "STORE_SCHEMA",
    "CompactStats",
    "ShardedResultStore",
    "StoredResult",
    "default_store_path",
]

STORE_SCHEMA = "repro.fabric-store/1"
META_NAME = "fabric.json"
DEFAULT_SHARDS = 16


def default_store_path() -> str:
    """``benchmarks/results/fabric`` anchored at the repo root.

    Falls back to the current working directory when the package is
    installed outside a checkout (no ``benchmarks/`` sibling).
    """
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    candidate = os.path.join(root, "benchmarks")
    if not os.path.isdir(candidate):
        candidate = os.path.join(os.getcwd(), "benchmarks")
    return os.path.join(candidate, "results", "fabric")


@dataclass
class StoredResult:
    """One cached design-point outcome."""

    key: str
    study: str
    params: Dict[str, Any]
    metrics: Dict[str, Any]
    elapsed: float = 0.0
    created: float = field(default_factory=time.time)

    def to_json(self) -> str:
        return canonical_json({
            "key": self.key,
            "study": self.study,
            "params": self.params,
            "metrics": self.metrics,
            "elapsed": self.elapsed,
            "created": self.created,
        })

    @classmethod
    def from_json(cls, line: str) -> "StoredResult":
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise ValueError(
                f"store record is {type(payload).__name__}, not an object"
            )
        missing = [f for f in ("key", "study") if f not in payload]
        if missing:
            raise ValueError(
                "store record missing field(s): " + ", ".join(missing)
            )
        return cls(
            key=payload["key"],
            study=payload["study"],
            params=payload.get("params", {}),
            metrics=payload.get("metrics", {}),
            elapsed=payload.get("elapsed", 0.0),
            created=payload.get("created", 0.0),
        )


def _plain(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Tuples -> lists so params survive the JSON round-trip unchanged."""
    out: Dict[str, Any] = {}
    for key, value in params.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _parse(line: bytes) -> Optional[StoredResult]:
    """The record on one shard line, or ``None`` if it does not parse."""
    try:
        return StoredResult.from_json(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None


def _complete_lines(blob: bytes) -> List[bytes]:
    """The newline-terminated lines of ``blob``; a torn tail is dropped."""
    lines = blob.split(b"\n")
    lines.pop()  # the torn tail, or b"" after the final newline
    return lines


def _live(blob: bytes, needle: Optional[bytes] = None
          ) -> Tuple[Dict[str, StoredResult], int]:
    """``(last record per key, unparseable lines)`` in one shard's bytes.

    Lines lacking ``needle`` are skipped unparsed.
    """
    latest: Dict[str, StoredResult] = {}
    skipped = 0
    for line in _complete_lines(blob):
        if needle is not None and needle not in line:
            continue
        record = _parse(line)
        if record is None:
            skipped += 1
        else:
            latest[record.key] = record
    return latest, skipped


def _in_order(records: Iterable[StoredResult]) -> List[StoredResult]:
    """The store's listing order: by creation time, then key."""
    return sorted(records, key=lambda r: (r.created, r.key))


@dataclass(frozen=True)
class CompactStats:
    """Outcome of :meth:`ShardedResultStore.compact`."""

    records: int
    bytes_before: int
    bytes_after: int
    dropped_lines: int

    @property
    def reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after


class ShardedResultStore:
    """The result store: a directory of JSONL shards.

    Any number of handles, in any number of processes, may read and
    append at once; none keeps state another depends on.
    ``index_writes=False`` only stops this handle from creating
    ``fabric.json`` when the directory has none.
    """

    def __init__(
        self,
        directory: str,
        shards: int = DEFAULT_SHARDS,
        index_writes: bool = True,
    ) -> None:
        self.directory = os.path.abspath(directory)
        if os.path.isfile(self.directory):
            raise ValueError(
                f"{self.directory} is a file, not a store directory"
            )
        self.path = os.path.join(self.directory, META_NAME)
        self.shard_dir = os.path.join(self.directory, "shards")
        os.makedirs(self.shard_dir, exist_ok=True)
        meta = self._load_meta()
        if meta is None:
            self.shards = shards
            if index_writes:
                atomic_write_json(self.path, {"schema": STORE_SCHEMA,
                                              "shards": shards})
        else:
            self.shards = int(meta["shards"])

    # -- layout ---------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Hash-range partition: leading 16 bits of the point key."""
        return int(key[:4], 16) % self.shards

    def shard_path(self, shard: int) -> str:
        return os.path.join(self.shard_dir, f"shard-{shard:03d}.jsonl")

    def _load_meta(self) -> Optional[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return None
        with open(self.path) as handle:
            payload = json.load(handle)
        if payload.get("schema") != STORE_SCHEMA:
            raise ValueError(
                f"{self.path}: unsupported store schema "
                f"{payload.get('schema')!r} (expected {STORE_SCHEMA})"
            )
        return dict(payload)

    def _size(self, shard: int) -> int:
        try:
            return os.path.getsize(self.shard_path(shard))
        except FileNotFoundError:
            return 0

    def _read(self, shard: int) -> bytes:
        try:
            with open(self.shard_path(shard), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    # -- reading --------------------------------------------------------
    def get(self, key: str) -> Optional[StoredResult]:
        """The live record for ``key``: the last complete line holding it.

        Searches the key's shard backwards for the bytes
        ``"key":"<key>"`` and parses only the line each hit lands in.
        Anything that is not a point key is a miss, never an error.
        """
        try:
            shard = self.shard_of(key)
        except ValueError:
            return None
        blob = self._read(shard)
        needle = b'"key":' + json.dumps(key).encode("utf-8")
        hit = blob.rfind(needle, 0, blob.rfind(b"\n") + 1)
        while hit >= 0:
            start = blob.rfind(b"\n", 0, hit) + 1
            record = _parse(blob[start:blob.find(b"\n", hit)])
            if record is not None and record.key == key:
                return record
            hit = blob.rfind(needle, 0, start)
        return None

    def get_point(self, point: "ExperimentPoint") -> Optional[StoredResult]:
        return self.get(point.key)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def _scan(self, study: Optional[str] = None
              ) -> Tuple[Dict[str, StoredResult], int]:
        """``(live record per key, unparseable lines)`` over all shards.

        With ``study``, lines lacking ``"study":"<study>"`` are skipped
        unparsed: canonical JSON puts those bytes in every record of it.
        """
        needle = (None if study is None
                  else b'"study":' + json.dumps(study).encode("utf-8"))
        latest: Dict[str, StoredResult] = {}
        skipped = 0
        for shard in range(self.shards):
            live, bad = _live(self._read(shard), needle)
            latest.update(live)
            skipped += bad
        if study is not None:
            latest = {key: record for key, record in latest.items()
                      if record.study == study}
        return latest, skipped

    def records(self, study: Optional[str] = None) -> List[StoredResult]:
        """Live records (of ``study``, if given) in (created, key) order."""
        return _in_order(self._scan(study)[0].values())

    def __iter__(self) -> Iterator[StoredResult]:
        return iter(self.records())

    def __len__(self) -> int:
        return len(self._scan()[0])

    # -- writing --------------------------------------------------------
    def put(
        self,
        point: "ExperimentPoint",
        metrics: Mapping[str, Any],
        elapsed: float = 0.0,
    ) -> StoredResult:
        record = StoredResult(
            key=point.key,
            study=point.study,
            params=_plain(point.as_dict()),
            metrics=dict(metrics),
            elapsed=elapsed,
        )
        self.put_record(record)
        return record

    def put_record(self, record: StoredResult) -> None:
        append_record(self.shard_path(self.shard_of(record.key)),
                      (record.to_json() + "\n").encode("utf-8"))

    # -- maintenance ----------------------------------------------------
    def compact(self) -> CompactStats:
        """Rewrite each shard keeping only the live record per key.

        Each shard is replaced atomically (temp+rename), so a reader —
        or a crash — mid-compact sees either the old shard or the new
        one, never a partial rewrite.  Unparseable lines and a torn
        final line are dropped.
        """
        records_total = 0
        before = 0
        after = 0
        dropped = 0
        for shard in range(self.shards):
            path = self.shard_path(shard)
            if not os.path.exists(path):
                continue
            old_blob = self._read(shard)
            kept = _in_order(_live(old_blob)[0].values())
            text = "".join(r.to_json() + "\n" for r in kept)
            atomic_write_text(path, text)
            size = len(text.encode("utf-8"))
            records_total += len(kept)
            before += len(old_blob)
            after += size
            dropped += max(0, old_blob.count(b"\n") - len(kept))
        return CompactStats(
            records=records_total,
            bytes_before=before,
            bytes_after=after,
            dropped_lines=dropped,
        )

    def clear(self) -> None:
        """Drop every record."""
        for shard in range(self.shards):
            try:
                os.remove(self.shard_path(shard))
            except OSError:
                pass

    def stats(self) -> Dict[str, Any]:
        """Counts from one scan of the shards: records, bytes, and the
        complete lines that fail to parse (``skipped_lines``)."""
        shard_bytes = {shard: self._size(shard)
                       for shard in range(self.shards)}
        latest, skipped = self._scan()
        return {
            "schema": STORE_SCHEMA,
            "directory": self.directory,
            "records": len(latest),
            "shards": self.shards,
            "bytes": sum(shard_bytes.values()),
            "shard_bytes": shard_bytes,
            "skipped_lines": skipped,
        }

    def close(self) -> None:
        """Nothing to release: a handle holds no open files."""
