"""The result store: sharded, indexed, and the only writable format.

Layout of a store directory::

    <dir>/fabric.json            # store meta (schema tag, shard count)
    <dir>/index.sqlite           # rebuildable location index
    <dir>/shards/shard-000.jsonl # records whose key-hash lands in range
    <dir>/shards/shard-001.jsonl
    ...

Each record is one self-contained canonical-JSON line::

    {"key": "...", "study": "caches", "params": {...},
     "metrics": {...}, "elapsed": 0.12, "created": 1690000000.0}

Records are partitioned by key-hash range (``int(key[:4], 16) %
shards``), so a shard never needs locking beyond the ``O_APPEND``
single-write discipline, and a million-record store opens without
parsing a single record: the SQLite index remembers how far each shard
was indexed and ``refresh`` reads only appended tails.  The last record
per key wins, so reruns are idempotent; ``compact`` rewrites each shard
keeping only that record (atomic temp+rename per shard).

Flat single-file ``store.jsonl`` stores are read only as input:
``repro store migrate`` imports one (:meth:`ShardedResultStore.
import_flat_store`), and opening a directory that contains a
``store.jsonl`` imports any bytes not yet imported.  Both go through
:func:`read_flat_store`, which skips a torn final line and rejects
corruption anywhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.fabric.index import IndexRow, StoreIndex
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
    "read_flat_store",
]

STORE_SCHEMA = "repro.fabric-store/1"
META_NAME = "fabric.json"
DEFAULT_SHARDS = 16
FLAT_NAME = "store.jsonl"


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


def read_flat_store(path: str) -> List[StoredResult]:
    """Every record of a flat ``store.jsonl`` file, in file order.

    A torn *final* line (a crash mid-append) is skipped with a warning —
    the only corruption the append discipline can produce.  An invalid
    line anywhere else means the file was damaged by something other
    than a crash, so raise a ``ValueError`` naming the file and line
    rather than silently dropping records.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    records: List[StoredResult] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            records.append(StoredResult.from_json(line))
        except ValueError as exc:
            if lineno == len(lines):
                warnings.warn(
                    f"{path}: skipping torn final line {lineno} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ValueError(
                f"{path}:{lineno}: corrupt store record ({exc})"
            ) from exc
    return records


def _plain(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Tuples -> lists so params survive the JSON round-trip unchanged."""
    out: Dict[str, Any] = {}
    for key, value in params.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def params_digest(params: Mapping[str, Any]) -> str:
    """Content digest of a record's params (index query column)."""
    blob = canonical_json(dict(params)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:20]


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
    """The result store: JSONL shards plus a SQLite location index.

    ``index_writes=False`` opens the store append-only *and* opens the
    SQLite index read-only: ``put`` writes shard lines but never
    touches SQLite, and index reads retry/degrade instead of raising
    when the owner process is mid-write (a reader must never delete or
    rebuild the owner's index — see :class:`~repro.fabric.index.
    StoreIndex`).  Sweep worker processes and the sweep service's
    second-process readers use this mode; :meth:`refresh` then folds
    appended shard tails into an in-memory *overlay* instead of SQLite,
    so a reader still sees records the owner has appended but not yet
    indexed — and stays fully functional even when the index file is
    unreadable the whole time (worst case: one full shard reparse).
    """

    def __init__(
        self,
        directory: str,
        shards: int = DEFAULT_SHARDS,
        index_writes: bool = True,
        refresh_on_open: bool = True,
    ) -> None:
        self.directory = os.path.abspath(directory)
        if os.path.isfile(self.directory):
            raise ValueError(
                f"{self.directory} is a file, not a store directory; "
                f"flat JSONL stores are import-only: repro store "
                f"migrate {self.directory} DIR"
            )
        self.path = os.path.join(self.directory, META_NAME)
        self.shard_dir = os.path.join(self.directory, "shards")
        self.index_writes = index_writes
        self.skipped_lines = 0
        os.makedirs(self.shard_dir, exist_ok=True)
        meta = self._load_meta()
        if meta is None:
            self.shards = shards
            meta = {"schema": STORE_SCHEMA, "shards": shards,
                    "flat_imported_bytes": 0}
            if index_writes:
                atomic_write_json(self.path, meta)
        else:
            self.shards = int(meta["shards"])
        self._meta = meta
        self.index = StoreIndex(
            os.path.join(self.directory, "index.sqlite"),
            read_only=not index_writes,
        )
        #: Read-only mode's view of rows beyond the index watermarks
        #: (and of this handle's own appends).
        self._overlay: Dict[str, IndexRow] = {}
        self._overlay_marks: Dict[int, int] = {}
        if index_writes:
            self._import_flat()
        if refresh_on_open:
            self.refresh()

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

    # -- migration ------------------------------------------------------
    def _import_flat(self) -> int:
        """Fold an adjacent flat ``store.jsonl`` into the shards.

        Tracks how many flat bytes were already imported, so reopening
        is free and appends made to the flat file *after* a migration
        are picked up incrementally on the next open.
        """
        flat = os.path.join(self.directory, FLAT_NAME)
        if not os.path.exists(flat):
            return 0
        size = os.path.getsize(flat)
        done = int(self._meta.get("flat_imported_bytes", 0))
        if size <= done:
            return 0
        imported = self.import_flat_store(flat)
        self._meta["flat_imported_bytes"] = size
        atomic_write_json(self.path, self._meta)
        return imported

    def import_flat_store(self, flat_path: str) -> int:
        """Copy every live record of a flat JSONL store into the shards."""
        latest = {r.key: r for r in read_flat_store(flat_path)}
        records = sorted(latest.values(), key=lambda r: (r.created, r.key))
        self.put_many(records)
        return len(records)

    # -- reading --------------------------------------------------------
    def refresh(self) -> List[str]:
        """Index shard bytes appended since the last refresh.

        Returns the keys of the records it indexed, in shard order (how
        a sweep's parent process notices its workers' results).

        Only complete lines (ending in ``\\n``) are consumed; a torn
        final line — crash mid-append — stays beyond the watermark and
        is retried (then superseded or compacted away) later.  Complete
        lines that fail to parse are counted and skipped; compaction
        drops them for good.

        The owner (``index_writes=True``) folds the tails into SQLite.
        A read-only handle folds them into its in-memory overlay
        instead, starting from wherever the owner's watermarks stood at
        this poll — second processes see fresh appends without ever
        writing the index.
        """
        rows: List[Tuple[str, int, int, int, str, str, float]] = []
        marks = self.index.watermarks()
        if not self.index_writes:
            for shard, done in self._overlay_marks.items():
                marks[shard] = max(marks.get(shard, 0), done)
        new_marks: Dict[int, int] = {}
        for shard in range(self.shards):
            path = self.shard_path(shard)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            done = marks.get(shard, 0)
            if size <= done:
                continue
            with open(path, "rb") as handle:
                handle.seek(done)
                tail = handle.read()
            offset = done
            for raw in tail.splitlines(keepends=True):
                if not raw.endswith(b"\n"):
                    break  # torn final line: leave for the next refresh
                length = len(raw)
                try:
                    record = StoredResult.from_json(
                        raw.decode("utf-8").strip()
                    )
                    rows.append((
                        record.key, shard, offset, length, record.study,
                        params_digest(record.params), record.created,
                    ))
                except (ValueError, UnicodeDecodeError):
                    self.skipped_lines += 1
                offset += length
            new_marks[shard] = offset
        if not self.index_writes:
            for row in rows:
                self._overlay[row[0]] = IndexRow(*row)
            self._overlay_marks.update(new_marks)
        elif rows or new_marks:
            self.index.upsert(rows, new_marks)
        return [row[0] for row in rows]

    def _read_at(self, shard: int, offset: int, length: int) -> StoredResult:
        with open(self.shard_path(shard), "rb") as handle:
            handle.seek(offset)
            blob = handle.read(length)
        return StoredResult.from_json(blob.decode("utf-8").strip())

    def _read_rows(self, rows: List[Any]) -> Iterator[StoredResult]:
        """Bulk point reads: one open handle per shard, not per record."""
        handles: Dict[int, Any] = {}
        try:
            for row in rows:
                handle = handles.get(row.shard)
                if handle is None:
                    handle = open(self.shard_path(row.shard), "rb")
                    handles[row.shard] = handle
                handle.seek(row.offset)
                blob = handle.read(row.length)
                yield StoredResult.from_json(blob.decode("utf-8").strip())
        finally:
            for handle in handles.values():
                handle.close()

    def _locate(self, key: str) -> Optional[IndexRow]:
        """Index row for ``key``, preferring the newer of index/overlay.

        Same key always lands in the same shard, so a larger byte
        offset is strictly the later append — the live record.
        """
        row = self.index.lookup(key)
        over = self._overlay.get(key)
        if over is not None and (row is None or over.offset >= row.offset):
            return over
        return row

    def get(self, key: str) -> Optional[StoredResult]:
        row = self._locate(key)
        if row is None:
            return None
        record = self._read_at(row.shard, row.offset, row.length)
        if record.key != key:
            if not self.index_writes:
                # A reader must not rewrite the owner's index; treat
                # drift as a miss (always correct for a cache).
                return None
            # Index drifted from the shard (e.g. shard rewritten behind
            # our back): rebuild rather than serve the wrong record.
            warnings.warn(
                f"{self.directory}: index row for {key} pointed at "
                f"{record.key}; reindexing",
                RuntimeWarning,
                stacklevel=2,
            )
            self.reindex()
            row = self.index.lookup(key)
            if row is None:
                return None
            record = self._read_at(row.shard, row.offset, row.length)
        return record

    def get_point(self, point: "ExperimentPoint") -> Optional[StoredResult]:
        return self.get(point.key)

    def __contains__(self, key: str) -> bool:
        return self._locate(key) is not None

    def __len__(self) -> int:
        count = self.index.count()
        count += sum(1 for key in self._overlay
                     if self.index.lookup(key) is None)
        return count

    def _all_rows(self, study: Optional[str]) -> List[IndexRow]:
        """Merged index + overlay rows in (created, key) order."""
        merged = {row.key: row for row in self.index.by_study(study)}
        for key, row in self._overlay.items():
            if study is not None and row.study != study:
                continue
            old = merged.get(key)
            if old is None or row.offset >= old.offset:
                merged[key] = row
        return sorted(merged.values(),
                      key=lambda r: (r.created, r.key))

    def __iter__(self) -> Iterator[StoredResult]:
        yield from self._read_rows(self._all_rows(None))

    def records(self, study: Optional[str] = None) -> List[StoredResult]:
        return list(self._read_rows(self._all_rows(study)))

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
        shard = self.shard_of(record.key)
        payload = (record.to_json() + "\n").encode("utf-8")
        offset, end = append_record(self.shard_path(shard), payload)
        if self.index_writes:
            self.index.upsert(
                [(record.key, shard, offset, len(payload), record.study,
                  params_digest(record.params), record.created)],
                {shard: end},
            )
        else:
            # Append-only handles remember their own writes so a
            # subsequent get() on this handle is not an index miss.
            self._overlay[record.key] = IndexRow(
                record.key, shard, offset, len(payload), record.study,
                params_digest(record.params), record.created)

    def put_many(self, records: List[StoredResult]) -> None:
        """Bulk append: one ``os.write`` and one index transaction per
        shard instead of per record (migration / compaction path)."""
        by_shard: Dict[int, List[StoredResult]] = {}
        for record in records:
            by_shard.setdefault(self.shard_of(record.key), []).append(record)
        rows: List[Tuple[str, int, int, int, str, str, float]] = []
        marks: Dict[int, int] = {}
        for shard, group in sorted(by_shard.items()):
            lines = [(r.to_json() + "\n").encode("utf-8") for r in group]
            blob = b"".join(lines)
            offset, end = append_record(self.shard_path(shard), blob)
            for record, line in zip(group, lines):
                rows.append((
                    record.key, shard, offset, len(line), record.study,
                    params_digest(record.params), record.created,
                ))
                offset += len(line)
            marks[shard] = end
        if self.index_writes and (rows or marks):
            self.index.upsert(rows, marks)

    # -- maintenance ----------------------------------------------------
    def compact(self) -> CompactStats:
        """Rewrite each shard keeping only the live record per key.

        Each shard is replaced atomically (temp+rename), so a reader —
        or a crash — mid-compact sees either the old shard or the new
        one, never a partial rewrite.
        """
        self.refresh()
        records_total = 0
        before = 0
        after = 0
        dropped = 0
        for shard in range(self.shards):
            path = self.shard_path(shard)
            try:
                with open(path, "rb") as handle:
                    old_blob = handle.read()
            except OSError:
                continue
            rows = self.index.by_shard(shard)
            kept = [self._read_at(r.shard, r.offset, r.length)
                    for r in rows]
            lines = [r.to_json() + "\n" for r in kept]
            text = "".join(lines)
            atomic_write_text(path, text)
            self.index.drop_shard(shard)
            new_rows: List[Tuple[str, int, int, int, str, str, float]] = []
            offset = 0
            for record, line in zip(kept, lines):
                length = len(line.encode("utf-8"))
                new_rows.append((
                    record.key, shard, offset, length, record.study,
                    params_digest(record.params), record.created,
                ))
                offset += length
            self.index.upsert(new_rows, {shard: offset})
            records_total += len(kept)
            before += len(old_blob)
            after += offset
            dropped += max(0, old_blob.count(b"\n") - len(kept))
        stats = CompactStats(
            records=records_total,
            bytes_before=before,
            bytes_after=after,
            dropped_lines=dropped,
        )
        return stats

    def reindex(self) -> None:
        """Drop the index and rebuild it from the shard files.

        Read-only handles rebuild their overlay instead — the owner's
        SQLite file is never touched.
        """
        if not self.index_writes:
            self._overlay.clear()
            self._overlay_marks = {shard: 0
                                   for shard in range(self.shards)}
            self.skipped_lines = 0
            self.refresh()
            return
        self.index.reset()
        self.skipped_lines = 0
        self.refresh()

    def clear(self) -> None:
        """Drop every record (shards and index)."""
        for shard in range(self.shards):
            try:
                os.remove(self.shard_path(shard))
            except OSError:
                pass
        self.index.reset()

    def stats(self) -> Dict[str, Any]:
        shard_bytes = {}
        for shard in range(self.shards):
            try:
                shard_bytes[shard] = os.path.getsize(self.shard_path(shard))
            except OSError:
                shard_bytes[shard] = 0
        return {
            "schema": STORE_SCHEMA,
            "directory": self.directory,
            "records": len(self),
            "shards": self.shards,
            "bytes": sum(shard_bytes.values()),
            "shard_bytes": shard_bytes,
            "skipped_lines": self.skipped_lines,
        }

    def close(self) -> None:
        self.index.close()
