"""Sweep execution: one planner feeding one of two executors.

:class:`SweepRunner` is the only sweep engine.  Every run goes through:

1. **Plan** — expand and bind the spec (:func:`bind_spec_points`), serve
   points already in the store as cache hits, dedupe the rest by
   content hash and — for every run that has a store — write
   ``journal-<run_id>.json`` (:mod:`repro.fabric.journal`) before
   executing anything.
2. **Execute** — ``workers=1`` runs the pending points in this process,
   in spec order, with no lease board.  ``workers>1`` starts worker
   processes that lease hash-range batches off the
   :class:`~repro.fabric.lease.LeaseBoard` in the store directory (a
   temporary one when ``store=None``), keep each lease alive from a
   heartbeat thread, and append results to the shards.  A worker that
   dies loses only its lease: a sibling steals the batch.
3. **Resume** — :meth:`SweepRunner.resume` reloads the journal, checks
   its spec hash and plans again against the store, so whatever the
   stopped or killed run stored comes back as cache hits and the
   resumed sweep is bit-identical to an uninterrupted one.

Both executors share :meth:`SweepRunner.request_stop`, the per-point
timeout and retry settings (:class:`RunSettings`), the event log, the
spans and the provenance manifest.  Results come back in spec order
whichever executor ran them, so parallel and serial sweeps are
bit-identical (differential-tested).

Observability: every run carries a ``run_id``; store-backed runs append
to ``events.jsonl`` and write ``manifest.json`` next to the store.
Each point slot gets exactly one ``point_done`` event: executed points
are logged by whoever ran them, cached and duplicate slots by the
planner.  With the tracer on, worker processes write their span rings
through :mod:`repro.fabric.io` and the parent merges them after join,
adding one ``sweep.queue_wait`` span per executed point.  None of it
touches the computation: results are bit-identical with observability
on or off.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.experiments.registry import get_study
from repro.experiments.spec import ExperimentPoint, SweepSpec
from repro.fabric.io import atomic_write_text
from repro.fabric.journal import (
    SweepJournal,
    journal_path,
    load_journal,
    plan_batches,
)
from repro.fabric.lease import LEASES_NAME, Lease, LeaseBoard
from repro.fabric.store import ShardedResultStore
from repro.metrics import MetricSet
from repro.obs.log import EventLog, new_run_id
from repro.obs.provenance import (
    build_manifest,
    manifest_path_for,
    spec_hash,
    write_manifest,
)
from repro.obs.trace import TRACER, load_spans, spans_text

#: Event-log filename written next to a sweep's result store.
EVENTS_NAME = "events.jsonl"

#: Env-var fault hook: set to ``kill-worker`` to make the first process
#: that stores a point into a store directory SIGKILL itself right
#: after the write — a deterministic mid-run death for the crash/resume
#: tests and CI's resume-smoke, without racing on pids.
FAULT_ENV = "REPRO_FABRIC_FAULT"
FAULT_MARKER = ".fault-fired"

#: A lease-board worker's first wait for a batch another worker holds;
#: each further wait doubles, up to a quarter of the lease TTL (at most
#: 0.2 s).
IDLE_WAIT = 0.005


class PointExecutionError(RuntimeError):
    """A study function raised while executing one design point.

    Wraps the original error with the point's content hash and bound
    parameters, so a sweep failure names *which* point died instead of
    surfacing a bare worker traceback.  Picklable (``__reduce__``
    re-carries the structured fields).
    """

    def __init__(self, message: str, key: str = "", study: str = "",
                 params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.key = key
        self.study = study
        self.params = dict(params or {})

    @classmethod
    def wrap(cls, point: ExperimentPoint,
             cause: BaseException) -> "PointExecutionError":
        return cls(
            f"study {point.study!r} point {point.key} "
            f"({point.describe()}) failed: "
            f"{type(cause).__name__}: {cause}",
            key=point.key, study=point.study, params=point.as_dict(),
        )

    def __reduce__(self):
        return (type(self),
                (self.args[0], self.key, self.study, self.params))


class SweepIncompleteError(RuntimeError):
    """A run stopped with work remaining; ``resume(run_id)`` finishes it."""

    def __init__(self, message: str, run_id: str,
                 counts: Optional[Dict[str, int]] = None,
                 failed: Optional[List[Dict[str, str]]] = None) -> None:
        super().__init__(message)
        self.run_id = run_id
        self.counts = dict(counts or {})
        self.failed = list(failed or [])


def bind_spec_points(spec: SweepSpec) -> List[ExperimentPoint]:
    """Expand a spec into fully-bound, cache-keyed points.

    Binds the study's defaults into every point before hashing: the
    cache key must cover the *full* parameterisation of the
    computation, or a later change to a registry default would silently
    serve stale results.  Binding also unifies the keys of explicit and
    defaulted spellings of the same point.
    """
    study = get_study(spec.study)
    # Every study parametrizes exclusively through its defaults, so a
    # key outside them is a typo that would otherwise produce a grid of
    # byte-identical points presented as a real sweep.
    unknown = (set(spec.base) | set(spec.grid)) - set(study.defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for study {spec.study!r}: "
            f"{', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(study.defaults))}"
        )
    return [
        ExperimentPoint.from_dict(spec.study, study.bind(p.as_dict()))
        for p in spec.iter_points()
    ]


def execute_point(
    point: ExperimentPoint,
) -> Tuple[str, MetricSet, float]:
    """Run one point; the step both executors share.

    Returns the study's typed :class:`MetricSet`; callers needing the
    legacy flat dict take ``metric_set.flatten()``.  Study errors
    surface as :class:`PointExecutionError` naming the point's content
    hash and parameters.
    """
    started = time.perf_counter()
    try:
        metric_set = get_study(point.study).execute_metrics(
            point.as_dict())
    except PointExecutionError:
        raise
    except Exception as exc:
        raise PointExecutionError.wrap(point, exc) from exc
    return point.key, metric_set, time.perf_counter() - started


@dataclass(frozen=True)
class RunSettings:
    """Timeout, retry and lease knobs, shared by both executors and
    pickled to every worker process."""

    lease_ttl: float = 5.0
    max_batch_attempts: int = 3
    point_timeout: Optional[float] = None
    point_retries: int = 1
    log_level: str = "info"


class _PointTimeout(Exception):
    pass


@contextmanager
def _alarm(seconds: Optional[float]) -> Iterator[None]:
    """Raise ``_PointTimeout`` after ``seconds`` of wall clock.

    SIGALRM-based, so it only arms in a main thread on POSIX; elsewhere
    (the sweep service runs jobs in threads) the timeout is advisory
    rather than wrong.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _handler(signum, frame):
        raise _PointTimeout()

    old = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _execute_with_retry(point: ExperimentPoint, settings: RunSettings,
                        log: Optional[EventLog],
                        **where: Any) -> Tuple[MetricSet, float]:
    """One point under the per-point timeout and bounded retries.

    ``where`` (batch, owner) tags the retry and error events of lease
    workers.
    """
    attempt = 0
    while True:
        try:
            with _alarm(settings.point_timeout):
                __, metric_set, elapsed = execute_point(point)
            return metric_set, elapsed
        except (_PointTimeout, PointExecutionError) as exc:
            attempt += 1
            # The alarm usually fires *inside* execute_point, which
            # wraps every study exception — look through to the cause
            # so timeouts are classified (and messaged) as timeouts.
            timed_out = (isinstance(exc, _PointTimeout)
                         or isinstance(exc.__cause__, _PointTimeout))
            reason = "timeout" if timed_out else "error"
            if attempt <= settings.point_retries:
                if log is not None:
                    log.warning("point_retry", key=point.key,
                                attempt=attempt, reason=reason,
                                error=str(exc), **where)
                continue
            if log is not None:
                log.error("point_error", key=point.key, study=point.study,
                          params=point.as_dict(), reason=reason,
                          attempts=attempt, error=str(exc),
                          worker=os.getpid(), **where)
            if timed_out:
                raise PointExecutionError(
                    f"point {point.key} timed out after "
                    f"{settings.point_timeout}s x{attempt} attempts",
                    key=point.key, study=point.study,
                    params=point.as_dict(),
                ) from exc
            raise


def _maybe_fault(directory: str) -> None:
    """Honour the env-var fault hook (test/CI crash injection).

    The marker file is claimed with ``O_CREAT | O_EXCL`` so exactly one
    process dies per store directory no matter how many race, and a
    resumed run (marker already present) proceeds unharmed.
    """
    if os.environ.get(FAULT_ENV) != "kill-worker":
        return
    marker = os.path.join(directory, FAULT_MARKER)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class PointResult:
    """Outcome of one design point within a sweep."""

    point: ExperimentPoint
    metrics: Dict[str, Any]
    cached: bool
    elapsed: float
    #: The typed stat tree of a point executed in this process; ``None``
    #: for store cache hits and worker-process results (the store only
    #: keeps the flat view).
    metric_set: Optional[MetricSet] = None

    @property
    def params(self) -> Dict[str, Any]:
        return self.point.as_dict()

    @property
    def metric_tree(self) -> MetricSet:
        """The typed tree view of this point's metrics.

        Fresh in-process executions return the study's own set
        (Ratio/Derived stats intact); other results are lifted from the
        flat row with value-derived kinds, so both views always exist.
        """
        if self.metric_set is not None:
            return self.metric_set
        return MetricSet.from_flat(self.metrics)

    def value(self, name: str, default: Any = None) -> Any:
        return self.metrics.get(name, default)


@dataclass
class SweepResult:
    """All point results of one sweep, in spec expansion order."""

    spec: SweepSpec
    results: List[PointResult] = field(default_factory=list)
    wall_time: float = 0.0
    #: Provenance identity of this execution (stamped into the event
    #: log and the manifest).
    run_id: str = ""
    #: Where the provenance manifest landed; ``None`` without a store.
    manifest_path: Optional[str] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def executed(self) -> int:
        return len(self.results) - self.cache_hits

    def slowest(self) -> Optional[PointResult]:
        """The longest freshly-executed point (None if all were cached)."""
        fresh = [r for r in self.results if not r.cached]
        if not fresh:
            return None
        return max(fresh, key=lambda r: r.elapsed)

    def metrics_by_key(self) -> Dict[str, Dict[str, Any]]:
        return {r.point.key: r.metrics for r in self.results}


def _run_point(point: ExperimentPoint,
               store: Optional[ShardedResultStore],
               log: Optional[EventLog], settings: RunSettings,
               **where: Any) -> PointResult:
    """Execute, store and log one point — the step both executors share."""
    _t = TRACER.begin()
    metric_set, elapsed = _execute_with_retry(point, settings, log,
                                              **where)
    if _t is not None:
        TRACER.end(_t, "sweep.execute", key=point.key,
                   study=point.study, worker=os.getpid())
    result = PointResult(point=point, metrics=metric_set.flatten(),
                         cached=False, elapsed=elapsed,
                         metric_set=metric_set)
    if store is not None:
        _t = TRACER.begin()
        store.put(point, result.metrics, elapsed)
        if _t is not None:
            TRACER.end(_t, "sweep.store_write", key=point.key)
    if log is not None:
        log.info("point_done", key=point.key, point=point.describe(),
                 cached=False, elapsed=elapsed, worker=os.getpid(),
                 **where)
    if store is not None:
        _maybe_fault(store.directory)
    return result


@contextmanager
def _heartbeat(board_path: str, lease: Lease, ttl: float) -> Iterator[None]:
    """Renew ``lease`` every ``ttl / 3`` for as long as the block runs.

    The heartbeat tracks liveness, not progress: it runs on its own
    thread with its own board connection, so a point longer than the
    TTL is never stolen from a live worker.  Setting the stop event
    wakes the thread at once, so finishing a batch never waits out a
    heartbeat period.
    """
    stop = threading.Event()

    def beat() -> None:
        board = LeaseBoard(board_path)
        try:
            while not stop.wait(ttl / 3.0):
                board.heartbeat(lease.run_id, lease.batch_id, lease.owner,
                                ttl)
        finally:
            board.close()

    thread = threading.Thread(target=beat, name="lease-heartbeat",
                              daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _drain_board(store: ShardedResultStore, journal: SweepJournal,
                 board: LeaseBoard, log: Optional[EventLog],
                 settings: RunSettings, worker_tag: str) -> None:
    """Lease/execute loop — the body of every worker process.

    Returns when the board has nothing left that can make progress
    (all done, or all remaining attempts exhausted).
    """
    run_id = journal.run_id
    batch_by_id = {b.batch_id: b for b in journal.batches}
    idle_cap = min(0.2, max(settings.lease_ttl / 4.0, 0.01))
    idle = IDLE_WAIT
    while True:
        lease = board.acquire(run_id, worker_tag, settings.lease_ttl,
                              settings.max_batch_attempts)
        if lease is None:
            if board.remaining(run_id, settings.max_batch_attempts) == 0:
                return
            # Someone else holds a live lease.  Doubling waits notice the
            # board draining within about the time already waited, and
            # the cap notices a dead owner's lease expire promptly.
            time.sleep(idle)
            idle = min(idle * 2.0, idle_cap)
            continue
        idle = IDLE_WAIT
        batch = batch_by_id[lease.batch_id]
        if log is not None:
            if lease.stolen:
                log.warning(
                    "lease_stolen", batch=batch.batch_id,
                    owner=worker_tag, prev_owner=lease.prev_owner,
                    attempts=lease.attempts, points=len(batch),
                )
            log.info("batch_leased", batch=batch.batch_id,
                     owner=worker_tag, attempts=lease.attempts,
                     points=len(batch), deadline=lease.deadline)
        try:
            with _heartbeat(board.path, lease, settings.lease_ttl):
                for key, params in zip(batch.keys, batch.params):
                    if store.get(key) is not None:
                        # Stored by a dead owner of this batch, or by
                        # another run: resume re-executes only what is
                        # genuinely missing.
                        if log is not None:
                            log.debug("point_skipped", key=key,
                                      batch=batch.batch_id,
                                      owner=worker_tag)
                        continue
                    if lease.attempts > 1 and log is not None:
                        log.warning(
                            "point_retry", key=key, batch=batch.batch_id,
                            attempt=lease.attempts, owner=worker_tag,
                            reason="lease re-run",
                        )
                    point = ExperimentPoint.from_dict(journal.study,
                                                      dict(params))
                    _run_point(point, store, log, settings,
                               batch=batch.batch_id, owner=worker_tag)
            board.complete(run_id, batch.batch_id, worker_tag)
            if log is not None:
                log.info("batch_done", batch=batch.batch_id,
                         owner=worker_tag, attempts=lease.attempts)
        except Exception as exc:
            board.fail(run_id, batch.batch_id, worker_tag,
                       f"{type(exc).__name__}: {exc}")
            if log is not None:
                log.error("batch_failed", batch=batch.batch_id,
                          owner=worker_tag, attempts=lease.attempts,
                          error=f"{type(exc).__name__}: {exc}")
            # Keep draining other batches; the failed one is either
            # retried (attempts left) or reported exhausted by the
            # parent once the board drains.


def _worker_main(directory: str, shards: int, run_id: str,
                 worker_tag: str, settings: RunSettings,
                 log_path: Optional[str],
                 spans_path: Optional[str]) -> None:
    """Entry point of a worker process.

    Opens its *own* store handle, lease board and event log — the only
    thing shared with the parent is the store directory.  With
    ``spans_path`` set it traces its points and writes its span ring
    there on exit, for the parent to merge.
    """
    if spans_path is not None:
        # Fork-started workers inherit the parent's ring (drop it);
        # spawn-started ones re-import a disabled tracer.
        TRACER.enable()
        TRACER.clear()
    store = ShardedResultStore(directory, shards=shards)
    board = LeaseBoard(os.path.join(directory, LEASES_NAME))
    log = None
    if log_path is not None:
        log = EventLog(path=log_path, run_id=run_id,
                       level=settings.log_level)
    try:
        _drain_board(store, load_journal(directory, run_id), board, log,
                     settings, worker_tag)
    finally:
        board.close()
        store.close()
    if spans_path is not None:
        atomic_write_text(spans_path, spans_text(TRACER.drain()))


class SweepRunner:
    """Runs sweeps: plans against the store, then executes the misses.

    Parameters
    ----------
    store:
        A :class:`~repro.fabric.store.ShardedResultStore`, or a store
        directory path opened as one.  ``None`` disables caching: every
        point executes, and with ``workers=1`` nothing is written to
        disk (what benchmarks want so timings stay honest).
    workers:
        ``1`` runs pending points in this process; more starts that
        many lease-board worker processes.
    progress:
        Optional callback invoked with each finished
        :class:`PointResult` (CLI progress lines).
    log:
        Structured :class:`~repro.obs.log.EventLog`.  When ``None`` and
        a store is present, a file-only log is created next to the
        store (``events.jsonl``).
    run_id:
        Provenance id; freshly generated when omitted.
    manifest:
        Write ``manifest.json`` next to the store after the run
        (ignored without a store).
    trace_path:
        Where the caller intends to export this run's trace — recorded
        in the manifest so stored results can name their trace file.
    batch_size:
        Points per lease batch; default about four batches per worker.
    lease_ttl / max_batch_attempts / point_timeout / point_retries:
        See :class:`RunSettings`.  The point timeout and retries apply
        to both executors; the lease knobs only to worker processes.
    """

    def __init__(
        self,
        store: Union[ShardedResultStore, str, None] = None,
        workers: int = 1,
        progress: Optional[Callable[[PointResult], None]] = None,
        log: Optional[EventLog] = None,
        run_id: Optional[str] = None,
        manifest: bool = True,
        trace_path: Optional[str] = None,
        batch_size: Optional[int] = None,
        lease_ttl: float = 5.0,
        max_batch_attempts: int = 3,
        point_timeout: Optional[float] = None,
        point_retries: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(store, str):
            store = ShardedResultStore(store)
        self.store = store
        self.workers = workers
        self.progress = progress
        self.run_id = run_id or new_run_id()
        self.manifest = manifest
        self.trace_path = trace_path
        self.batch_size = batch_size
        self.settings = RunSettings(
            lease_ttl=lease_ttl,
            max_batch_attempts=max_batch_attempts,
            point_timeout=point_timeout,
            point_retries=point_retries,
            log_level=log.level if log is not None else "info",
        )
        if log is None and store is not None:
            log = EventLog(path=self._events_path(), run_id=self.run_id)
        elif log is not None:
            log.run_id = self.run_id
        self.log = log
        self._stop = threading.Event()

    def _events_path(self) -> Optional[str]:
        if self.store is None:
            return None
        return os.path.join(self.store.directory, EVENTS_NAME)

    def request_stop(self) -> None:
        """Ask a running sweep to stop early (graceful drain).

        Thread-safe and idempotent.  The in-process executor stops at
        the next point boundary; worker processes are terminated at the
        next poll tick.  The journal stays on disk, so the run raises
        :class:`SweepIncompleteError` and :meth:`resume` (``repro sweep
        --resume RUN_ID``) finishes it bit-identically — this is what
        the sweep service calls on SIGTERM.
        """
        self._stop.set()

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Plan, journal (with a store) and execute a fresh run."""
        return self._drive(spec, journal=None)

    def resume(self, run_id: str,
               spec: Optional[SweepSpec] = None) -> SweepResult:
        """Finish an interrupted run from its journal.

        Verifies the journal's spec hash (and, when a spec is supplied,
        that it hashes to the same identity) before touching anything:
        resuming the wrong journal would label stored points with
        another run's provenance.
        """
        if self.store is None:
            raise ValueError("resume needs the store the run was "
                             "planned in")
        journal = load_journal(self.store.directory, run_id)
        if spec is None:
            spec = journal.spec()
        else:
            supplied = spec_hash(spec.payload())
            if supplied != journal.spec_hash:
                raise ValueError(
                    f"spec hash mismatch: run {run_id} was planned for "
                    f"{journal.spec_hash}, supplied spec hashes to "
                    f"{supplied}"
                )
        self.run_id = run_id
        if self.log is not None:
            self.log.run_id = run_id
            self.log.info("run_resumed", study=journal.study,
                          batches=len(journal.batches),
                          workers=self.workers)
        return self._drive(spec, journal=journal)

    # ------------------------------------------------------------------
    def _drive(self, spec: SweepSpec,
               journal: Optional[SweepJournal]) -> SweepResult:
        started = time.perf_counter()
        started_wall = time.time()
        resumed = journal is not None
        _t = TRACER.begin()
        points = bind_spec_points(spec)
        slots: List[Optional[PointResult]] = []
        pending: Dict[str, ExperimentPoint] = {}
        for point in points:
            record = (self.store.get(point.key)
                      if self.store is not None else None)
            if record is None:
                pending.setdefault(point.key, point)
                slots.append(None)
            else:
                slots.append(PointResult(
                    point=point, metrics=dict(record.metrics),
                    cached=True, elapsed=record.elapsed,
                ))
        cached = sum(slot is not None for slot in slots)
        if journal is None and self.store is not None:
            journal = self._write_journal(spec, self.store, pending, cached)
        if self.log is not None:
            self.log.info("run_start", study=spec.study,
                          points=len(points), cached=cached,
                          pending=len(pending), workers=self.workers,
                          resumed=resumed, axes=spec.axis_names())
        for slot in slots:
            if slot is not None:
                self._report(slot)

        executed: Dict[str, PointResult] = {}

        def deliver(result: PointResult) -> None:
            executed[result.point.key] = result
            if self.progress is not None:
                self.progress(result)

        counts = None
        if pending:
            if self.workers == 1:
                self._run_inline(pending, deliver)
            else:
                counts = self._run_processes(spec, pending, journal,
                                             deliver)

        results: List[PointResult] = []
        for point, slot in zip(points, slots):
            if slot is None:
                slot = executed[point.key]
                # Only the first slot of a key was executed (it carries
                # that very point object); later slots with the same
                # key share its result at no cost.
                if slot.point is not point:
                    slot = PointResult(
                        point=point, metrics=dict(slot.metrics),
                        cached=True, elapsed=slot.elapsed,
                        metric_set=slot.metric_set,
                    )
                    self._report(slot)
            results.append(slot)
        outcome = SweepResult(
            spec=spec, results=results,
            wall_time=time.perf_counter() - started,
            run_id=self.run_id,
        )
        outcome.manifest_path = self._write_manifest(
            spec, outcome, started_wall, journal, counts, resumed)
        if self.log is not None:
            self.log.info("run_end", study=spec.study,
                          points=len(outcome),
                          cache_hits=outcome.cache_hits,
                          executed=outcome.executed,
                          wall_time=outcome.wall_time)
        if _t is not None:
            TRACER.end(_t, "sweep.run", study=spec.study,
                       points=len(points), workers=self.workers,
                       cache_hits=outcome.cache_hits)
        return outcome

    def _report(self, result: PointResult) -> None:
        """The planner's ``point_done`` for a cached or duplicate slot."""
        if self.log is not None:
            self.log.info("point_done", key=result.point.key,
                          point=result.point.describe(), cached=True,
                          elapsed=result.elapsed)
        if self.progress is not None:
            self.progress(result)

    def _write_journal(self, spec: SweepSpec, store: ShardedResultStore,
                       pending: Dict[str, ExperimentPoint],
                       cached: int) -> SweepJournal:
        batch_size = self.batch_size or _auto_batch_size(
            len(pending), self.workers)
        payload = spec.payload()
        journal = SweepJournal(
            run_id=self.run_id,
            study=spec.study,
            spec_payload=payload,
            spec_hash=spec_hash(payload),
            store_dir=store.directory,
            batches=plan_batches(
                [(key, point.as_dict()) for key, point in pending.items()],
                batch_size),
            cached=cached,
            workers=self.workers,
            batch_size=batch_size,
            created=time.time(),
        )
        journal.save()
        return journal

    def _incomplete(self, reason: str,
                    **details: Any) -> SweepIncompleteError:
        message = f"run {self.run_id} incomplete: {reason}"
        if self.store is not None:
            message += (f"; resume with `repro sweep --resume "
                        f"{self.run_id} --store {self.store.directory}`")
        return SweepIncompleteError(message, run_id=self.run_id, **details)

    # -- workers=1 ------------------------------------------------------
    def _run_inline(self, pending: Dict[str, ExperimentPoint],
                    deliver: Callable[[PointResult], None]) -> None:
        """The pending points in spec order, in this process.

        No lease board: nothing else can claim these points, and a
        commit per batch would only slow short points down (DESIGN.md
        §9).  A stop request takes effect between points.
        """
        for done, point in enumerate(pending.values()):
            if self._stop.is_set():
                left = len(pending) - done
                if self.log is not None:
                    self.log.warning("run_draining", run_id=self.run_id,
                                     remaining=left, workers=1)
                raise self._incomplete(
                    f"stopped with {left} point(s) not run")
            if self.log is not None:
                self.log.info("worker_heartbeat", worker=os.getpid(),
                              key=point.key, point=point.describe())
            deliver(_run_point(point, self.store, self.log,
                               self.settings))

    # -- workers>1 ------------------------------------------------------
    def _run_processes(self, spec: SweepSpec,
                       pending: Dict[str, ExperimentPoint],
                       journal: Optional[SweepJournal],
                       deliver: Callable[[PointResult], None],
                       ) -> Dict[str, int]:
        """Lease-board worker processes sharing the store directory.

        Returns the board's batch counts for the manifest.
        """
        store, scratch = self.store, None
        if store is None:
            # Workers share nothing but a store directory: lend them a
            # private one for the length of the run.
            scratch = tempfile.mkdtemp(prefix="repro-sweep-")
            store = ShardedResultStore(scratch)
            journal = self._write_journal(spec, store, pending, cached=0)
        assert journal is not None
        board = LeaseBoard(os.path.join(store.directory, LEASES_NAME))
        try:
            self._drive_workers(store, board, journal, dict(pending),
                                deliver)
            return board.counts(journal.run_id)
        finally:
            board.close()
            if scratch is not None:
                store.close()
                shutil.rmtree(scratch, ignore_errors=True)

    def _drive_workers(self, store: ShardedResultStore, board: LeaseBoard,
                       journal: SweepJournal,
                       waiting: Dict[str, ExperimentPoint],
                       deliver: Callable[[PointResult], None]) -> None:
        run_id = journal.run_id
        settings = self.settings
        board.register(run_id, [b.batch_id for b in journal.batches])
        done = set(board.done_batches(run_id))
        count = min(self.workers, max(1, sum(
            b.batch_id not in done for b in journal.batches)))
        log_path = self.log.path if self.log is not None else None
        spans = [os.path.join(store.directory, f".spans-{run_id}-w{i}.jsonl")
                 if TRACER.enabled else None for i in range(count)]
        launched = time.time()
        procs: List[Any] = []
        exited: set = set()
        finished = False
        try:
            for i, spans_path in enumerate(spans):
                proc = multiprocessing.Process(
                    target=_worker_main,
                    args=(store.directory, store.shards, run_id,
                          f"{run_id}-w{i}", settings, log_path,
                          spans_path),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            while True:
                self._collect(store, waiting, deliver, store.refresh())
                self._report_lost(procs, exited, board, run_id)
                remaining = board.remaining(run_id,
                                            settings.max_batch_attempts)
                if remaining == 0:
                    break
                alive = [p for p in procs if p.is_alive()]
                if self._stop.is_set():
                    if self.log is not None:
                        self.log.warning("run_draining", run_id=run_id,
                                         remaining=remaining,
                                         workers=len(alive))
                    for proc in alive:
                        proc.terminate()
                    break
                if not alive:
                    break
                # Wake at once when a worker exits: the last one to go
                # leaves a drained board behind.
                multiprocessing.connection.wait(
                    [proc.sentinel for proc in alive], timeout=0.05)
            finished = True
        finally:
            for proc in procs:
                if not finished:
                    proc.terminate()
                proc.join(timeout=max(5.0, settings.lease_ttl * 2))
        if not self._stop.is_set():
            self._report_lost(procs, exited, board, run_id)
        self._merge_spans(spans, launched)
        self._collect(store, waiting, deliver, list(waiting))
        exhausted = board.exhausted(run_id, settings.max_batch_attempts)
        remaining = board.remaining(run_id, settings.max_batch_attempts)
        if exhausted or remaining or waiting:
            raise self._incomplete(
                f"{remaining} batch(es) unfinished, {len(exhausted)} "
                f"exhausted {[e['batch'] for e in exhausted]}, "
                f"{len(waiting)} point(s) not stored",
                counts=board.counts(run_id), failed=exhausted,
            )

    @staticmethod
    def _collect(store: ShardedResultStore,
                 waiting: Dict[str, ExperimentPoint],
                 deliver: Callable[[PointResult], None],
                 keys: List[str]) -> None:
        """Deliver each waiting point among ``keys`` the workers stored."""
        for key in keys:
            record = store.get(key) if key in waiting else None
            if record is not None:
                deliver(PointResult(
                    point=waiting.pop(key), metrics=dict(record.metrics),
                    cached=False, elapsed=record.elapsed,
                ))

    def _report_lost(self, procs: List[Any], exited: set,
                     board: LeaseBoard, run_id: str) -> None:
        for proc in procs:
            if proc.is_alive() or proc.pid in exited:
                continue
            exited.add(proc.pid)
            if proc.exitcode != 0 and self.log is not None:
                self.log.error(
                    "worker_lost", run_id=run_id, worker=proc.pid,
                    exitcode=proc.exitcode,
                    last_heartbeat=board.last_heartbeat(run_id),
                )

    def _merge_spans(self, paths: List[Optional[str]],
                     launched: float) -> None:
        """Fold worker span files into this process's ring.

        Adds one ``sweep.queue_wait`` span per executed point: worker
        pickup minus launch time, comparable across processes because
        spans carry epoch timestamps.
        """
        for path in paths:
            if path is None:
                continue
            try:
                records = load_spans(path)
                os.remove(path)
            except (OSError, ValueError):
                continue  # a killed worker writes no span file
            TRACER.extend(records)
            for record in records:
                if record["name"] == "sweep.execute":
                    TRACER.record_span(
                        "sweep.queue_wait", launched,
                        max(0.0, record["ts"] - launched),
                        key=record["args"].get("key"),
                    )

    # ------------------------------------------------------------------
    def _write_manifest(self, spec: SweepSpec, outcome: SweepResult,
                        started_wall: float,
                        journal: Optional[SweepJournal],
                        counts: Optional[Dict[str, int]],
                        resumed: bool) -> Optional[str]:
        if self.store is None or journal is None or not self.manifest:
            return None
        plan: Dict[str, Any] = {
            "journal": journal_path(self.store.directory, self.run_id),
            "batches": len(journal.batches),
            "batch_size": journal.batch_size,
            "lease_ttl": self.settings.lease_ttl,
            "max_batch_attempts": self.settings.max_batch_attempts,
            "resumed": resumed,
        }
        if counts is not None:
            plan["counts"] = counts
        manifest = build_manifest(
            run_id=self.run_id,
            spec_payload=spec.payload(),
            points=[{
                "key": r.point.key,
                "params": r.point.as_dict(),
                "cached": r.cached,
                "elapsed": r.elapsed,
            } for r in outcome.results],
            workers=self.workers,
            started=started_wall,
            finished=time.time(),
            store_path=self.store.path,
            trace_path=self.trace_path,
            events_path=self._events_path(),
            fabric=plan,
            resumed_from=self.run_id if resumed else None,
        )
        path = manifest_path_for(self.store.path)
        try:
            write_manifest(path, manifest)
        except OSError as exc:
            # Provenance must never take the sweep down; the results
            # themselves are already safely in the store.
            if self.log is not None:
                self.log.warning("manifest_error", path=path,
                                 error=str(exc))
            return None
        return path


def _auto_batch_size(pending: int, workers: int) -> int:
    """About four lease batches per worker, clamped to [1, 64]."""
    if pending == 0:
        return 1
    return max(1, min(64, math.ceil(pending / max(workers * 4, 1))))
