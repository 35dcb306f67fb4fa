"""Sweep execution: one planner feeding one of two executors.

:class:`SweepRunner` is the only sweep engine.  Every run goes through:

1. **Plan** — expand and bind the spec (:func:`bind_spec_points`), serve
   points already in the store as cache hits, dedupe the rest by
   content hash and — for every run that has a store — write the
   run's ``manifest-<run_id>.json`` (:mod:`repro.obs.provenance`)
   before executing anything.
2. **Execute** — ``workers=1`` runs the pending points in this process,
   in spec order.  ``workers>1`` starts worker processes, cuts the
   pending points into batches along their stages (:func:`plan_batches`:
   the points that share a stage go to one worker) and feeds them one
   at a time, over a pipe each: this process holds the queue and each
   batch's attempts.  A worker stores each point (with
   a store), then replies once per batch with each point's key,
   metrics and elapsed time.  When a worker's exit sentinel fires, its
   batch goes back on the queue for a survivor, which skips the points
   already stored, at most :data:`MAX_BATCH_ATTEMPTS` times in all.
3. **Resume** — :meth:`SweepRunner.resume` reads the spec back from the
   run's manifest, checks its spec hash and plans again against the
   store, so whatever the stopped or killed run stored comes back as
   cache hits and the resumed sweep is bit-identical to an
   uninterrupted one.

Both executors share :meth:`SweepRunner.request_stop`, the event log,
the spans and the provenance manifest, and they fail alike: each point
runs once, and a point whose study raises ends the run with the
:class:`PointExecutionError` that names it (a study is a deterministic
function of its parameters, so a second attempt would raise again).
Results come back in spec order whichever executor ran them, so
parallel and serial sweeps are bit-identical (differential-tested).

Observability: every run carries a ``run_id``; store-backed runs append
to ``events.jsonl`` and rewrite their manifest at the end with each
point's timing.  Each point slot gets exactly one ``point_done`` event:
executed points are logged by whoever ran them, cached and duplicate
slots by the planner.  With the tracer on, worker processes send their spans
with each batch's reply and the parent merges them, adding one
``sweep.queue_wait`` span per executed point.  None of it touches the
computation: results are bit-identical with observability on or off.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.experiments.registry import get_study
from repro.experiments.spec import ExperimentPoint, SweepSpec
from repro.fabric.io import canonical_json
from repro.fabric.store import ShardedResultStore
from repro.obs.log import EventLog, new_run_id
from repro.obs.provenance import (
    build_manifest,
    load_run_manifest,
    manifest_path_for,
    spec_hash,
    write_manifest,
)
from repro.obs.trace import TRACER

#: Event-log filename written next to a sweep's result store.
EVENTS_NAME = "events.jsonl"

#: Env-var fault hook: set to ``kill-worker`` to make the first process
#: that stores a point into a store directory SIGKILL itself right
#: after the write — a deterministic mid-run death for the crash/resume
#: tests and CI's resume-smoke, without racing on pids.
FAULT_ENV = "REPRO_FABRIC_FAULT"
FAULT_MARKER = ".fault-fired"

#: Times a batch goes out to worker processes before a run gives it up:
#: each worker death that strands it re-queues it, so a batch that
#: kills every worker it reaches still ends the run.
MAX_BATCH_ATTEMPTS = 3


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
) -> Tuple[str, Dict[str, Any], float]:
    """Run one point; the step both executors share.

    Returns ``(key, metrics, elapsed)``: ``metrics`` is the study's flat
    dict, the very value the store keeps and a worker process replies
    with.  Study errors surface as :class:`PointExecutionError` naming
    the point's content hash and parameters.
    """
    started = time.perf_counter()
    try:
        metrics = get_study(point.study).execute(point.as_dict())
    except PointExecutionError:
        raise
    except Exception as exc:
        raise PointExecutionError.wrap(point, exc) from exc
    return point.key, metrics, time.perf_counter() - started


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

    @property
    def params(self) -> Dict[str, Any]:
        return self.point.as_dict()

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
               log: Optional[EventLog], **where: Any) -> PointResult:
    """Execute, store and log one point — the step both executors share.

    A point that raises is logged once (``point_error``; ``where``, the
    batch and owner, tags a worker process's) and re-raised.
    """
    _t = TRACER.begin()
    try:
        __, metrics, elapsed = execute_point(point)
    except PointExecutionError as exc:
        if log is not None:
            log.error("point_error", key=point.key, study=point.study,
                      params=point.as_dict(), error=str(exc),
                      worker=os.getpid(), **where)
        raise
    if _t is not None:
        TRACER.end(_t, "sweep.execute", key=point.key,
                   study=point.study, worker=os.getpid())
    result = PointResult(point=point, metrics=metrics, cached=False,
                         elapsed=elapsed)
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


def _run_batch(points: List[ExperimentPoint], attempt: int,
               store: Optional[ShardedResultStore],
               log: Optional[EventLog], **where: Any
               ) -> Tuple[List[Tuple[str, Dict[str, Any], float]],
                          Optional[Exception]]:
    """One batch in a worker process: ``(results, error)``.

    ``results`` holds a ``(key, metrics, elapsed)`` triple per finished
    point; ``error`` is ``None``, or the exception that ended the batch
    early (the parent raises it).
    """
    results: List[Tuple[str, Dict[str, Any], float]] = []
    try:
        for point in points:
            record = (store.get(point.key)
                      if attempt > 1 and store is not None else None)
            if record is not None:
                # Stored by a worker that died before replying.
                if log is not None:
                    log.debug("point_skipped", key=point.key, **where)
                results.append((point.key, record.metrics, record.elapsed))
                continue
            if attempt > 1 and log is not None:
                log.warning("point_retry", key=point.key, attempt=attempt,
                            reason="lease re-run", **where)
            result = _run_point(point, store, log, **where)
            results.append((point.key, result.metrics, result.elapsed))
    except Exception as exc:
        if log is not None:
            log.error("batch_failed", attempts=attempt,
                      error=f"{type(exc).__name__}: {exc}", **where)
        return results, exc
    if log is not None:
        log.info("batch_done", attempts=attempt, **where)
    return results, None


def _worker_main(conn: Any, parent_end: Any, directory: Optional[str],
                 shards: int, run_id: str, tag: str,
                 log_path: Optional[str], traced: bool) -> None:
    """Entry point of a worker process: run each batch the parent sends.

    A batch arrives as ``(batch_id, attempt, points)``; ``None`` ends
    the loop.  The worker stores each point as it finishes, and replies
    once per batch with ``(results, spans, error)`` (see
    :func:`_run_batch`; ``spans`` only when traced).  It opens its own
    store handle and event log, and exits quietly if the parent dies.
    """
    # A fork-started worker inherits the parent's end of its pipe too:
    # closed here, the parent's death reads as end-of-file.
    parent_end.close()
    if traced:
        # Fork-started workers inherit the parent's ring (drop it);
        # spawn-started ones re-import a disabled tracer.
        TRACER.enable()
        TRACER.clear()
    store = (ShardedResultStore(directory, shards=shards)
             if directory is not None else None)
    log = (EventLog(log_path, run_id=run_id)
           if log_path is not None else None)
    try:
        for batch_id, attempt, points in iter(conn.recv, None):
            results, error = _run_batch(points, attempt, store, log,
                                        batch=batch_id, owner=tag)
            conn.send((results, TRACER.drain() if traced else None, error))
    except (EOFError, ConnectionError):
        pass  # the parent is gone: nobody waits for a reply


@dataclass(frozen=True)
class BatchPlan:
    """One batch of pending points, cut along their stages."""

    batch_id: str
    keys: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.keys)


def _stage_groups(points: Iterable[ExperimentPoint]) -> List[List[str]]:
    """Point keys grouped by stage, in (stage key, point key) order.

    A point's stage key is the values of the parameters its study
    declares as its stage (``register_study(stage=...)``, DESIGN.md
    "Stages"), so the points that share a stage form one group.  A
    study that declares none shares nothing: each point is a group.
    """
    groups: Dict[str, List[str]] = {}
    for point in points:
        study = get_study(point.study)
        shared = (study.stage_key(point.as_dict()) if study.stage
                  else point.key)
        groups.setdefault(canonical_json(shared), []).append(point.key)
    return [sorted(groups[stage]) for stage in sorted(groups)]


def plan_batches(points: Iterable[ExperimentPoint],
                 batch_size: int) -> List[BatchPlan]:
    """Cut pending points into batches along their stages.

    A batch takes whole stage groups (:func:`_stage_groups`) while they
    fit in ``batch_size`` points, and a larger group is cut into batches
    of ``batch_size``, so the points that share a stage go to one
    worker.  The order is (stage key, point key): the plan is a pure
    function of the pending set, whatever the grid order — a resume
    plans again from the points still missing.
    """
    cuts: List[List[str]] = []
    batch: List[str] = []
    for group in _stage_groups(points):
        if len(batch) + len(group) > batch_size:
            if batch:
                cuts.append(batch)
            while len(group) > batch_size:
                cuts.append(group[:batch_size])
                group = group[batch_size:]
            batch = []
        batch += group
    if batch:
        cuts.append(batch)
    return [BatchPlan(f"b{index:04d}", tuple(keys))
            for index, keys in enumerate(cuts)]


@dataclass
class _Worker:
    """A worker process, the parent's end of its pipe, and the batch it
    holds (``None`` while idle)."""

    proc: Any
    conn: Any
    tag: str
    batch: Optional[BatchPlan] = None


class SweepRunner:
    """Runs sweeps: plans against the store, then executes the misses.

    Parameters
    ----------
    store:
        A :class:`~repro.fabric.store.ShardedResultStore`, or a store
        directory path opened as one.  ``None`` disables caching: every
        point executes and nothing is written to disk (what benchmarks
        want so timings stay honest).
    workers:
        ``1`` runs pending points in this process; more starts that
        many worker processes, fed batches by this one.
    progress:
        Optional callback invoked with each finished
        :class:`PointResult` (CLI progress lines).
    run_id:
        Provenance id; freshly generated when omitted.
    trace_path:
        Where the caller intends to export this run's trace — recorded
        in the manifest so stored results can name their trace file.
    batch_size:
        Points per worker batch; default about four batches per worker.

    Each pending point runs once.  If its study raises, the run ends
    with the :class:`PointExecutionError` that names it, on either
    executor (worker processes still busy are terminated), and the
    points finished before it stay stored.  Only a worker's death runs
    anything again: its batch goes to a survivor, up to
    :data:`MAX_BATCH_ATTEMPTS` times, after which the run raises
    :class:`SweepIncompleteError`.
    """

    def __init__(
        self,
        store: Union[ShardedResultStore, str, None] = None,
        workers: int = 1,
        progress: Optional[Callable[[PointResult], None]] = None,
        run_id: Optional[str] = None,
        trace_path: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if isinstance(store, str):
            store = ShardedResultStore(store)
        self.store = store
        self.workers = workers
        self.progress = progress
        self.run_id = run_id or new_run_id()
        self.trace_path = trace_path
        self.batch_size = batch_size
        #: The run's event log, ``events.jsonl`` next to the store
        #: (``None`` without one).
        self.log = (EventLog(os.path.join(store.directory, EVENTS_NAME),
                             run_id=self.run_id)
                    if store is not None else None)
        self._stop = threading.Event()
        #: Write end of the pipe that wakes the parent of worker
        #: processes when a stop is requested (``None`` between runs).
        self._wake: Any = None
        self._wake_lock = threading.Lock()

    def _events_path(self) -> Optional[str]:
        if self.store is None:
            return None
        return os.path.join(self.store.directory, EVENTS_NAME)

    def request_stop(self) -> None:
        """Ask a running sweep to stop early (graceful drain).

        Thread-safe and idempotent.  The in-process executor stops at
        the next point boundary; worker processes are terminated at
        once.  The run's manifest stays on disk, so the run raises
        :class:`SweepIncompleteError` and :meth:`resume` (``repro sweep
        --resume RUN_ID``) finishes it bit-identically — this is what
        the sweep service calls on SIGTERM.
        """
        with self._wake_lock:
            if self._stop.is_set():
                return
            self._stop.set()
            if self._wake is not None:
                self._wake.send_bytes(b"")

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Plan, record (with a store) and execute a fresh run."""
        return self._drive(spec, resumed=False)

    def resume(self, run_id: str,
               spec: Optional[SweepSpec] = None) -> SweepResult:
        """Finish an interrupted run from its manifest.

        Verifies the manifest's spec hash (and, when a spec is
        supplied, that it hashes to the same identity) before touching
        anything: resuming the wrong run would label stored points with
        another run's provenance.
        """
        if self.store is None:
            raise ValueError("resume needs the store the run was "
                             "planned in")
        manifest = load_run_manifest(self.store.directory, run_id)
        if spec is None:
            spec = SweepSpec.from_payload(manifest["spec"])
        else:
            supplied = spec_hash(spec.payload())
            if supplied != manifest["spec_hash"]:
                raise ValueError(
                    f"spec hash mismatch: run {run_id} was planned for "
                    f"{manifest['spec_hash']}, supplied spec hashes to "
                    f"{supplied}"
                )
        self.run_id = run_id
        if self.log is not None:
            self.log.run_id = run_id
            self.log.info("run_resumed", study=spec.study,
                          workers=self.workers)
        return self._drive(spec, resumed=True)

    # ------------------------------------------------------------------
    def _drive(self, spec: SweepSpec, resumed: bool) -> SweepResult:
        started = time.perf_counter()
        started_wall = time.time()
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
        # Before any point runs: a resume reads the spec back from it.
        self._write_manifest(spec, started_wall, resumed)
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

        plan: Dict[str, Any] = {}
        if pending:
            if self.workers == 1:
                self._run_inline(pending, deliver)
            else:
                plan = self._run_processes(dict(pending), deliver)

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
                    )
                    self._report(slot)
            results.append(slot)
        outcome = SweepResult(
            spec=spec, results=results,
            wall_time=time.perf_counter() - started,
            run_id=self.run_id,
        )
        outcome.manifest_path = self._write_manifest(
            spec, started_wall, resumed, outcome, plan)
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

        No batches: nothing else can claim these points (DESIGN.md
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
            deliver(_run_point(point, self.store, self.log))

    # -- workers>1 ------------------------------------------------------
    def _run_processes(self, waiting: Dict[str, ExperimentPoint],
                       deliver: Callable[[PointResult], None],
                       ) -> Dict[str, Any]:
        """Worker processes fed one batch at a time from this process.

        This process is their only coordinator: it cuts the pending
        points into batches, holds the queue and each batch's attempts,
        sends a worker its next batch when the last one ends, and
        re-queues the batch of a worker whose exit sentinel fires.  An
        error in a reply stops the workers, as :meth:`request_stop`
        does, and is raised here.  Returns the batch plan and counts
        for the manifest.
        """
        log = self.log
        batch_size = self.batch_size or _auto_batch_size(
            len(waiting), self.workers)
        queue = deque(plan_batches(waiting.values(), batch_size))
        state = {b.batch_id: "pending" for b in queue}
        attempts: Dict[str, int] = {}
        owner: Dict[str, str] = {}
        exhausted: List[Dict[str, str]] = []
        failure: Optional[Exception] = None
        launched = time.time()

        def dispatch(worker: _Worker) -> None:
            batch = worker.batch = queue.popleft()
            bid = batch.batch_id
            attempt = attempts[bid] = attempts.get(bid, 0) + 1
            if log is not None:
                if attempt > 1:
                    log.warning("lease_stolen", batch=bid,
                                owner=worker.tag, prev_owner=owner[bid],
                                attempts=attempt, points=len(batch))
                log.info("batch_leased", batch=bid, owner=worker.tag,
                         attempts=attempt, points=len(batch))
            owner[bid] = worker.tag
            state[bid] = "leased"
            try:
                worker.conn.send((bid, attempt, [
                    waiting[key] for key in batch.keys if key in waiting]))
            except OSError:
                pass  # it has died: its sentinel re-queues the batch

        def receive(worker: _Worker) -> bool:
            """Take a worker's batch reply; ``False`` once it is gone."""
            nonlocal failure
            try:
                results, spans, error = worker.conn.recv()
            except (EOFError, OSError):
                return False
            if spans:
                self._merge_spans(spans, launched)
            for key, metrics, elapsed in results:
                point = waiting.pop(key, None)
                if point is not None:
                    deliver(PointResult(point=point, metrics=metrics,
                                        cached=False, elapsed=elapsed))
            batch, worker.batch = worker.batch, None
            assert batch is not None  # a reply answers a dispatch
            if error is None:
                state[batch.batch_id] = "done"
            elif failure is None:
                failure = error
            return True

        def lose(worker: _Worker) -> None:
            # What it sent before it exited still counts.
            while worker.conn.poll() and receive(worker):
                pass
            worker.proc.join()
            code = worker.proc.exitcode
            batch = worker.batch
            if log is not None:
                log.error("worker_lost", run_id=self.run_id,
                          worker=worker.proc.pid, exitcode=code,
                          batch=batch and batch.batch_id)
            if batch is None:
                return
            state[batch.batch_id] = "failed"
            if attempts[batch.batch_id] < MAX_BATCH_ATTEMPTS:
                queue.append(batch)
            else:
                exhausted.append({"batch": batch.batch_id, "error": (
                    f"worker {worker.proc.pid} lost (exit code {code})")})

        store = self.store
        directory = store.directory if store is not None else None
        shards = store.shards if store is not None else 0
        log_path = log.path if log is not None else None
        wake, waker = multiprocessing.Pipe(duplex=False)
        with self._wake_lock:
            self._wake = waker
        workers: List[_Worker] = []
        live: List[_Worker] = []
        remaining = len(queue)
        try:
            for i in range(min(self.workers, len(queue))):
                tag = f"{self.run_id}-w{i}"
                conn, child = multiprocessing.Pipe()
                proc = multiprocessing.Process(
                    target=_worker_main,
                    args=(child, conn, directory, shards, self.run_id,
                          tag, log_path, TRACER.enabled),
                    daemon=True,
                )
                proc.start()
                child.close()
                workers.append(_Worker(proc, conn, tag))
            live = list(workers)
            while live and failure is None and not self._stop.is_set():
                for worker in live:
                    if worker.batch is None and queue:
                        dispatch(worker)
                if all(worker.batch is None for worker in live):
                    break
                ready = multiprocessing.connection.wait(
                    [wake] + [w.conn for w in live]
                    + [w.proc.sentinel for w in live])
                for worker in list(live):
                    if (worker.proc.sentinel in ready
                            or (worker.conn in ready
                                and not receive(worker))):
                        live.remove(worker)
                        lose(worker)
            remaining = len(queue) + sum(w.batch is not None for w in live)
            if remaining and live and log is not None:
                log.warning("run_draining", run_id=self.run_id,
                            remaining=remaining, workers=len(live))
            if not remaining:
                for worker in live:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass  # exited already; joined below
        finally:
            with self._wake_lock:
                self._wake = None
            waker.close()
            wake.close()
            for worker in workers:
                if remaining:
                    worker.proc.terminate()
                worker.proc.join(timeout=5.0)
                worker.conn.close()
        if failure is not None:
            raise failure
        counts: Dict[str, int] = {}
        for batch_state in state.values():
            counts[batch_state] = counts.get(batch_state, 0) + 1
        if remaining or exhausted or waiting:
            raise self._incomplete(
                f"{remaining} batch(es) unfinished, {len(exhausted)} "
                f"exhausted {[e['batch'] for e in exhausted]}, "
                f"{len(waiting)} point(s) not run",
                counts=counts, failed=exhausted,
            )
        return {"batches": len(state), "batch_size": batch_size,
                "counts": counts}

    @staticmethod
    def _merge_spans(records: List[Dict[str, Any]],
                     launched: float) -> None:
        """Fold a worker's spans into this process's ring.

        Adds one ``sweep.queue_wait`` span per executed point: worker
        pickup minus launch time, comparable across processes because
        spans carry epoch timestamps.
        """
        TRACER.extend(records)
        for record in records:
            if record["name"] == "sweep.execute":
                TRACER.record_span(
                    "sweep.queue_wait", launched,
                    max(0.0, record["ts"] - launched),
                    key=record["args"].get("key"),
                )

    # ------------------------------------------------------------------
    def _write_manifest(self, spec: SweepSpec, started_wall: float,
                        resumed: bool,
                        outcome: Optional[SweepResult] = None,
                        plan: Optional[Dict[str, Any]] = None,
                        ) -> Optional[str]:
        """Write ``manifest-<run_id>.json`` (with a store); its path.

        Without ``outcome`` it is the plan-time record a resume reads
        back, and a failed write raises.  With ``outcome`` (and
        ``plan``, the worker processes' batches and counts) it adds the
        per-point record; a failed write is logged and skipped.
        """
        if self.store is None:
            return None
        path = manifest_path_for(self.store.directory, self.run_id)
        manifest = build_manifest(
            run_id=self.run_id,
            spec_payload=spec.payload(),
            workers=self.workers,
            started=started_wall,
            points=None if outcome is None else [{
                "key": r.point.key,
                "params": r.point.as_dict(),
                "cached": r.cached,
                "elapsed": r.elapsed,
            } for r in outcome.results],
            finished=None if outcome is None else time.time(),
            store_path=self.store.path,
            trace_path=self.trace_path,
            events_path=self._events_path(),
            fabric={"max_batch_attempts": MAX_BATCH_ATTEMPTS,
                    "resumed": resumed, **(plan or {})},
            resumed_from=self.run_id if resumed else None,
        )
        try:
            write_manifest(path, manifest)
        except OSError as exc:
            if outcome is None:
                raise  # no record to resume from: run nothing
            # Provenance must never take a finished sweep down; the
            # results themselves are already safely in the store.
            if self.log is not None:
                self.log.warning("manifest_error", path=path,
                                 error=str(exc))
            return None
        return path


def _auto_batch_size(pending: int, workers: int) -> int:
    """About four batches per worker, clamped to [1, 64]."""
    return max(1, min(64, math.ceil(pending / (workers * 4))))
