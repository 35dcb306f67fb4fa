"""Job lifecycle for the sweep service: dedup and execute.

A *job* is one submitted StudySpec/SweepSpec resolved to the engine's
:class:`~repro.experiments.spec.SweepSpec`.  Jobs are identified by
their run_id (so manifests and event-log records line up
with the job id a client holds) and deduplicated by spec hash: two
clients POSTing the same spec — concurrently or hours apart — attach
to one execution sharing one result-store write per point.  Point-level
dedup then happens inside the runner against the shared
:class:`~repro.fabric.store.ShardedResultStore`, so even *different*
specs overlapping in grid points share work.

Threading model (the part that has to be right):

- submits arrive on the server's connection threads; the dedup check
  and the job's registration happen under one ``threading.Lock``, so
  two simultaneous identical submits resolve to one execution, and no
  job is registered once the drain has begun;
- each job's sweep runs in a ``ThreadPoolExecutor`` slot, opening its
  *own* store handle over the shared directory, under one
  :class:`~repro.experiments.runner.SweepRunner` — in the thread for
  ``workers=1``, otherwise on worker processes that the job's thread
  feeds batches to;
- a job's thread shares only plain-int counter updates (GIL atomic)
  and the job's fields, the terminal ``state`` assigned last; the
  run's records reach a stream through ``events.jsonl`` itself, which
  the stream reads from the offset taken at submit.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.experiments.runner import (
    EVENTS_NAME,
    SweepIncompleteError,
    SweepResult,
    SweepRunner,
)
from repro.experiments.spec import SweepSpec
from repro.fabric.store import ShardedResultStore
from repro.obs.log import EventLog, new_run_id
from repro.obs.provenance import spec_hash

__all__ = ["DrainingError", "Job", "JobManager", "TERMINAL_STATES"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
INCOMPLETE = "incomplete"

TERMINAL_STATES = (DONE, ERROR, INCOMPLETE)


class DrainingError(RuntimeError):
    """The service is draining and takes no new job."""


class Job:
    """One deduplicated sweep execution and its progress counters."""

    def __init__(self, run_id: str, spec: SweepSpec, digest: str,
                 workers: int, directory: str, tail_from: int) -> None:
        self.run_id = run_id
        self.spec = spec
        self.spec_hash = digest
        self.workers = workers
        self.directory = directory
        #: Size of ``events.jsonl`` when the job was submitted: its
        #: stream reads the run's records from here.
        self.tail_from = tail_from
        self.state = QUEUED
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.submissions = 1
        self.total = spec.size
        self.done = 0
        self.cache_hits = 0
        self.executed = 0
        self.manifest_path: Optional[str] = None
        self.results: List[Dict[str, Any]] = []
        self._runner: Optional[SweepRunner] = None

    # ------------------------------------------------------------------
    def note_point(self, result: Any) -> None:
        """Runner progress callback (executor thread: plain ints only)."""
        self.done += 1
        if result.cached:
            self.cache_hits += 1
        else:
            self.executed += 1

    def status(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job": self.run_id,
            "run_id": self.run_id,
            "state": self.state,
            "study": self.spec.study,
            "spec_hash": self.spec_hash,
            "workers": self.workers,
            "submissions": self.submissions,
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "manifest": self.manifest_path,
        }
        if self.state == INCOMPLETE:
            payload["resume"] = (f"repro sweep --resume {self.run_id} "
                                 f"--store {self.directory}")
        return payload


class JobManager:
    """Submit, deduplicate and execute sweep jobs."""

    def __init__(self, directory: str, max_jobs: int = 2,
                 default_workers: int = 1,
                 log: Optional[EventLog] = None) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.events_path = os.path.join(self.directory, EVENTS_NAME)
        self.default_workers = default_workers
        self.log = log
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_jobs, thread_name_prefix="repro-job")
        #: Guards ``_jobs``, ``_by_hash``, ``_futures`` and ``draining``.
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._by_hash: Dict[str, str] = {}
        self._futures: Dict[str, concurrent.futures.Future] = {}
        self.draining = False
        # The query handle the connection threads share over the store
        # directory.
        self.store = ShardedResultStore(self.directory)

    # -- submission -----------------------------------------------------
    def submit(self, payload: Any,
               workers: Optional[int] = None) -> Tuple[Job, bool]:
        """Resolve, dedupe and (if new) launch a job.

        Returns ``(job, deduplicated)``; raises :class:`DrainingError`
        once the drain has begun.  Safe from any thread: the lookup and
        the registration are one step under the manager's lock.
        """
        spec = api.sweep_from_payload(payload)
        digest = spec_hash(spec.payload())
        with self._lock:
            if self.draining:
                raise DrainingError(
                    "service is draining; not accepting jobs")
            known = self._by_hash.get(digest)
            if known is not None:
                job = self._jobs[known]
                if job.state != ERROR:
                    job.submissions += 1
                    return job, True
                # A failed attempt does not poison the spec forever:
                # fall through and run it afresh.
            # The event-log offset is taken *before* the job thread can
            # write run_start, so the job's stream starts at its run.
            try:
                tail_from = os.path.getsize(self.events_path)
            except OSError:
                tail_from = 0
            job = Job(
                run_id=new_run_id(),
                spec=spec,
                digest=digest,
                workers=max(1, workers or self.default_workers),
                directory=self.directory,
                tail_from=tail_from,
            )
            self._jobs[job.run_id] = job
            self._by_hash[digest] = job.run_id
            if self.log is not None:
                self.log.info("job_submitted", job=job.run_id,
                              study=job.spec.study, points=job.total,
                              spec_hash=digest, workers=job.workers)
            self._futures[job.run_id] = self._executor.submit(
                self._run_job, job)
        return job, False

    def get(self, run_id: str) -> Optional[Job]:
        return self._jobs.get(run_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            jobs = list(self._jobs.values())
        return sorted(jobs, key=lambda j: j.created)

    # -- execution (executor thread) ------------------------------------
    def _run_job(self, job: Job) -> None:
        job.started = time.time()
        job.state = RUNNING
        store = ShardedResultStore(self.directory)
        try:
            runner = SweepRunner(store=store, workers=job.workers,
                                 run_id=job.run_id, progress=job.note_point)
            job._runner = runner
            if self.draining:
                # The drain may have looked for runners before this one
                # existed; it still leaves a manifest to resume from.
                runner.request_stop()
            outcome = runner.run(job.spec)
            job.results = _result_rows(outcome)
            job.manifest_path = outcome.manifest_path
            state = DONE
        except SweepIncompleteError as exc:
            job.error = str(exc)
            state = INCOMPLETE
        except Exception as exc:  # surfaced via status, never raised
            job.error = f"{type(exc).__name__}: {exc}"
            state = ERROR
        finally:
            job._runner = None
            job.finished = time.time()
            store.close()
        # Last: whoever sees a terminal state sees the whole job.
        job.state = state

    # -- queries --------------------------------------------------------
    def query_results(self, key: Optional[str] = None,
                      study: Optional[str] = None,
                      limit: int = 100) -> List[Dict[str, Any]]:
        """Store rows by key or study (the ``/v1/results`` endpoint)."""
        if key:
            record = self.store.get(key)
            return [_record_row(record)] if record is not None else []
        rows = self.store.records(study or None)
        return [_record_row(record) for record in rows[:max(0, limit)]]

    # -- drain ----------------------------------------------------------
    def drain(self, grace: float = 30.0) -> Dict[str, Any]:
        """Stop accepting work; wind down what is running.

        Every running job is asked to stop — at its next point boundary,
        or by terminating its worker processes — and waited for up to
        ``grace`` seconds.  Each leaves its manifest behind, so ``repro
        sweep --resume`` finishes it bit-identically later.  Counts what
        happened so the caller can log it.
        """
        with self._lock:
            self.draining = True
        # No job is registered from here on.
        stopped = 0
        for job in self._jobs.values():
            runner = job._runner
            if runner is not None:
                runner.request_stop()
                stopped += 1
        concurrent.futures.wait(self._futures.values(), timeout=grace)
        self._executor.shutdown(wait=False)
        unfinished = [j.run_id for j in self._jobs.values()
                      if j.state not in TERMINAL_STATES]
        return {"stopped": stopped, "unfinished": unfinished}

    def close(self) -> None:
        self.store.close()


def _result_rows(outcome: SweepResult) -> List[Dict[str, Any]]:
    return [{
        "key": r.point.key,
        "params": r.point.as_dict(),
        "metrics": dict(r.metrics),
        "cached": r.cached,
        "elapsed": r.elapsed,
    } for r in outcome.results]


def _record_row(record: Any) -> Dict[str, Any]:
    return {
        "key": record.key,
        "study": record.study,
        "params": dict(record.params),
        "metrics": dict(record.metrics),
        "elapsed": record.elapsed,
        "created": record.created,
    }
