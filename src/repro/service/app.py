"""The sweep service: an asyncio HTTP frontend over one store.

Routes (all under ``/v1``, all JSON but the event stream)::

    GET  /v1/healthz            liveness + drain state (no auth)
    POST /v1/jobs               submit a StudySpec/SweepSpec payload
    GET  /v1/jobs               list jobs
    GET  /v1/jobs/{id}          one job's status
    GET  /v1/jobs/{id}/result   terminal rows (409 until done)
    GET  /v1/jobs/{id}/events   live stream (text/event-stream)
    GET  /v1/results            store query (?key=… | ?study=…&limit=…)

Submit bodies are either a bare spec payload or ``{"spec": …,
"workers": n}``; ``workers`` picks the executor (1: in the job's
thread; more: worker processes fed by it), and a ``fabric`` field
from older clients is accepted and ignored.  The lifecycle is
deliberately boring: one process, one store directory, jobs
deduplicated by spec hash (HTTP 200 on a dedup hit, 202 on a fresh
launch), SIGTERM → stop accepting, stop every running job at a point
boundary with its manifest on disk, drain, exit 0.

The event stream is Server-Sent Events: one ``data: <json>`` line per
message — ``hello``, ``telemetry`` (the job's counters), one ``event``
per record of the job's run read from ``events.jsonl``, then the
terminal ``job`` status — and the server closes when the job ends.
The log file is the stream's only buffer, so a stream opened late,
even after the job finished, carries the whole run.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from typing import Optional, Set

from repro.config.specs import SpecError
from repro.obs.log import EventLog, EventTailer, new_run_id
from repro.service.auth import TokenAuth
from repro.service.http import (
    HTTPError,
    Request,
    event_data,
    json_response,
    read_request,
    render_response,
)
from repro.service.jobs import DONE, TERMINAL_STATES, Job, JobManager

__all__ = ["SweepService"]

#: Seconds between a stream's polls of the event log.
POLL_INTERVAL = 0.05

#: Seconds a stop gives the open streams, once their jobs have ended,
#: to send each job's final status.
STREAM_GRACE = 1.0


class SweepService:
    """One service instance: a bound socket plus a job manager."""

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        max_jobs: int = 2,
        default_workers: int = 1,
        drain_grace: float = 30.0,
        ready_file: Optional[str] = None,
        quiet: bool = False,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.host = host
        self.port = port
        self.auth = TokenAuth(token)
        self.max_jobs = max_jobs
        self.default_workers = default_workers
        self.drain_grace = drain_grace
        self.ready_file = ready_file
        self.quiet = quiet
        self.manager: Optional[JobManager] = None
        self.log: Optional[EventLog] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._streams: Set[asyncio.Task] = set()
        #: Connection handlers still waiting for their request.
        self._unread: Set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        """Bind the socket and start accepting; returns the real port."""
        loop = asyncio.get_running_loop()
        os.makedirs(self.directory, exist_ok=True)
        self.log = EventLog(
            path=os.path.join(self.directory, "events.jsonl"),
            run_id=f"svc-{new_run_id()[:8]}")
        self.manager = JobManager(
            self.directory, max_jobs=self.max_jobs,
            default_workers=self.default_workers, log=self.log,
            loop=loop)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        self.log.info("service_start", host=self.host, port=self.port,
                      store=self.directory, auth=self.auth.enabled,
                      max_jobs=self.max_jobs)
        if self.ready_file:
            self._write_ready_file()
        if not self.quiet:
            print(f"repro service listening on "
                  f"http://{self.host}:{self.port} "
                  f"(store {self.directory})", flush=True)
        return self.port

    def _install_signal_handlers(
            self, loop: asyncio.AbstractEventLoop) -> None:
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread (tests) or platform without signal
                # support: request_stop() is still callable directly.
                return

    def _write_ready_file(self) -> None:
        # Atomic write so a poller never reads a torn JSON file.
        assert self.ready_file is not None
        payload = json.dumps({
            "url": f"http://{self.host}:{self.port}",
            "pid": os.getpid(),
            "store": self.directory,
        }, sort_keys=True)
        tmp = f"{self.ready_file}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        os.replace(tmp, self.ready_file)

    def request_stop(self) -> None:
        """Begin graceful shutdown (signal handler / test hook)."""
        if self._stop is not None and not self._stop.is_set():
            self._stop.set()

    async def run(self) -> int:
        """Serve until stopped, then drain; the ``repro serve`` body."""
        await self.start()
        assert self._stop is not None
        await self._stop.wait()
        await self.shutdown()
        return 0

    async def shutdown(self) -> None:
        """Stop accepting, drain jobs, close everything.

        Since Python 3.12.1 ``Server.wait_closed`` waits for every open
        connection, so nothing may be left waiting on a client: the
        connections still unread are closed with the listening socket,
        and jobs stop before the wait, as a job's stream stays open
        until the job ends.  The streams get up to :data:`STREAM_GRACE`
        to send their jobs' final status first, on every Python version.
        """
        assert self.manager is not None and self.log is not None
        if self._server is not None:
            self._server.close()
        for handler in self._unread:
            handler.cancel()
        if self._unread:
            await asyncio.wait(self._unread)
        self.log.info("service_drain",
                      jobs=len(self.manager.jobs()))
        summary = await self.manager.drain(grace=self.drain_grace)
        if self._streams:
            await asyncio.wait(self._streams, timeout=STREAM_GRACE)
        if self._server is not None:
            await self._server.wait_closed()
        self.log.info("service_stop", **summary)
        self.manager.close()
        if not self.quiet:
            unfinished = summary.get("unfinished") or []
            note = (f"; resume with repro sweep --resume "
                    f"{' '.join(unfinished)}" if unfinished else "")
            print(f"repro service drained "
                  f"({len(unfinished)} unfinished job(s)){note}",
                  flush=True)

    # -- connection handling --------------------------------------------
    async def _handle_connection(
            self, reader: asyncio.StreamReader,
            writer: asyncio.StreamWriter) -> None:
        assert self._stop is not None
        if self._stop.is_set():
            # Accepted as the stop came: close it without an await, so
            # the loop's end cannot catch this handler mid-way.
            writer.close()
            return
        handler = asyncio.current_task()
        assert handler is not None
        self._unread.add(handler)
        try:
            try:
                request = await read_request(reader)
            except asyncio.CancelledError:
                # Shutdown closes the connections still unread; ending
                # normally keeps 3.11 from logging the handler as failed.
                return
            finally:
                self._unread.discard(handler)
            if request is None:
                return
            await self._dispatch(request, reader, writer)
        except HTTPError as exc:
            await self._send(writer, json_response(
                exc.status, {"error": exc.message}))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # a handler bug must not kill accept
            if self.log is not None:
                self.log.error("request_error",
                               error=f"{type(exc).__name__}: {exc}")
            try:
                await self._send(writer, json_response(
                    500, {"error": "internal error"}))
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    async def _dispatch(self, request: Request,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Route and answer one request."""
        assert self.manager is not None
        path = request.path.rstrip("/") or "/"
        if request.method == "GET" and path == "/v1/healthz":
            await self._send(writer, json_response(200, {
                "status": "ok",
                "draining": self.manager.draining,
                "jobs": len(self.manager.jobs()),
            }))
            return
        if not self.auth.check(request.headers):
            if self.log is not None:
                self.log.warning("auth_denied", path=path)
            await self._send(writer, json_response(
                401, {"error": "missing or invalid bearer token"}))
            return
        if request.method == "POST" and path == "/v1/jobs":
            await self._send(writer, self._submit(request))
        elif request.method == "GET" and path == "/v1/jobs":
            await self._send(writer, json_response(200, {
                "jobs": [job.status()
                         for job in self.manager.jobs()],
            }))
        elif request.method == "GET" and path.startswith("/v1/jobs/") \
                and path.endswith("/events"):
            await self._events(reader, writer, self._job(
                path[len("/v1/jobs/"):-len("/events")]))
        elif request.method == "GET" and path.startswith("/v1/jobs/"):
            await self._send(writer, self._job_query(path))
        elif request.method == "GET" and path == "/v1/results":
            await self._send(writer, self._results(request))
        else:
            raise HTTPError(404, f"no route for {request.method} {path}")

    # -- HTTP handlers --------------------------------------------------
    def _submit(self, request: Request) -> bytes:
        assert self.manager is not None
        if self.manager.draining:
            raise HTTPError(503, "service is draining")
        body = request.json()
        if not isinstance(body, dict):
            raise HTTPError(400, "submit body must be a JSON object")
        spec_payload = body.get("spec", body)
        workers = body.get("workers")
        if workers is not None and (
                not isinstance(workers, int) or workers < 1):
            raise HTTPError(400, "workers must be a positive integer")
        try:
            job, deduplicated = self.manager.submit(
                spec_payload, workers=workers)
        except (SpecError, KeyError, ValueError, TypeError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise HTTPError(400, f"bad spec: {message}") from exc
        status = 200 if deduplicated else 202
        return json_response(status, {
            "job": job.run_id,
            "deduplicated": deduplicated,
            **job.status(),
        })

    def _job(self, job_id: str) -> Job:
        assert self.manager is not None
        job = self.manager.get(job_id)
        if job is None or "/" in job_id:
            raise HTTPError(404, f"unknown job {job_id!r}")
        return job

    def _job_query(self, path: str) -> bytes:
        tail = path[len("/v1/jobs/"):]
        if tail.endswith("/result"):
            job_id, want_result = tail[:-len("/result")], True
        else:
            job_id, want_result = tail, False
        job = self._job(job_id)
        if not want_result:
            return json_response(200, job.status())
        if job.state != DONE:
            raise HTTPError(
                409, f"job {job_id} is {job.state}, not done")
        return json_response(200, {
            "job": job.run_id,
            "run_id": job.run_id,
            "study": job.spec.study,
            "manifest": job.manifest_path,
            "rows": job.results,
        })

    def _results(self, request: Request) -> bytes:
        assert self.manager is not None
        key = request.param("key")
        study = request.param("study")
        try:
            limit = int(request.param("limit", "100") or "100")
        except ValueError as exc:
            raise HTTPError(400, "limit must be an integer") from exc
        rows = self.manager.query_results(key=key, study=study,
                                          limit=limit)
        if key and not rows:
            raise HTTPError(404, f"no stored result for key {key!r}")
        return json_response(200, {"records": rows})

    # -- event stream ---------------------------------------------------
    async def _events(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter, job: Job) -> None:
        """Stream one job's messages until it ends or the client goes.

        The client sends nothing after its request, so a read that
        returns is its hang-up: the stream is stopped then, not at its
        next write into a dead socket.
        """
        if self.log is not None:
            self.log.info("stream_subscribe", job=job.run_id)
        stream = asyncio.create_task(self._stream(writer, job))
        self._streams.add(stream)
        stream.add_done_callback(self._streams.discard)
        tasks = (stream, asyncio.create_task(_hang_up(reader)))
        try:
            await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, ConnectionError, OSError):
                    pass

    async def _stream(self, writer: asyncio.StreamWriter, job: Job) -> None:
        """The head and ``hello``, then the job's run read from the log.

        ``events.jsonl`` is read from the offset taken at submit,
        filtered to the job's run id, every :data:`POLL_INTERVAL` (at
        once again, after a yield, while a poll stops at the chunk
        bound), with a ``telemetry`` message first and whenever
        ``done`` moves.  The
        runner logs ``run_end`` before the job's state turns terminal,
        so the first poll that starts after that reads the run to its
        end, and the ``job`` status follows it.
        """
        assert self.manager is not None
        head = render_response(200, None, content_type="text/event-stream")
        tailer = EventTailer(self.manager.events_path,
                             offset=job.tail_from, run_id=job.run_id)
        done = job.done
        await self._send(writer, head + event_data({
            "type": "hello",
            "job": job.run_id,
            "run_id": job.run_id,
            "state": job.state,
            "study": job.spec.study,
            "total": job.total,
        }) + _telemetry(job, done))
        while True:
            ended = job.state in TERMINAL_STATES
            out = [event_data({"type": "event", "record": record})
                   for record in tailer.poll()]
            if job.done != done:
                done = job.done
                out.append(_telemetry(job, done))
            if out:
                await self._send(writer, b"".join(out))
            if ended and not tailer.behind:
                break
            # Between chunks only yield: a stream far behind a long log
            # must not hold the loop while it catches up.
            await asyncio.sleep(0 if tailer.behind else POLL_INTERVAL)
        await self._send(writer, event_data({"type": "job", **job.status()}))


def _telemetry(job: Job, done: int) -> bytes:
    """The job's four counters as one ``telemetry`` message."""
    return event_data({
        "type": "telemetry",
        "job": job.run_id,
        "label": done,
        "values": {"total": job.total, "done": done,
                   "cache_hits": job.cache_hits,
                   "executed": job.executed},
    })


async def _hang_up(reader: asyncio.StreamReader) -> None:
    """Return once the client closes its end (its bytes are ignored)."""
    try:
        while await reader.read(4096):
            pass
    except (ConnectionError, OSError):
        pass
