"""The sweep service: a threaded HTTP frontend over one store.

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

The server is the standard library's ``ThreadingHTTPServer``: each
connection is read and answered on a daemon thread of its own, one
request per connection, every response ``Connection: close``.  A
request must arrive within :data:`READ_TIMEOUT`, inside the limits
below; whatever is refused, by these checks or by the standard
library's own parse, is answered ``{"error": …}``.

The event stream is Server-Sent Events: one ``data: <json>`` line per
message — ``hello``, ``telemetry`` (the job's counters), one ``event``
per record of the job's run read from ``events.jsonl``, then the
terminal ``job`` status — and the server closes when the job ends.
The log file is the stream's only buffer, so a stream opened late,
even after the job finished, carries the whole run.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import threading
from contextlib import contextmanager
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.config.specs import SpecError
from repro.obs.log import EventLog, EventTailer, new_run_id
from repro.service.auth import TokenAuth
from repro.service.jobs import (
    DONE,
    TERMINAL_STATES,
    DrainingError,
    Job,
    JobManager,
)

__all__ = ["SweepService"]

#: Seconds between a stream's polls of the event log.
POLL_INTERVAL = 0.05

#: Seconds a stop gives the open streams, once their jobs have ended,
#: to send each job's final status.
STREAM_GRACE = 1.0

#: Seconds a connection may stay silent while its request is read (and
#: a plain response's client while it is written) before it is closed.
READ_TIMEOUT = 30.0

MAX_HEADER_LINE = 16 * 1024
MAX_HEADERS = 64
MAX_BODY = 16 * 1024 * 1024


class HTTPError(Exception):
    """Abort a request with a status; its body is ``{"error": message}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


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
        self._server: Optional[_Server] = None
        #: Event streams being sent, and the condition a stop waits on.
        self.open_streams = 0
        self._streams_changed = threading.Condition()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> int:
        """Bind the socket and serve from a thread; returns the port."""
        os.makedirs(self.directory, exist_ok=True)
        self.log = EventLog(
            path=os.path.join(self.directory, "events.jsonl"),
            run_id=f"svc-{new_run_id()[:8]}")
        self.manager = JobManager(
            self.directory, max_jobs=self.max_jobs,
            default_workers=self.default_workers, log=self.log)
        self._server = _Server(self)
        self.port = self._server.server_address[1]
        # The serving loop checks for a stop at this interval.
        threading.Thread(target=self._server.serve_forever,
                         args=(POLL_INTERVAL,), name="repro-serve",
                         daemon=True).start()
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

    def run(self) -> int:
        """Serve until SIGTERM or SIGINT, then stop; ``repro serve``.

        Either signal raises ``KeyboardInterrupt`` in the main thread,
        which does nothing else until then, and the stop runs there.
        A second signal during the stop is ignored.
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.default_int_handler)
        self.start()
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        for signum in (signal.SIGTERM, signal.SIGINT):
            # A handler, not SIG_IGN: worker processes spawned from here
            # on must still die of SIGTERM.
            signal.signal(signum, lambda *__: None)
        self.shutdown()
        return 0

    def shutdown(self) -> None:
        """Stop accepting, drain the jobs, let the streams end, close.

        Jobs stop before the wait for streams, as a job's stream stays
        open until its job ends; the streams then get up to
        :data:`STREAM_GRACE` to send their jobs' final status.  Every
        other connection is on a daemon thread and holds nothing up: a
        client that never sent its request ends with the process.
        """
        assert self._server is not None and self.manager is not None
        assert self.log is not None
        self._server.shutdown()
        self._server.server_close()
        self.log.info("service_drain",
                      jobs=len(self.manager.jobs()))
        summary = self.manager.drain(grace=self.drain_grace)
        with self._streams_changed:
            self._streams_changed.wait_for(lambda: not self.open_streams,
                                           timeout=STREAM_GRACE)
        self.log.info("service_stop", **summary)
        self.manager.close()
        if not self.quiet:
            unfinished = summary.get("unfinished") or []
            note = (f"; resume with repro sweep --resume "
                    f"{' '.join(unfinished)}" if unfinished else "")
            print(f"repro service drained "
                  f"({len(unfinished)} unfinished job(s)){note}",
                  flush=True)

    @contextmanager
    def streaming(self) -> Iterator[None]:
        """Count one open event stream while the block runs."""
        with self._streams_changed:
            self.open_streams += 1
        try:
            yield
        finally:
            with self._streams_changed:
                self.open_streams -= 1
                self._streams_changed.notify_all()


class _Server(ThreadingHTTPServer):
    """The listening socket; each connection gets a daemon thread."""

    #: Connections the kernel queues until they are accepted.
    request_queue_size = 100

    def __init__(self, service: SweepService) -> None:
        self.service = service
        super().__init__((service.host, service.port), _Handler)


class _Handler(BaseHTTPRequestHandler):
    """One connection: read one request inside the limits, answer it."""

    server: _Server
    protocol_version = "HTTP/1.1"
    server_version = "repro-sweep-service"
    #: Seconds each read (and write) of the connection may wait.
    timeout = READ_TIMEOUT
    # A response is two writes, head then body: the body must not wait
    # for the head's ACK (Nagle's algorithm).
    disable_nagle_algorithm = True

    def version_string(self) -> str:
        return self.server_version

    def log_message(self, format: str, *args: Any) -> None:
        """Nothing per request on stderr: the event log has what counts."""

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer ``{"error": message}``, the standard library's errors too.

        Always as HTTP/1.1, even when the standard library's parse took
        the request line for HTTP/0.9 before it failed.
        """
        self.request_version = self.protocol_version
        self._send(code, {"error": message or HTTPStatus(code).phrase})

    def handle(self) -> None:
        """Answer one request; the connection then closes."""
        try:
            self.raw_requestline = self.rfile.readline(MAX_HEADER_LINE + 1)
            if self.raw_requestline:
                self._answer()
        except (ConnectionError, TimeoutError):
            pass  # the client went away, or stayed silent: nobody to answer

    def _answer(self) -> None:
        try:
            if self._read_request():
                self._route()
        except HTTPError as exc:
            self.send_error(exc.status, exc.message)
        except (ConnectionError, TimeoutError):
            raise
        except Exception as exc:  # a handler bug still gets an answer
            log = self.server.service.log
            if log is not None:
                log.error("request_error",
                          error=f"{type(exc).__name__}: {exc}")
            self.send_error(500, "internal error")

    def _read_request(self) -> bool:
        """Parse the request inside the service's limits; False when the
        standard library's parse refused it (and answered it).

        The request line is checked before that parse and the headers
        after it; its own bounds (65536-byte lines, 100 headers) cap the
        memory a request can take.
        """
        line = self.raw_requestline
        # Every response logs it, and a check below may answer before
        # the standard library's parse would set it.
        self.requestline = line.decode("latin-1").rstrip("\r\n")
        if len(line) > MAX_HEADER_LINE:
            raise HTTPError(431, "header line too long")
        if not line.endswith(b"\n"):
            raise HTTPError(400, "truncated request")
        words = self.requestline.split()
        if len(words) != 3:
            raise HTTPError(400, "malformed request line")
        if not words[2].startswith("HTTP/1."):
            raise HTTPError(505, f"unsupported version {words[2]!r}")
        if not self.parse_request():
            return False
        if len(self.headers) > MAX_HEADERS:
            raise HTTPError(431, "too many headers")
        if any(len(name) + len(value) + 4 > MAX_HEADER_LINE
               for name, value in self.headers.items()):
            raise HTTPError(431, "header line too long")
        if self.headers.defects:
            raise HTTPError(400, "malformed header")
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            raise HTTPError(501, "chunked request bodies not supported")
        length = self.headers.get("Content-Length")
        self.body = b""
        if length is not None:
            try:
                size = int(length)
            except ValueError as exc:
                raise HTTPError(400, "bad Content-Length") from exc
            if size < 0 or size > MAX_BODY:
                raise HTTPError(413, f"body over {MAX_BODY} bytes")
            self.body = self.rfile.read(size)
            if len(self.body) < size:
                raise HTTPError(400, "truncated body")
        return True

    def _send(self, status: int, payload: Any) -> None:
        """One JSON response."""
        body = (_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    # -- routing --------------------------------------------------------
    def _route(self) -> None:
        """Route and answer the request."""
        service = self.server.service
        manager = service.manager
        assert manager is not None
        method = self.command.upper()
        target = urlsplit(self.path)
        path = unquote(target.path).rstrip("/") or "/"
        if method == "GET" and path == "/v1/healthz":
            self._send(200, {
                "status": "ok",
                "draining": manager.draining,
                "jobs": len(manager.jobs()),
            })
            return
        if not service.auth.check(self.headers):
            if service.log is not None:
                service.log.warning("auth_denied", path=path)
            raise HTTPError(401, "missing or invalid bearer token")
        if method == "POST" and path == "/v1/jobs":
            self._send(*self._submit(manager))
        elif method == "GET" and path == "/v1/jobs":
            self._send(200, {"jobs": [job.status()
                                      for job in manager.jobs()]})
        elif method == "GET" and path.startswith("/v1/jobs/") \
                and path.endswith("/events"):
            self._events(self._job(
                manager, path[len("/v1/jobs/"):-len("/events")]))
        elif method == "GET" and path.startswith("/v1/jobs/"):
            self._send(200, self._job_query(manager, path))
        elif method == "GET" and path == "/v1/results":
            self._send(200, self._results(manager,
                                          parse_qs(target.query)))
        else:
            raise HTTPError(404, f"no route for {method} {path}")

    def _submit(self, manager: JobManager) -> Tuple[int, Dict[str, Any]]:
        if manager.draining:
            raise HTTPError(503, "service is draining")
        try:
            body = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise HTTPError(400, "submit body must be a JSON object")
        spec_payload = body.get("spec", body)
        workers = body.get("workers")
        # A JSON true is a Python int too.
        if workers is not None and (
                isinstance(workers, bool) or not isinstance(workers, int)
                or workers < 1):
            raise HTTPError(400, "workers must be a positive integer")
        try:
            job, deduplicated = manager.submit(spec_payload,
                                               workers=workers)
        except DrainingError as exc:
            raise HTTPError(503, "service is draining") from exc
        except (SpecError, KeyError, ValueError, TypeError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise HTTPError(400, f"bad spec: {message}") from exc
        return (200 if deduplicated else 202), {
            "job": job.run_id,
            "deduplicated": deduplicated,
            **job.status(),
        }

    @staticmethod
    def _job(manager: JobManager, job_id: str) -> Job:
        job = manager.get(job_id)
        if job is None or "/" in job_id:
            raise HTTPError(404, f"unknown job {job_id!r}")
        return job

    def _job_query(self, manager: JobManager, path: str) -> Dict[str, Any]:
        tail = path[len("/v1/jobs/"):]
        if tail.endswith("/result"):
            job_id, want_result = tail[:-len("/result")], True
        else:
            job_id, want_result = tail, False
        job = self._job(manager, job_id)
        if not want_result:
            return job.status()
        if job.state != DONE:
            raise HTTPError(
                409, f"job {job_id} is {job.state}, not done")
        return {
            "job": job.run_id,
            "run_id": job.run_id,
            "study": job.spec.study,
            "manifest": job.manifest_path,
            "rows": job.results,
        }

    @staticmethod
    def _results(manager: JobManager,
                 query: Dict[str, List[str]]) -> Dict[str, Any]:
        def param(name: str) -> Optional[str]:
            # The last value wins: a curl-friendly override.
            values = query.get(name)
            return values[-1] if values else None

        key = param("key")
        try:
            limit = int(param("limit") or "100")
        except ValueError as exc:
            raise HTTPError(400, "limit must be an integer") from exc
        rows = manager.query_results(key=key, study=param("study"),
                                     limit=limit)
        if key and not rows:
            raise HTTPError(404, f"no stored result for key {key!r}")
        return {"records": rows}

    # -- event stream ---------------------------------------------------
    def _events(self, job: Job) -> None:
        """The head and ``hello``, then the job's run read from the log.

        ``events.jsonl`` is read from the offset taken at submit,
        filtered to the job's run id, every :data:`POLL_INTERVAL` (at
        once again while a poll stops at the chunk bound), with a
        ``telemetry`` message first and whenever ``done`` moves.  The
        runner logs ``run_end`` before the job's state turns terminal,
        so the first poll that starts after that reads the run to its
        end, and the ``job`` status follows it.

        Between polls the stream waits on the client's socket.  The
        client sends nothing after its request, so the socket turning
        readable with nothing to read is its hang-up: the stream stops
        then, not at its next write into a dead socket.
        """
        service = self.server.service
        assert service.manager is not None and service.log is not None
        service.log.info("stream_subscribe", job=job.run_id)
        tailer = EventTailer(service.manager.events_path,
                             offset=job.tail_from, run_id=job.run_id)
        # The read timeout is for requests: a slow reader holds up only
        # its own stream.
        self.connection.settimeout(None)
        with service.streaming(), selectors.DefaultSelector() as client:
            client.register(self.connection, selectors.EVENT_READ)
            done = job.done
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(_event({
                "type": "hello",
                "job": job.run_id,
                "run_id": job.run_id,
                "state": job.state,
                "study": job.spec.study,
                "total": job.total,
            }) + _telemetry(job, done))
            while True:
                ended = job.state in TERMINAL_STATES
                out = [_event({"type": "event", "record": record})
                       for record in tailer.poll()]
                if job.done != done:
                    done = job.done
                    out.append(_telemetry(job, done))
                if out:
                    self.wfile.write(b"".join(out))
                if ended and not tailer.behind:
                    break
                if not tailer.behind and client.select(POLL_INTERVAL) \
                        and not self.connection.recv(4096):
                    return
            self.wfile.write(_event({"type": "job", **job.status()}))


def _json(payload: Any) -> str:
    # Sorted keys: byte-stable for tests/curl.
    return json.dumps(payload, sort_keys=True, default=str)


def _event(payload: Any) -> bytes:
    """One Server-Sent Event: a ``data:`` line of JSON, then a blank line."""
    return f"data: {_json(payload)}\n\n".encode("utf-8")


def _telemetry(job: Job, done: int) -> bytes:
    """The job's four counters as one ``telemetry`` message."""
    return _event({
        "type": "telemetry",
        "job": job.run_id,
        "label": done,
        "values": {"total": job.total, "done": done,
                   "cache_hits": job.cache_hits,
                   "executed": job.executed},
    })
