"""Client for the sweep service: submit / status / stream / result.

Stdlib-only and independent of the server package: plain
``http.client`` for every call, including a job's event stream, which
is Server-Sent Events (one ``data: <json>`` line per message) that any
HTTP client can read.  Synchronous by design — tests, CI smokes and
notebook-style scripts drive it from ordinary threads::

    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit({"study": "caches",
                         "sweep": {"protection.dl0.params.ratio":
                                   [0.25, 0.5]}})
    for message in client.stream(job["job"]):
        print(message["type"])
    rows = client.result(job["job"])["rows"]
"""

from __future__ import annotations

import http.client
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional
from urllib.parse import quote, urlsplit

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response (or a broken stream) from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _spec_payload(spec: Any) -> Any:
    """Accept dicts, StudySpec, or SweepSpec transparently."""
    if isinstance(spec, Mapping):
        return dict(spec)
    for attr in ("to_dict", "payload"):
        method = getattr(spec, attr, None)
        if callable(method):
            return method()
    raise TypeError(
        f"cannot submit {type(spec).__name__}: pass a dict, a "
        f"StudySpec, or a SweepSpec")


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, base_url: str, token: Optional[str] = None,
                 timeout: float = 60.0) -> None:
        split = urlsplit(base_url)
        if split.scheme not in ("http", ""):
            raise ValueError(
                f"unsupported scheme {split.scheme!r} (http only)")
        netloc = split.netloc or split.path
        host, __, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port or 80)
        self.token = token
        self.timeout = timeout

    # -- REST -----------------------------------------------------------
    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    @contextmanager
    def _response(self, method: str, path: str, payload: Any = None,
                  timeout: Optional[float] = None
                  ) -> Iterator[http.client.HTTPResponse]:
        """One request's 2xx response; any other status raises."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout)
        try:
            body = (json.dumps(payload).encode("utf-8")
                    if payload is not None else None)
            conn.request(method, path, body=body,
                         headers=self._headers())
            with conn.getresponse() as response:
                if response.status >= 400:
                    error = _parse(response.read()).get(
                        "error", "request failed")
                    raise ServiceError(response.status, str(error))
                yield response
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 payload: Any = None) -> Dict[str, Any]:
        with self._response(method, path, payload) as response:
            parsed = _parse(response.read())
        if not isinstance(parsed, dict):
            raise ServiceError(502, "non-object JSON response")
        return parsed

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def submit(self, spec: Any, fabric: Optional[bool] = None,
               workers: Optional[int] = None) -> Dict[str, Any]:
        """Submit a spec; returns the job status (``job`` is the id).

        ``deduplicated=True`` in the response means an identical spec
        was already queued/running/done and this submission attached to
        it — no new execution.  ``workers`` picks the executor; ``fabric``
        is accepted for older callers and selects nothing.
        """
        body: Dict[str, Any] = {"spec": _spec_payload(spec)}
        if workers is not None:
            body["workers"] = int(workers)
        return self._request("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/jobs")

    def result(self, job_id: str) -> Dict[str, Any]:
        """Terminal rows of a done job (raises 409 while running)."""
        return self._request(
            "GET", f"/v1/jobs/{quote(job_id)}/result")

    def query(self, key: Optional[str] = None,
              study: Optional[str] = None,
              limit: int = 100) -> Dict[str, Any]:
        """Query the shared result store directly."""
        if key:
            path = f"/v1/results?key={quote(key)}"
        elif study:
            path = f"/v1/results?study={quote(study)}&limit={limit}"
        else:
            path = f"/v1/results?limit={limit}"
        return self._request("GET", path)

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status.get("state") in ("done", "error", "incomplete"):
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status.get('state')} after "
                    f"{timeout}s")
            time.sleep(poll)

    # -- event stream ---------------------------------------------------
    def stream(self, job_id: str,
               timeout: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """Yield the job's messages until the server closes.

        Messages are the server's JSON objects: ``hello``,
        ``telemetry`` (the job's ``total``/``done``/``cache_hits``/
        ``executed`` counters, first and whenever ``done`` moves),
        ``event`` (one record of the job's run from ``events.jsonl``
        each, ``run_start`` to ``run_end``, however late the stream is
        opened), and a final ``job`` status.  A read that waits longer
        than ``timeout`` raises ``ServiceError(504)``.
        """
        path = f"/v1/jobs/{quote(job_id)}/events"
        with self._response("GET", path, timeout=timeout) as response:
            while True:
                try:
                    line = response.readline()
                except TimeoutError as exc:
                    raise ServiceError(
                        504, "stream timed out waiting for events"
                    ) from exc
                if not line:
                    return
                if not line.startswith(b"data:"):
                    continue
                try:
                    message = json.loads(line[len(b"data:"):])
                except ValueError:
                    continue
                if isinstance(message, dict):
                    yield message


def _parse(data: bytes) -> Any:
    """A body as JSON; text that is not JSON becomes ``{"error": …}``."""
    try:
        return json.loads(data) if data else {}
    except ValueError:
        return {"error": data.decode("utf-8", "replace")}
