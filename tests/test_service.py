"""Tests for the sweep service (HTTP frontend, Server-Sent Events).

Three layers, matching the module split:

- auth and the job manager — no sockets;
- a live server on an ephemeral port driven by the real
  :class:`repro.client.ServiceClient`, or by raw bytes, over real TCP
  (the request parsing and its limits are tested this way);
- the service's contracts: concurrent identical submits share one
  execution and one store write per point, every stream, however late
  it is opened, carries hello, ≥1 telemetry, the run's records from
  run_start to run_end and the job's status, and a drained job resumes
  bit-identically.
"""

import concurrent.futures
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.client import ServiceClient, ServiceError
from repro.experiments import SweepRunner, SweepSpec
from repro.experiments.registry import _STUDIES, register_study
from repro.obs import log as obs_log
from repro.service import SweepService, TokenAuth, app, jobs

TINY_PAYLOAD = {
    "study": "caches",
    "base": {"length": 600, "seed": 3},
    "grid": {"ratio": [0.4, 0.6]},
}


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------
class TestTokenAuth:
    def test_disabled_when_no_token(self):
        auth = TokenAuth(None)
        assert not auth.enabled
        assert auth.check({})

    def test_bearer_token_checked(self):
        auth = TokenAuth("s3cret")
        assert auth.enabled
        assert auth.check({"authorization": "Bearer s3cret"})
        assert auth.check({"authorization": "bearer s3cret"})
        assert not auth.check({"authorization": "Bearer wrong"})
        assert not auth.check({"authorization": "s3cret"})
        assert not auth.check({})


# ----------------------------------------------------------------------
# Live server fixtures
# ----------------------------------------------------------------------
@contextmanager
def live_service(directory, drain_within=30.0, **kwargs):
    """A SweepService on an ephemeral port, serving from its own
    threads, whose stop must end within ``drain_within`` seconds."""
    service = SweepService(str(directory), port=0, quiet=True, **kwargs)
    port = service.start()
    try:
        yield port, service
    finally:
        errors = []

        def stop():
            try:
                service.shutdown()
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=stop, daemon=True)
        thread.start()
        thread.join(timeout=drain_within)
        assert not thread.is_alive(), "service failed to drain"
        if errors:
            raise errors[0]


def _sleepy_point(params):
    time.sleep(float(params["duration"]))
    return {"slept": float(params["duration"]),
            "ratio": float(params.get("ratio", 0.0))}


@contextmanager
def sleepy_study(name="service_sleepy"):
    register_study(name, "sleeps; lets tests catch jobs mid-flight",
                   defaults={"duration": 0.3, "ratio": 0.0}
                   )(_sleepy_point)
    try:
        yield name
    finally:
        _STUDIES.pop(name, None)


def _broken_point(params):
    raise RuntimeError(f"broken point {params['n']}")


@contextmanager
def broken_study(name="service_broken"):
    register_study(name, "always raises; lets tests fail a job",
                   defaults={"n": 0})(_broken_point)
    try:
        yield name
    finally:
        _STUDIES.pop(name, None)


def _exchange(port, wire):
    """Send raw request bytes; ``(status, headers, JSON body)`` of the
    answer, read to the server's close."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(wire)
        data = _read_to_close(sock)
    head, __, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, __ = status_line.split(" ", 2)
    assert version == "HTTP/1.1", status_line
    headers = {}
    for line in lines:
        name, __, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status), headers, json.loads(body)


def _get(target, *header_lines):
    """A ``GET`` request's bytes with extra raw header lines."""
    return "".join([f"GET {target} HTTP/1.1\r\n", "Host: 127.0.0.1\r\n",
                    *(f"{line}\r\n" for line in header_lines),
                    "\r\n"]).encode("latin-1")


def _post(target, body, *header_lines):
    """A ``POST`` request's bytes: ``body`` with its Content-Length."""
    return _get(target, f"Content-Length: {len(body)}",
                *header_lines).replace(b"GET ", b"POST ", 1) + body


class TestRequestParsing:
    """Every request is read over a live socket; whatever is refused is
    answered with its status and a JSON ``{"error": …}`` body."""

    def test_query_parameters(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            client.wait(client.submit(TINY_PAYLOAD)["job"], timeout=60)
            status, __, body = _exchange(
                port, _get("/v1/results?key=abc&limit=5"))
            assert (status, body) == (
                404, {"error": "no stored result for key 'abc'"})
            status, __, body = _exchange(port, _get("/v1/results"))
            assert status == 200 and len(body["records"]) == 2
            # The last value of a repeated parameter wins.
            status, __, body = _exchange(
                port, _get("/v1/results?study=caches&limit=5&limit=1"))
            assert status == 200 and len(body["records"]) == 1
            status, __, body = _exchange(port, _get("/v1/results?limit=x"))
            assert (status, body) == (
                400, {"error": "limit must be an integer"})

    def test_post_with_body(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            status, headers, body = _exchange(port, _post(
                "/v1/jobs", json.dumps({"spec": TINY_PAYLOAD}).encode(),
                "Content-Type: application/json"))
            assert status == 202
            assert headers["content-type"] == "application/json"
            assert headers["connection"] == "close"
            assert body["total"] == 2 and body["deduplicated"] is False
            ServiceClient(f"http://127.0.0.1:{port}").wait(
                body["job"], timeout=60)

    def test_connection_closed_before_a_request_is_not_answered(
            self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.shutdown(socket.SHUT_WR)
                assert _read_to_close(sock) == b""
            assert ServiceClient(f"http://127.0.0.1:{port}").healthz()[
                "status"] == "ok"
        assert not _logged(tmp_path / "svc", "request_error")

    def test_bad_json_body_rejected(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            status, __, body = _exchange(
                port, _post("/v1/jobs", b"{not jso"))
        assert status == 400
        assert body["error"].startswith("invalid JSON body: ")

    @pytest.mark.parametrize("wire, status, error", [
        (b"GET /v1/healthz HTTP/2.0\r\nHost: x\r\n\r\n",
         505, "unsupported version 'HTTP/2.0'"),
        (b"GET /v1/healthz HTTP/0.9\r\n\r\n",
         505, "unsupported version 'HTTP/0.9'"),
        (b"GET /v1/healthz\r\n\r\n", 400, "malformed request line"),
        (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
        (b"GET /v1/healthz HTTP/1.1 extra\r\n\r\n",
         400, "malformed request line"),
        (_get("/v1/healthz", "Content-Length: abc"),
         400, "bad Content-Length"),
        (_post("/v1/jobs", b"", "Transfer-Encoding: chunked"),
         501, "chunked request bodies not supported"),
        # The over-limit length alone: no body is sent.
        (_get("/v1/jobs", f"Content-Length: {16 * 1024 * 1024 + 1}"),
         413, f"body over {16 * 1024 * 1024} bytes"),
        (_get("/v1/healthz", "Content-Length: -1"),
         413, f"body over {16 * 1024 * 1024} bytes"),
        (_get("/v1/healthz", *(f"X-Header-{n}: {n}" for n in range(64))),
         431, "too many headers"),
        (_get("/v1/healthz", "X-Long: " + "a" * 17000),
         431, "header line too long"),
        (b"GET /" + b"a" * 17000 + b" HTTP/1.1\r\n\r\n",
         431, "header line too long"),
    ], ids=["http2", "http09", "two-words", "one-word", "four-words",
            "bad-length", "chunked", "body-too-big", "negative-length",
            "65-headers", "long-header", "long-request-line"])
    def test_input_limits(self, tmp_path, wire, status, error):
        with live_service(tmp_path / "svc") as (port, __):
            answered, headers, body = _exchange(port, wire)
            assert (answered, body) == (status, {"error": error})
            assert headers["content-type"] == "application/json"
            # The service still answers the next client.
            assert ServiceClient(f"http://127.0.0.1:{port}").healthz()[
                "status"] == "ok"

    @pytest.mark.parametrize("wire, error", [
        (b"GET /v1/healthz HTTP/1.1", "truncated request"),
        (_get("/v1/jobs", "Content-Length: 10") + b"{}", "truncated body"),
        (_get("/v1/healthz", "NoColonHere"), "malformed header"),
    ], ids=["request-line", "body", "header-without-name"])
    def test_truncated_or_malformed_request_is_a_400(
            self, tmp_path, wire, error):
        """The client half-closes after sending ``wire``."""
        with live_service(tmp_path / "svc") as (port, __):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.sendall(wire)
                sock.shutdown(socket.SHUT_WR)
                data = _read_to_close(sock)
        head, __, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"].startswith(error)

    @pytest.mark.parametrize("wire, status, error", [
        (b"GET /v1/healthz HTTP/1.x\r\n\r\n",
         400, "Bad request version ('HTTP/1.x')"),
        (_get("/v1/healthz", *(f"X-Header-{n}: {n}" for n in range(101))),
         431, "Too many headers"),
    ], ids=["bad-minor-version", "101-headers"])
    def test_what_the_standard_library_refuses_is_a_json_error(
            self, tmp_path, wire, status, error):
        """The standard library's own parse refuses these before the
        service's checks: they are answered as HTTP/1.1 JSON errors
        too, even a request line it had taken for HTTP/0.9."""
        with live_service(tmp_path / "svc") as (port, __):
            answered, headers, body = _exchange(port, wire)
        assert (answered, body) == (status, {"error": error})
        assert headers["content-type"] == "application/json"

    def test_requests_inside_the_limits_are_served(self, tmp_path):
        """64 header lines (``Host`` included) and a 16000-byte header
        line are inside the limits."""
        with live_service(tmp_path / "svc") as (port, __):
            for wire in (
                    _get("/v1/healthz",
                         *(f"X-Header-{n}: {n}" for n in range(63))),
                    _get("/v1/healthz", "X-Long: " + "a" * 16000)):
                status, __, body = _exchange(port, wire)
                assert status == 200 and body["status"] == "ok"


class TestJobManager:
    def test_a_job_turns_terminal_last(self, tmp_path, monkeypatch):
        """Whoever sees a done, error or incomplete job sees its
        ``finished`` time, its runner released and its error."""
        seen = []

        class RecordingJob(jobs.Job):
            def __setattr__(self, name, value):
                if name == "state":
                    seen.append((self.run_id, value,
                                 getattr(self, "finished", None),
                                 getattr(self, "_runner", None),
                                 getattr(self, "error", None)))
                super().__setattr__(name, value)

        monkeypatch.setattr(jobs, "Job", RecordingJob)
        deadline = time.monotonic() + 60

        def settle(ready):
            while not ready():
                assert time.monotonic() < deadline
                time.sleep(0.01)

        with sleepy_study() as sleepy, broken_study() as broken:
            manager = jobs.JobManager(str(tmp_path / "svc"))
            try:
                done, __ = manager.submit(TINY_PAYLOAD)
                failed, __ = manager.submit(
                    {"study": broken, "grid": {"n": [1]}})
                for job in (done, failed):
                    settle(lambda: job.state in jobs.TERMINAL_STATES)
                stopped, __ = manager.submit({"study": sleepy, "grid": {
                    "duration": [0.2, 0.2001, 0.2002, 0.2003]}})
                settle(lambda: stopped.done >= 1)
                manager.drain()
                with pytest.raises(jobs.DrainingError):
                    manager.submit(TINY_PAYLOAD)
            finally:
                manager.close()
        assert (done.state, failed.state, stopped.state) == (
            "done", "error", "incomplete")
        terminal = [entry for entry in seen
                    if entry[1] in jobs.TERMINAL_STATES]
        assert sorted((run_id, state) for run_id, state, *__ in terminal) \
            == sorted((job.run_id, job.state)
                      for job in (done, failed, stopped))
        for run_id, state, finished, runner, error in terminal:
            assert finished is not None, (run_id, state)
            assert runner is None, (run_id, state)
            assert (error is None) == (state == "done"), (state, error)


    def test_concurrent_submits_register_one_job_per_spec(self, tmp_path):
        """Eight threads submitting three specs at once, switching every
        microsecond: one job per spec, and not one submission lost."""
        switch = sys.getswitchinterval()
        with sleepy_study() as study:
            payloads = [{"study": study, "grid": {"duration": [0.0],
                                                  "ratio": [ratio]}}
                        for ratio in (0.1, 0.2, 0.3)]
            manager = jobs.JobManager(str(tmp_path / "svc"))
            barrier = threading.Barrier(8)

            def submit(n):
                barrier.wait(timeout=10)
                return [manager.submit(payloads[(n + k) % 3])[0].run_id
                        for k in range(30)]

            sys.setswitchinterval(1e-6)
            try:
                with concurrent.futures.ThreadPoolExecutor(8) as pool:
                    ids = [run_id for chunk in pool.map(submit, range(8))
                           for run_id in chunk]
            finally:
                sys.setswitchinterval(switch)
            try:
                # A drain stops what still runs: let the jobs end first.
                deadline = time.monotonic() + 60
                while any(job.state not in jobs.TERMINAL_STATES
                          for job in manager.jobs()):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            finally:
                manager.drain()
                manager.close()
        assert len(ids) == 240 and len(set(ids)) == 3
        assert [job.submissions for job in manager.jobs()] == [80] * 3
        assert [job.state for job in manager.jobs()] == ["done"] * 3


class TestLiveService:
    def test_submit_stream_result_roundtrip(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            health = client.healthz()
            assert health["status"] == "ok"

            submitted = client.submit(TINY_PAYLOAD)
            job_id = submitted["job"]
            assert submitted["deduplicated"] is False
            assert submitted["total"] == 2

            kinds, types, telemetry = [], [], 0
            for message in client.stream(job_id):
                types.append(message["type"])
                if message["type"] == "event":
                    kinds.append(message["record"]["event"])
                elif message["type"] == "telemetry":
                    telemetry += 1
            assert types[0] == "hello"
            assert "run_start" in kinds and "run_end" in kinds
            assert telemetry >= 1
            assert types[-1] == "job"

            status = client.wait(job_id, timeout=60)
            assert status["state"] == "done"
            assert status["done"] == 2

            rows = client.result(job_id)["rows"]
            assert len(rows) == 2
            assert {row["params"]["ratio"] for row in rows} == \
                {0.4, 0.6}

            # Store query by content key returns the same record.
            key = rows[0]["key"]
            records = client.query(key=key)["records"]
            assert len(records) == 1
            assert records[0]["metrics"] == rows[0]["metrics"]

            # Identical resubmit: dedup hit, no second execution.
            again = client.submit(TINY_PAYLOAD)
            assert again["deduplicated"] is True
            assert again["job"] == job_id
            assert again["submissions"] == 2

    def test_concurrent_identical_submits_share_one_execution(
            self, tmp_path):
        """The ISSUE acceptance test: N concurrent submits of one
        spec → one execution, one store write per point, N identical
        streams each seeing run_start + telemetry + run_end."""
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            url = f"http://127.0.0.1:{port}"

            def submit():
                return ServiceClient(url).submit(TINY_PAYLOAD)

            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                responses = list(pool.map(
                    lambda __: submit(), range(4)))

            assert len({r["job"] for r in responses}) == 1
            fresh = [r for r in responses if not r["deduplicated"]]
            assert len(fresh) == 1
            job_id = responses[0]["job"]

            def consume():
                kinds, telemetry = [], 0
                for message in ServiceClient(url).stream(job_id):
                    if message["type"] == "event":
                        kinds.append(message["record"]["event"])
                    elif message["type"] == "telemetry":
                        telemetry += 1
                return kinds, telemetry

            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                streams = list(pool.map(
                    lambda __: consume(), range(3)))
            for kinds, telemetry in streams:
                assert "run_start" in kinds and "run_end" in kinds
                assert telemetry >= 1

            results = [ServiceClient(url).result(job_id)["rows"]
                       for __ in range(2)]
            assert results[0] == results[1]
            assert len(results[0]) == 2

            # One shard line per point key: the single-execution
            # guarantee, asserted at the storage layer.
            keys = []
            shard_dir = directory / "shards"
            for name in os.listdir(shard_dir):
                with open(shard_dir / name) as handle:
                    keys += [json.loads(line)["key"] for line in handle]
            assert len(keys) == len(set(keys)) == 2

    def test_worker_process_job_matches_in_process_oracle(self, tmp_path):
        """A ``workers: 2`` job runs on lease-board worker processes:
        its rows equal an in-process run without a store, each key is
        stored once, and the job's manifest names its run."""
        from repro.obs.provenance import load_manifest

        payload = {"study": "caches", "base": {"length": 400, "seed": 3},
                   "grid": {"ratio": [0.2, 0.4, 0.6, 0.8],
                            "suite": ["office", "kernels"]}}
        oracle = SweepRunner(store=None, workers=1).run(
            SweepSpec("caches", base=dict(payload["base"]),
                      grid=dict(payload["grid"])))
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(payload, workers=2)["job"]
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "done" and status["workers"] == 2
            rows = client.result(job_id)["rows"]
        assert [(row["key"], row["metrics"]) for row in rows] == [
            (r.point.key, r.metrics) for r in oracle]
        assert not any(row["cached"] for row in rows)

        keys = []
        shard_dir = directory / "shards"
        for name in os.listdir(shard_dir):
            with open(shard_dir / name) as handle:
                keys += [json.loads(line)["key"] for line in handle]
        assert sorted(keys) == sorted(row["key"] for row in rows)

        manifest = load_manifest(status["manifest"])
        assert manifest["run_id"] == job_id
        assert manifest["workers"] == 2
        assert manifest["totals"]["executed"] == len(rows)
        assert manifest["fabric"]["counts"] == {
            "done": manifest["fabric"]["batches"]}

    def test_auth_rejects_and_admits(self, tmp_path):
        with live_service(tmp_path / "svc", token="s3cret") as \
                (port, __):
            url = f"http://127.0.0.1:{port}"
            # healthz stays open for liveness probes.
            assert ServiceClient(url).healthz()["status"] == "ok"

            with pytest.raises(ServiceError) as err:
                ServiceClient(url).submit(TINY_PAYLOAD)
            assert err.value.status == 401
            with pytest.raises(ServiceError) as err:
                ServiceClient(url, token="wrong").jobs()
            assert err.value.status == 401

            client = ServiceClient(url, token="s3cret")
            job = client.submit(TINY_PAYLOAD)
            assert client.wait(job["job"], timeout=60)["state"] == \
                "done"
            # The event stream enforces the same token.
            with pytest.raises(ServiceError) as err:
                next(iter(ServiceClient(url).stream(job["job"])))
            assert err.value.status == 401
            assert any(m["type"] == "hello"
                       for m in client.stream(job["job"]))

    def test_bad_spec_and_unknown_routes(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError) as err:
                client.submit({"study": "no_such_study",
                               "grid": {"x": [1]}})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.status("nonexistent-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.query(key="not-a-key")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v2/nope")
            assert err.value.status == 404

    @pytest.mark.parametrize("grid, axis", [
        ({"suite": "office"}, "suite"),
        ({"ratio": [0.4], "suite": {"office": 1}}, "suite"),
        ({"ratio": 0.4}, "ratio"),
    ])
    def test_grid_axis_that_is_not_an_array_is_refused(
            self, tmp_path, grid, axis):
        """A grid axis must be a JSON array: a string is not split into
        its characters, nor an object taken for its keys."""
        with live_service(tmp_path / "svc") as (port, service):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError) as err:
                client.submit({"study": "caches", "grid": grid})
            assert err.value.status == 400
            assert f"grid axis {axis!r}" in err.value.message
            assert client.jobs()["jobs"] == []

    def test_grid_that_is_not_an_object_is_refused(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            with pytest.raises(ServiceError) as err:
                ServiceClient(f"http://127.0.0.1:{port}").submit(
                    {"study": "caches", "grid": [0.4, 0.6]})
        assert err.value.status == 400
        assert "grid must be a JSON object" in err.value.message

    @pytest.mark.parametrize("workers", [True, False, 0, 2.0, "2"])
    def test_workers_must_be_a_positive_integer(self, tmp_path, workers):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/jobs", {
                    "spec": TINY_PAYLOAD, "workers": workers})
            assert (err.value.status, err.value.message) == (
                400, "workers must be a positive integer")
            assert client.jobs()["jobs"] == []

    def test_result_conflicts_until_done(self, tmp_path):
        with sleepy_study() as study:
            payload = {"study": study,
                       "grid": {"duration": [0.5, 0.5001]}}
            with live_service(tmp_path / "svc") as (port, __):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job = client.submit(payload)
                with pytest.raises(ServiceError) as err:
                    client.result(job["job"])
                assert err.value.status == 409
                assert client.wait(job["job"], timeout=60)[
                    "state"] == "done"
                assert len(client.result(job["job"])["rows"]) == 2

    def test_drain_stops_in_process_job_then_resume_matches(
            self, tmp_path, capsys):
        """SIGTERM-path drain: a running workers=1 job stops at a point
        boundary, is reported incomplete with a resume hint, and
        ``repro sweep --resume`` finishes it bit-identically."""
        from repro.cli import main
        from repro.fabric import ShardedResultStore

        directory = tmp_path / "svc"
        with sleepy_study() as study:
            spec = SweepSpec(study, grid={
                "duration": [0.5, 0.5001, 0.5002, 0.5003]})
            payload = {"study": study, "grid": dict(spec.grid)}
            oracle = SweepRunner(store=None, workers=1).run(spec)

            with live_service(directory, drain_grace=30.0) as \
                    (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                # ``fabric`` is still accepted, and selects nothing.
                job = client.submit(payload, fabric=True)
                job_id = job["job"]
                deadline = time.monotonic() + 30
                while client.status(job_id)["done"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                # Context exit sends the stop; shutdown drains.
            final = service.manager.get(job_id)
            assert final.state == "incomplete"
            assert f"--resume {job_id}" in final.status()["resume"]
            assert 1 <= final.done < 4

            assert main(["sweep", "--resume", job_id, "--store",
                         str(directory), "--quiet"]) == 0
            store = ShardedResultStore(str(directory))
            try:
                rows = {r.point.key: store.get(r.point.key).metrics
                        for r in oracle.results}
            finally:
                store.close()
            assert rows == {r.point.key: r.metrics
                            for r in oracle.results}

    def test_stop_ends_jobs_before_waiting_for_open_streams(self, tmp_path):
        """A stop that arrives while a client streams a running job
        stops the job at its next point boundary, then the stream ends
        with the ``incomplete`` job and the service exits."""
        with sleepy_study() as study:
            payload = {"study": study, "grid": {
                "duration": [0.5 + n / 1e4 for n in range(6)]}}
            with live_service(tmp_path / "svc") as (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job_id = client.submit(payload)["job"]
                sock = _open_stream(port, job_id)
                data = _read_until(sock, b'"hello"')
                deadline = time.monotonic() + 30
                while client.status(job_id)["done"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                # Context exit stops the service with the stream open.
            try:
                data = _read_to_close(sock, data)
            finally:
                sock.close()
        final = service.manager.get(job_id)
        assert final.state == "incomplete"
        assert 1 <= final.done < 6
        messages = _events(data.partition(b"\r\n\r\n")[2].decode())
        assert messages[0]["type"] == "hello"
        assert messages[-1]["type"] == "job"
        assert messages[-1]["state"] == "incomplete"

    def test_stop_with_an_idle_connection_open(self, tmp_path, capfd):
        """A client that connected and sent nothing does not hold the
        stop up: the service ends within 2 s, and nothing is written to
        stderr, for that connection or any request."""
        idle = None
        try:
            with live_service(tmp_path / "svc", drain_within=2.0) as \
                    (port, __):
                idle = socket.create_connection(("127.0.0.1", port),
                                                timeout=10)
                # Connections are accepted in order: once this request
                # is answered, the idle one waits for its request.
                client = ServiceClient(f"http://127.0.0.1:{port}")
                client.healthz()
                with pytest.raises(ServiceError):
                    client.status("no-such-job")
        finally:
            if idle is not None:
                idle.close()
        assert capfd.readouterr().err == ""

    def test_a_silent_connection_is_closed_after_the_read_timeout(
            self, tmp_path, monkeypatch):
        """A connection that never sends its request is closed after the
        read timeout, unanswered; a stream is not: it outlives that
        timeout while its job runs."""
        monkeypatch.setattr(app._Handler, "timeout", 0.3)
        with sleepy_study() as study:
            with live_service(tmp_path / "svc") as (port, __):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job_id = client.submit(
                    {"study": study, "grid": {"duration": [1.0]}})["job"]
                sock = _open_stream(port, job_id)
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=10) as idle:
                    started = time.monotonic()
                    assert idle.recv(1024) == b""
                    assert 0.2 < time.monotonic() - started < 5
                try:
                    data = _read_to_close(sock)
                finally:
                    sock.close()
        messages = _events(data.partition(b"\r\n\r\n")[2].decode())
        assert messages[0]["type"] == "hello"
        assert messages[-1]["type"] == "job"
        assert messages[-1]["state"] == "done"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_ends_the_job_in_error(self, tmp_path, workers):
        """A point that raises ends its job ``error`` on either
        executor, naming the point, with nothing offered to resume."""
        payload = {"study": "caches",
                   "base": {"length": 300, "suite": "office"},
                   "grid": {"ratio": [0.5, 1.5]}}
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(payload, workers=workers)["job"]
            status = client.wait(job_id, timeout=60)
        assert status["state"] == "error"
        assert "ratio=1.5" in status["error"]
        assert "resume" not in status

    def test_drain_rejects_new_submits(self, tmp_path):
        with sleepy_study() as study:
            with live_service(tmp_path / "svc") as (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job = client.submit(
                    {"study": study, "grid": {"duration": [0.4]}})
                service.manager.draining = True
                with pytest.raises(ServiceError) as err:
                    client.submit(TINY_PAYLOAD)
                assert err.value.status == 503
                assert client.healthz()["draining"] is True
                service.manager.draining = False
                client.wait(job["job"], timeout=60)

    def test_submit_that_meets_the_drain_is_a_503(self, tmp_path,
                                                  monkeypatch):
        """A submit that passed the draining check as the drain began
        is refused by the manager, and answered 503 all the same."""
        with live_service(tmp_path / "svc") as (port, service):
            def draining(*args, **kwargs):
                raise jobs.DrainingError("draining")

            monkeypatch.setattr(service.manager, "submit", draining)
            with pytest.raises(ServiceError) as err:
                ServiceClient(f"http://127.0.0.1:{port}").submit(
                    TINY_PAYLOAD)
        assert (err.value.status, err.value.message) == (
            503, "service is draining")


# ----------------------------------------------------------------------
# The event stream over a real socket, without the bundled client
# ----------------------------------------------------------------------
def _open_stream(port, job_id):
    """A raw socket that has sent ``GET /v1/jobs/{id}/events``."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                 f"Host: 127.0.0.1\r\n\r\n".encode())
    return sock


def _read_until(sock, marker):
    """Receive until ``marker`` is in the bytes read so far."""
    data = b""
    while marker not in data:
        chunk = sock.recv(65536)
        assert chunk, f"stream closed before {marker!r}: {data!r}"
        data += chunk
    return data


def _read_to_close(sock, data=b""):
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def _events(body):
    """The messages of an event-stream body, checking its framing."""
    chunks = body.split("\n\n")
    assert chunks[-1] == "", "a stream ends with a blank line"
    messages = []
    for chunk in chunks[:-1]:
        assert chunk.startswith("data: ") and "\n" not in chunk, chunk
        messages.append(json.loads(chunk[len("data: "):]))
    return messages


def _logged(directory, event):
    with open(directory / "events.jsonl") as handle:
        return [record for record in map(json.loads, handle)
                if record["event"] == event]


def _run_records(directory, run_id):
    """A run's records as ``events.jsonl`` holds them, in file order."""
    with open(directory / "events.jsonl") as handle:
        return [record for record in map(json.loads, handle)
                if record["run_id"] == run_id]


def _big_caches_job(points):
    """A ``caches`` job of ``points`` short points (seeds 0..points-1)."""
    return {"study": "caches", "base": {"length": 200},
            "grid": {"seed": list(range(points))}}


def _stream_parts(messages):
    """``(types, records)`` of a stream's messages."""
    return ([message["type"] for message in messages],
            [message["record"] for message in messages
             if message["type"] == "event"])


class TestEventStream:
    def test_plain_http_consumer_reads_hello_first_and_job_last(
            self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            job_id = ServiceClient(f"http://127.0.0.1:{port}").submit(
                TINY_PAYLOAD)["job"]
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=60)
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/events")
                with conn.getresponse() as response:
                    assert response.status == 200
                    assert response.getheader("Content-Type") == \
                        "text/event-stream"
                    assert response.getheader("Connection") == "close"
                    assert response.getheader("Content-Length") is None
                    body = response.read().decode()  # to the close
            finally:
                conn.close()
        messages = _events(body)
        types = [message["type"] for message in messages]
        assert types[0] == "hello" and messages[0]["job"] == job_id
        assert types[-1] == "job" and messages[-1]["state"] == "done"
        kinds = [message["record"]["event"] for message in messages
                 if message["type"] == "event"]
        assert kinds.index("run_start") < kinds.index("run_end")
        assert "telemetry" in types

    def test_unknown_job_is_a_json_404_before_any_stream(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=60)
            try:
                conn.request("GET", "/v1/jobs/no-such-job/events")
                with conn.getresponse() as response:
                    assert response.status == 404
                    assert response.getheader("Content-Type") == \
                        "application/json"
                    assert json.loads(response.read()) == {
                        "error": "unknown job 'no-such-job'"}
            finally:
                conn.close()
            with pytest.raises(ServiceError) as err:
                next(iter(ServiceClient(f"http://127.0.0.1:{port}")
                          .stream("no-such-job")))
            assert err.value.status == 404

    def test_stream_read_timeout_is_a_504(self, tmp_path):
        with sleepy_study() as study:
            with live_service(tmp_path / "svc") as (port, __):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job_id = client.submit(
                    {"study": study, "grid": {"duration": [2.0]}})["job"]
                types = []
                with pytest.raises(ServiceError) as err:
                    for message in client.stream(job_id, timeout=0.5):
                        types.append(message["type"])
                assert err.value.status == 504
                assert types[0] == "hello" and "job" not in types
                client.wait(job_id, timeout=60)

    def test_websocket_route_is_gone(self, tmp_path):
        with live_service(tmp_path / "svc") as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(TINY_PAYLOAD)["job"]
            with pytest.raises(ServiceError) as err:
                client._request("GET", f"/v1/ws/jobs/{job_id}")
            assert err.value.status == 404
            client.wait(job_id, timeout=60)

    def test_stream_opened_after_the_job_carries_the_whole_run(
            self, tmp_path):
        """A stream opened after a 400-point job finished carries all
        802 of its records, ``run_start`` first and ``run_end`` last,
        then the job's status."""
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(_big_caches_job(400))["job"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            types, records = _stream_parts(list(client.stream(job_id)))
        assert len(records) == 802
        assert records == _run_records(directory, job_id)
        assert records[0]["event"] == "run_start"
        assert records[-1]["event"] == "run_end"
        assert types[0] == "hello" and types[-1] == "job"
        assert types[-2] == "event" and "telemetry" in types

    def test_consumer_that_reads_nothing_until_the_end_gets_everything(
            self, tmp_path):
        """A raw consumer that reads nothing while its job runs holds
        the run back not at all, and then gets every record and the
        terminal ``job``."""
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(_big_caches_job(300))["job"]
            sock = socket.socket()
            # A small receive window: the server's writes back up.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(60)
            sock.connect(("127.0.0.1", port))
            sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                         f"Host: 127.0.0.1\r\n\r\n".encode())
            try:
                status = client.wait(job_id, timeout=120)
                data = _read_to_close(sock)
            finally:
                sock.close()
        assert status["state"] == "done" and status["done"] == 300
        head, __, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        messages = _events(body.decode())
        types, records = _stream_parts(messages)
        assert records == _run_records(directory, job_id)
        assert len(records) == 602
        assert types[0] == "hello" and types[-1] == "job"
        assert messages[-1]["state"] == "done"

    def test_small_chunks_still_carry_every_record_in_order(
            self, tmp_path, monkeypatch):
        """With the log read ~1 KB at a time, a late stream and
        ``read_events`` still return every record of the run, in
        order."""
        monkeypatch.setattr(obs_log, "TAIL_CHUNK", 1024)
        directory = tmp_path / "svc"
        with live_service(directory) as (port, __):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(_big_caches_job(40))["job"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            types, records = _stream_parts(list(client.stream(job_id)))
        expected = _run_records(directory, job_id)
        assert len(expected) == 82
        assert records == expected
        assert types[-1] == "job"
        assert obs_log.read_events(str(directory / "events.jsonl"),
                                   run_id=job_id) == expected
        everything = obs_log.read_events(str(directory / "events.jsonl"))
        with open(directory / "events.jsonl") as handle:
            assert everything == [json.loads(line) for line in handle]

    def test_other_requests_are_answered_while_a_stream_catches_up(
            self, tmp_path, monkeypatch):
        """A late stream that has many chunks of other runs' records to
        read does not hold up the service: a ``GET /v1/healthz`` sent
        from inside that catch-up is answered, and the stream still
        carries exactly the run's records."""
        monkeypatch.setattr(obs_log, "TAIL_CHUNK", 1024)
        directory = tmp_path / "svc"
        events_path = str(directory / "events.jsonl")
        real_tail = obs_log.tail_events
        polls, answered = [], []

        with live_service(directory) as (port, __):
            url = f"http://127.0.0.1:{port}"
            client = ServiceClient(url)
            job_id = client.submit(_big_caches_job(4))["job"]
            assert client.wait(job_id, timeout=60)["state"] == "done"
            other = obs_log.EventLog(path=events_path, run_id="other-run")
            for n in range(100):
                other.info("filler", n=n, pad="x" * 200)

            def tail(path, *args, **kwargs):
                if path == events_path:
                    polls.append(path)
                    if len(polls) == 5:
                        # The stream's thread waits for this answer.
                        answered.append(len(polls))
                        assert ServiceClient(url, timeout=10).healthz()[
                            "status"] == "ok"
                return real_tail(path, *args, **kwargs)

            monkeypatch.setattr(obs_log, "tail_events", tail)
            types, records = _stream_parts(list(client.stream(job_id)))
        assert records == _run_records(directory, job_id)
        assert types[-1] == "job"
        assert answered == [5] and len(polls) > 20

    def test_torn_final_line_is_polled_at_the_interval(
            self, tmp_path, monkeypatch):
        """A torn last line in ``events.jsonl`` is retried once per
        poll interval, not in a busy loop; once whole, the stream
        carries it, and it still ends with ``job``."""
        directory = tmp_path / "svc"
        events_path = str(directory / "events.jsonl")
        polls = []
        real_tail = obs_log.tail_events

        def counting_tail(path, *args, **kwargs):
            if path == events_path:
                polls.append(time.monotonic())
            return real_tail(path, *args, **kwargs)

        monkeypatch.setattr(obs_log, "tail_events", counting_tail)
        with sleepy_study() as study:
            with live_service(directory) as (port, __):
                url = f"http://127.0.0.1:{port}"
                job_id = ServiceClient(url).submit(
                    {"study": study, "grid": {"duration": [2.0]}})["job"]
                point_started = threading.Event()

                def follow():
                    messages = []
                    for message in ServiceClient(url).stream(job_id):
                        messages.append(message)
                        if message["type"] == "event" and message[
                                "record"]["event"] == "worker_heartbeat":
                            point_started.set()
                    return messages

                with concurrent.futures.ThreadPoolExecutor(1) as pool:
                    stream = pool.submit(follow)
                    # The job writes nothing more until its point ends.
                    assert point_started.wait(10)
                    line = json.dumps({
                        "event": "torn_then_whole", "level": "info",
                        "payload": {}, "run_id": job_id, "ts": 0.0})
                    with open(events_path, "a") as handle:
                        handle.write(line[:20])
                    torn_at = time.monotonic()
                    time.sleep(0.5)
                    with open(events_path, "a") as handle:
                        handle.write(line[20:] + "\n")
                    messages = stream.result(timeout=60)
        window = [t for t in polls if torn_at <= t < torn_at + 0.5]
        assert 3 <= len(window) <= 15, len(window)
        types, records = _stream_parts(messages)
        assert "torn_then_whole" in [r["event"] for r in records]
        assert records == _run_records(directory, job_id)
        assert types[-1] == "job" and messages[-1]["state"] == "done"

    def test_client_vanishing_mid_stream_is_released_at_once(
            self, tmp_path):
        """A client that hangs up right after ``hello`` has its stream
        stopped while the job's only point runs, when nothing is logged
        that a handler could fail to write; another stream still gets
        the terminal ``job`` message."""
        directory = tmp_path / "svc"
        with sleepy_study() as study:
            with live_service(directory) as (port, service):
                url = f"http://127.0.0.1:{port}"
                job_id = ServiceClient(url).submit(
                    {"study": study, "grid": {"duration": [3.0]}})["job"]
                job = service.manager.get(job_id)
                point_started = threading.Event()

                def follow():
                    types = []
                    for message in ServiceClient(url).stream(job_id):
                        types.append(message["type"])
                        if message["type"] == "event" and message[
                                "record"]["event"] == "worker_heartbeat":
                            point_started.set()
                    return types

                with concurrent.futures.ThreadPoolExecutor(1) as pool:
                    second = pool.submit(follow)
                    # From here until the point ends, the job logs
                    # nothing.
                    assert point_started.wait(10)
                    sock = _open_stream(port, job_id)
                    try:
                        _read_until(sock, b'"hello"')
                        assert service.open_streams == 2
                    finally:
                        sock.close()
                    deadline = time.monotonic() + 1.0
                    while service.open_streams > 1:
                        assert time.monotonic() < deadline, \
                            "hang-up not noticed"
                        time.sleep(0.01)
                    assert job.done == 0 and job.state == "running"
                    types = second.result(timeout=60)
        assert types[0] == "hello" and types[-1] == "job"
        assert len(_logged(directory, "stream_subscribe")) == 2
        assert not _logged(directory, "request_error")

    def test_client_import_loads_no_server(self):
        code = ("import sys, repro.client\n"
                "print(sorted(m for m in sys.modules if m in ('asyncio',"
                " 'http.server', 'socketserver')"
                " or m.startswith('repro.service')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath("src"),
                          os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# `repro serve` end to end (subprocess, SIGTERM)
# ----------------------------------------------------------------------
@contextmanager
def serve_subprocess(tmp_path):
    """``repro serve --port 0 --quiet`` in a child process: ``(proc,
    url)`` once its ready file is written."""
    ready = tmp_path / "ready.json"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.abspath("src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--store", str(tmp_path / "store"),
         "--ready-file", str(ready), "--quiet"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not ready.exists():
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        yield proc, json.loads(ready.read_text())["url"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


class TestServeCLI:
    def test_serve_subprocess_smoke(self, tmp_path):
        import signal

        with serve_subprocess(tmp_path) as (proc, url):
            client = ServiceClient(url)
            job = client.submit(TINY_PAYLOAD)
            assert client.wait(job["job"], timeout=60)[
                "state"] == "done"
            assert client.submit(TINY_PAYLOAD)["deduplicated"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0

    @pytest.mark.parametrize("flag,value", [("--max-jobs", "0"),
                                            ("--port", "99999")])
    def test_bad_argument_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                  flag, value):
        from repro.cli import main

        store = tmp_path / "store"
        assert main(["serve", "--store", str(store), "--quiet",
                     flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")
        assert not store.exists()

    @pytest.mark.parametrize("delay", [0.0, 0.2])
    def test_sigterm_with_an_idle_connection_exits_quietly(
            self, tmp_path, delay):
        """SIGTERM with a raw connection open that never sent a byte:
        exit 0 within 2 s, nothing on stderr.  Right after the connect,
        the stop meets a connection just being accepted."""
        import signal

        with serve_subprocess(tmp_path) as (proc, url):
            port = int(url.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10):
                time.sleep(delay)
                proc.send_signal(signal.SIGTERM)
                started = time.monotonic()
                assert proc.wait(timeout=10) == 0
                assert time.monotonic() - started < 2.0
            assert proc.stderr.read() == b""
