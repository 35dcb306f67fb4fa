"""Tests for the sweep service (HTTP frontend, Server-Sent Events).

Three layers, matching the module split:

- protocol units (HTTP parsing, auth) and the job manager — no
  sockets, no event loop where avoidable;
- a live server on an ephemeral port driven by the real
  :class:`repro.client.ServiceClient` over real TCP;
- the service's contracts: concurrent identical submits share one
  execution and one store write per point, every stream, however late
  it is opened, carries hello, ≥1 telemetry, the run's records from
  run_start to run_end and the job's status, and a drained job resumes
  bit-identically.
"""

import asyncio
import concurrent.futures
import http.client
import json
import logging
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
from repro.service import SweepService, TokenAuth, jobs
from repro.service.http import HTTPError, read_request

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
# HTTP parsing
# ----------------------------------------------------------------------
def _parse_request(wire):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestHTTPParsing:
    def test_get_with_query(self):
        request = _parse_request(
            b"GET /v1/results?key=abc&limit=5 HTTP/1.1\r\n"
            b"Host: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/results"
        assert request.param("key") == "abc"
        assert request.param("limit") == "5"
        assert request.param("missing", "d") == "d"

    def test_post_with_body(self):
        body = json.dumps({"study": "caches"}).encode()
        request = _parse_request(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        assert request.json() == {"study": "caches"}

    def test_clean_eof_returns_none(self):
        assert _parse_request(b"") is None

    def test_bad_version_rejected(self):
        with pytest.raises(HTTPError) as err:
            _parse_request(b"GET / HTTP/2.0\r\nHost: x\r\n\r\n")
        assert err.value.status == 505

    def test_bad_json_body_rejected(self):
        request = _parse_request(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 8\r\n\r\n{not json"[:60])
        with pytest.raises(HTTPError) as err:
            request.json()
        assert err.value.status == 400


# ----------------------------------------------------------------------
# Live server fixtures
# ----------------------------------------------------------------------
@contextmanager
def live_service(directory, drain_within=30.0, **kwargs):
    """A SweepService on an ephemeral port in a background thread,
    which must end within ``drain_within`` seconds of the stop."""
    service = SweepService(str(directory), port=0, quiet=True, **kwargs)
    started = threading.Event()
    box = {}

    async def main():
        box["loop"] = asyncio.get_running_loop()
        box["port"] = await service.start()
        started.set()
        await service._stop.wait()
        await service.shutdown()

    # asyncio.run, as under ``repro serve``: connections still open
    # when the service returns are cancelled, which closes them.
    thread = threading.Thread(target=asyncio.run, args=(main(),),
                              daemon=True)
    thread.start()
    assert started.wait(10), "service failed to start"
    try:
        yield box["port"], service
    finally:
        box["loop"].call_soon_threadsafe(service.request_stop)
        thread.join(timeout=drain_within)
        assert not thread.is_alive(), "service failed to drain"


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

        async def settle(job):
            while job.state not in jobs.TERMINAL_STATES:
                await asyncio.sleep(0.01)

        async def run_three(done_payload, error_payload, stop_payload):
            manager = jobs.JobManager(str(tmp_path / "svc"))
            try:
                done, __ = manager.submit(done_payload)
                failed, __ = manager.submit(error_payload)
                await settle(done)
                await settle(failed)
                stopped, __ = manager.submit(stop_payload)
                while stopped.done < 1:
                    await asyncio.sleep(0.01)
                await manager.drain()
            finally:
                manager.close()
            return done, failed, stopped

        with sleepy_study() as sleepy, broken_study() as broken:
            done, failed, stopped = asyncio.run(asyncio.wait_for(
                run_three(TINY_PAYLOAD,
                          {"study": broken, "grid": {"n": [1]}},
                          {"study": sleepy, "grid": {
                              "duration": [0.2, 0.2001, 0.2002, 0.2003]}}),
                timeout=60))
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

    def test_stop_with_an_idle_connection_open(self, tmp_path, caplog):
        """A client that connected and sent nothing does not hold the
        stop up: the service ends within 2 s, and asyncio logs no
        error."""
        caplog.set_level(logging.WARNING, logger="asyncio")
        idle = None
        try:
            with live_service(tmp_path / "svc", drain_within=2.0) as \
                    (port, __):
                idle = socket.create_connection(("127.0.0.1", port),
                                                timeout=10)
                # Connections are accepted in order: once this request
                # is answered, the idle one waits for its request.
                ServiceClient(f"http://127.0.0.1:{port}").healthz()
        finally:
            if idle is not None:
                idle.close()
        assert not [record for record in caplog.records
                    if record.name == "asyncio"
                    and record.levelno >= logging.ERROR]

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


# ----------------------------------------------------------------------
# The event stream over a real socket, without the bundled client
# ----------------------------------------------------------------------
def _on_loop(service, call):
    """Run ``call()`` on the service's event loop; its result."""
    async def run():
        return call()

    return asyncio.run_coroutine_threadsafe(
        run(), service.manager._loop).result(timeout=10)


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


def _streams(service):
    """How many stream handlers are running on the service's loop."""
    return _on_loop(service, lambda: sum(
        task.get_coro().__qualname__ == "SweepService._stream"
        for task in asyncio.all_tasks()))


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

    def test_catching_up_yields_to_the_loop_between_polls(
            self, tmp_path, monkeypatch):
        """A late stream that has many chunks of other runs' records to
        read lets the event loop run between any two of its polls."""
        monkeypatch.setattr(obs_log, "TAIL_CHUNK", 1024)
        directory = tmp_path / "svc"
        events_path = str(directory / "events.jsonl")
        real_tail = obs_log.tail_events
        ticks = []

        with live_service(directory) as (port, service):
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit(_big_caches_job(4))["job"]
            assert client.wait(job_id, timeout=60)["state"] == "done"
            other = obs_log.EventLog(path=events_path, run_id="other-run")
            for n in range(100):
                other.info("filler", n=n, pad="x" * 200)
            loop = service.manager._loop
            ran = [False]

            def tail(path, *args, **kwargs):
                if path == events_path:
                    # Did the loop run anything since the last poll?
                    ticks.append(ran[0])
                    ran[0] = False
                    loop.call_soon(ran.__setitem__, 0, True)
                return real_tail(path, *args, **kwargs)

            monkeypatch.setattr(obs_log, "tail_events", tail)
            types, records = _stream_parts(list(client.stream(job_id)))
        assert records == _run_records(directory, job_id)
        assert types[-1] == "job"
        assert len(ticks) > 20
        assert all(ticks[1:])

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
                        assert _streams(service) == 2
                    finally:
                        sock.close()
                    deadline = time.monotonic() + 1.0
                    while _streams(service) > 1:
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
                "print(sorted(m for m in sys.modules if m == 'asyncio'"
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
class TestServeCLI:
    def test_serve_subprocess_smoke(self, tmp_path):
        import signal
        import subprocess
        import sys

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
                assert proc.poll() is None, \
                    proc.stderr.read().decode()
                assert time.monotonic() < deadline
                time.sleep(0.05)
            url = json.loads(ready.read_text())["url"]
            client = ServiceClient(url)
            job = client.submit(TINY_PAYLOAD)
            assert client.wait(job["job"], timeout=60)[
                "state"] == "done"
            assert client.submit(TINY_PAYLOAD)["deduplicated"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
