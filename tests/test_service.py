"""Tests for the sweep service (HTTP frontend, Server-Sent Events).

Three layers, matching the module split:

- protocol units (HTTP parsing, auth, hub backpressure) — no sockets,
  no event loop where avoidable;
- a live server on an ephemeral port driven by the real
  :class:`repro.client.ServiceClient` over real TCP;
- the ISSUE acceptance criteria: concurrent identical submits share
  one execution and one store write per point, every stream sees
  run_start + ≥1 telemetry + run_end, and a drained job resumes
  bit-identically.
"""

import asyncio
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
from repro.service import SweepService, TokenAuth
from repro.service.hub import CLOSE, Hub
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
# Hub backpressure
# ----------------------------------------------------------------------
class TestHub:
    def test_backlog_replays_to_late_subscriber(self):
        async def go():
            hub = Hub(asyncio.get_running_loop())
            hub.publish({"n": 0})
            hub.publish({"n": 1})
            sub = hub.subscribe()
            assert await sub.queue.get() == {"n": 0}
            assert await sub.queue.get() == {"n": 1}

        asyncio.run(go())

    def test_slow_subscriber_dropped_not_blocking(self):
        async def go():
            hub = Hub(asyncio.get_running_loop(),
                      backlog=4, queue_size=4)
            slow = hub.subscribe()
            for i in range(10):
                hub.publish({"n": i})
            assert slow.dropped
            assert hub.drops == 1
            # The stale buffer was cleared: CLOSE arrives immediately.
            assert await slow.queue.get() is CLOSE
            # A fresh subscriber (queue > backlog, the real config)
            # still works; publish never raised.
            hub._queue_size = 8
            fresh = hub.subscribe()
            hub.publish({"n": 10})
            for __ in range(4):  # replayed (bounded) backlog first
                await fresh.queue.get()
            assert await fresh.queue.get() == {"n": 10}

        asyncio.run(go())

    def test_close_publishes_terminal_then_sentinel(self):
        async def go():
            hub = Hub(asyncio.get_running_loop())
            sub = hub.subscribe()
            hub.close({"type": "job", "state": "done"})
            assert await sub.queue.get() == \
                {"type": "job", "state": "done"}
            assert await sub.queue.get() is CLOSE
            # Late subscribers of a closed hub get history + CLOSE.
            late = hub.subscribe()
            assert await late.queue.get() == \
                {"type": "job", "state": "done"}
            assert await late.queue.get() is CLOSE

        asyncio.run(go())


# ----------------------------------------------------------------------
# Live server fixtures
# ----------------------------------------------------------------------
@contextmanager
def live_service(directory, **kwargs):
    """A SweepService on an ephemeral port in a background thread."""
    service = SweepService(str(directory), port=0, quiet=True, **kwargs)
    started = threading.Event()
    box = {}

    async def main():
        box["port"] = await service.start()
        started.set()
        await service._stop.wait()
        await service.shutdown()

    def run():
        loop = asyncio.new_event_loop()
        box["loop"] = loop
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "service failed to start"
    try:
        yield box["port"], service
    finally:
        box["loop"].call_soon_threadsafe(service.request_stop)
        thread.join(timeout=30)
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

    def test_subscriber_that_falls_behind_gets_dropped_not_job(
            self, tmp_path):
        """A subscriber whose queue overflows gets one ``dropped``
        message and no ``job``; the run goes on undisturbed."""
        directory = tmp_path / "svc"
        with sleepy_study() as study:
            with live_service(directory) as (port, service):
                client = ServiceClient(f"http://127.0.0.1:{port}")
                job_id = client.submit(
                    {"study": study, "grid": {"duration": [1.0]}})["job"]
                job = service.manager.get(job_id)
                # A hub with room for eight queued messages.
                _on_loop(service, lambda: setattr(
                    job, "hub", Hub(service.manager._loop,
                                    backlog=4, queue_size=8)))
                sock = _open_stream(port, job_id)
                try:
                    data = _read_until(sock, b'"hello"')
                    # Nine messages in one loop callback: the stream
                    # handler cannot take any before the queue is full.
                    _on_loop(service, lambda: [
                        job.hub.publish({"type": "event", "record": {
                            "event": "burst", "n": n}})
                        for n in range(9)])
                    data = _read_to_close(sock, data)
                finally:
                    sock.close()
                head, __, body = data.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 ")
                types = [message["type"]
                         for message in _events(body.decode())]
                assert types[0] == "hello"
                assert types[-1] == "dropped"
                assert "job" not in types
                assert job.hub.drops == 1
                assert client.wait(job_id, timeout=60)["state"] == "done"
                # A subscriber that keeps up still gets the terminal job.
                assert [m["type"] for m in client.stream(job_id)][-1] \
                    == "job"
        assert [record["payload"]["job"] for record in
                _logged(directory, "stream_dropped")] == [job_id]

    def test_client_vanishing_mid_stream_is_released_at_once(
            self, tmp_path):
        """A client that hangs up right after ``hello`` leaves the hub
        while the job's only point runs, when nothing is published that
        a handler could fail to write; another subscriber still gets
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
                    # From here until the point ends, the job publishes
                    # nothing.
                    assert point_started.wait(10)
                    sock = _open_stream(port, job_id)
                    try:
                        _read_until(sock, b'"hello"')
                        assert len(job.hub._subs) == 2
                    finally:
                        sock.close()
                    deadline = time.monotonic() + 1.0
                    while len(job.hub._subs) > 1:
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
