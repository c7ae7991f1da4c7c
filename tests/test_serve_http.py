"""HTTP-layer tests for the ``repro serve`` daemon.

Boots the real asyncio server (ephemeral port) in a background thread
and drives it with the real :class:`repro.serve.ServeClient` — the same
path the CLI and the CI smoke job use.  Covers the route surface, the
typed error mapping (400/404/405/409/429/503), the Chrome-trace
endpoint, daemon-vs-foreground result bit-identity, and the status
long-poll (``GET /jobs/{id}?wait=S``) that :meth:`ServeClient.watch`
rides.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.gpu.config import GpuConfig
from repro.kernels import WORKLOAD_REGISTRY, run_workload
from repro.serve import JobSpec, ServeClient, ServeClientError, result_payload
from repro.serve import service as service_module
from repro.serve.http import serve_forever
from repro.serve.service import JobService
from repro.telemetry.chrome_trace import validate_chrome_trace


class DaemonHandle:
    """One live daemon: its service, port, and a way to stop it."""

    def __init__(self, service, port, loop, stop, thread):
        self.service = service
        self.port = port
        self._loop = loop
        self._stop = stop
        self._thread = thread

    def client(self, client_id="pytest"):
        return ServeClient(port=self.port, client_id=client_id)

    def shutdown(self):
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "daemon failed to drain"


def _start_daemon(tmp_path, **service_kwargs):
    """Serve one :class:`JobService` from a background thread."""
    box = {}
    started = threading.Event()

    def run():
        async def main():
            service = JobService(tmp_path / "data", cache=tmp_path / "cache",
                                 **service_kwargs)
            stop = asyncio.Event()
            box.update(service=service, stop=stop,
                       loop=asyncio.get_running_loop())

            def ready(bound):
                box["port"] = bound[1]
                started.set()

            await serve_forever(service, "127.0.0.1", 0, ready=ready,
                                install_signals=False, stop=stop)

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30), "daemon did not start"
    return DaemonHandle(box["service"], box["port"], box["loop"],
                        box["stop"], thread)


@pytest.fixture()
def daemon(tmp_path):
    """A real daemon on an ephemeral port, drained at teardown."""
    handle = _start_daemon(tmp_path)
    yield handle
    handle.shutdown()


@pytest.fixture()
def coordinator(tmp_path):
    """A daemon that never executes locally: its jobs stay queued until
    the test resolves them through the worker endpoints."""
    handle = _start_daemon(tmp_path, local_exec=False)
    yield handle
    handle.shutdown()


def _raw_request(port, head):
    """Send raw request bytes; returns (status, decoded JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head_bytes, _, body = data.partition(b"\r\n\r\n")
    return int(head_bytes.split()[1]), json.loads(body)


def _timed(call):
    """(call(), seconds it took)."""
    tick = time.monotonic()
    value = call()
    return value, time.monotonic() - tick


def _resolve_remotely(port, job_id, delay):
    """After *delay* seconds, lease *job_id* and post a result for it,
    as a ``repro worker`` would (runs on a thread)."""
    def work():
        time.sleep(delay)
        worker = ServeClient(port=port, client_id="wtest")
        grant, = worker.lease("wtest")["leases"]
        assert grant["id"] == job_id
        worker.post_result(job_id, "wtest", grant["fence"],
                           {"schema": 1, "workload": "va",
                            "buffers_digest": "d-x"})

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    return thread


class StatusCounter(ServeClient):
    """Counts status calls through the single-argument ``status``
    override, the shape perfbench's ``TimedClient`` has."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.status_calls = 0

    def status(self, job_id):
        self.status_calls += 1
        return super().status(job_id)


class TestRoutes:
    def test_health_and_metrics(self, daemon):
        client = daemon.client()
        health = client.health()
        assert health["ok"] is True
        assert health["draining"] is False
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["workers"] == 1
        assert "counters" in metrics and "cache" in metrics

    def test_submit_watch_result_roundtrip(self, daemon):
        client = daemon.client()
        status = client.submit({"workload": "va", "policy": "scc"})
        assert status["state"] in ("queued", "running")
        final = client.watch(status["id"], timeout=120)
        assert final["state"] == "done"
        assert final["cache_hit"] is False
        body = client.result(status["id"])
        result = body["result"]
        assert result["workload"] == "va"
        assert result["policy"] == "scc"
        assert result["total_cycles"] > 0
        assert len(result["buffers_digest"]) == 64
        assert set(result["fingerprints"]) == {"alu", "simd"}
        listing = client.jobs(state="done")
        assert any(job["id"] == status["id"] for job in listing["jobs"])

    def test_duplicate_submissions_share_one_execution(self, daemon):
        client = daemon.client()
        first = client.submit({"workload": "dp"})
        second = client.submit({"workload": "dp"})
        assert second["dedup_of"] == first["id"]
        one = client.watch(first["id"], timeout=120)
        two = client.watch(second["id"], timeout=120)
        assert one["state"] == two["state"] == "done"
        assert (client.result(first["id"])["result"]
                == client.result(second["id"])["result"])
        counters = client.metrics()["counters"]
        assert counters.get("serve.jobs.deduped") == 1
        assert counters.get("serve.jobs.executed") == 1

    def test_repeat_submission_after_completion_hits_cache(self, daemon):
        client = daemon.client()
        first = client.submit({"workload": "mvm"})
        client.watch(first["id"], timeout=120)
        again = client.submit({"workload": "mvm"})
        final = client.watch(again["id"], timeout=120)
        assert final["dedup_of"] is None  # not in flight anymore
        assert final["cache_hit"] is True
        assert client.metrics()["counters"].get("serve.jobs.cache_hits") == 1

    def test_trace_endpoint_serves_valid_chrome_trace(self, daemon):
        client = daemon.client()
        status = client.submit({"workload": "va", "telemetry": "trace"})
        client.watch(status["id"], timeout=120)
        trace = client.trace(status["id"])
        assert validate_chrome_trace(trace) > 0  # raises if malformed
        assert trace["traceEvents"]

    def test_result_bit_identical_to_foreground_run(self, daemon, tmp_path):
        """The e2e acceptance check: daemon result JSON == repro run."""
        spec = {"workload": "gnoise", "policy": "bcc"}
        client = daemon.client()
        status = client.submit(spec)
        client.watch(status["id"], timeout=120)
        served = client.result(status["id"])["result"]

        parsed = JobSpec.from_payload(spec)
        result = run_workload(WORKLOAD_REGISTRY["gnoise"](),
                              parsed.to_config(), verify=True)
        assert served == result_payload(parsed, result)


class TestErrorMapping:
    def test_bad_spec_is_400(self, daemon):
        with pytest.raises(ServeClientError) as excinfo:
            daemon.client().submit({"workload": "no_such_workload"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeClientError) as excinfo:
            daemon.client().submit({"workload": "va", "surprise": 1})
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, daemon):
        client = daemon.client()
        for probe in (client.status, client.result, client.trace,
                      client.cancel):
            with pytest.raises(ServeClientError) as excinfo:
                probe("j00000-missing")
            assert excinfo.value.status == 404

    def test_result_before_completion_is_409(self, daemon):
        client = daemon.client()
        # Submit-then-cancel leaves a terminal job with no result.
        status = client.submit({"workload": "fault_count"})
        try:
            client.cancel(status["id"])
        except ServeClientError:
            pass  # already dispatched: fine, it will finish instead
        else:
            with pytest.raises(ServeClientError) as excinfo:
                client.result(status["id"])
            assert excinfo.value.status == 409

    def test_trace_missing_is_404(self, daemon):
        client = daemon.client()
        status = client.submit({"workload": "va"})  # telemetry off
        client.watch(status["id"], timeout=120)
        with pytest.raises(ServeClientError) as excinfo:
            client.trace(status["id"])
        assert excinfo.value.status == 404

    def test_unknown_route_and_method(self, daemon):
        client = daemon.client()
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client.request("PUT", "/jobs")
        assert excinfo.value.status == 405

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, daemon, length):
        status, body = _raw_request(
            daemon.port,
            f"POST /jobs HTTP/1.1\r\nContent-Length: {length}\r\n"
            f"Connection: close\r\n\r\n".encode("ascii"))
        assert status == 400, body
        assert "Content-Length" in body["error"]

    def test_unreachable_daemon_is_typed(self):
        client = ServeClient(port=1, timeout=0.5)
        with pytest.raises(ServeClientError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert excinfo.value.exit_code == 7


class TestCacheEndpoints:
    """The fleet-shared cache over HTTP: GET/POST /cache/{key}."""

    def test_fetch_miss_is_typed_404(self, daemon):
        from repro.errors import CacheMissError
        from repro.runner import code_salt

        client = daemon.client()
        with pytest.raises(CacheMissError) as excinfo:
            client.cache_fetch("va|nope|nope", salt=code_salt())
        assert excinfo.value.http_status == 404

    def test_local_run_is_fetchable_by_key(self, daemon):
        """A job the daemon executed locally lands in the same store
        the fleet endpoints serve: content key in, verified blob out,
        percent-encoded round trip included (keys contain '|')."""
        from repro.runner import code_salt
        from repro.serve.jobs import result_from_blob

        client = daemon.client()
        spec_body = {"workload": "va", "policy": "scc"}
        status = client.submit(spec_body)
        client.watch(status["id"], timeout=120)
        key = JobSpec.from_payload(spec_body).to_job().key
        assert "|" in key  # the encoding actually gets exercised
        body = client.cache_fetch(key, salt=code_salt())
        assert body["key"] == key
        served = result_from_blob(body)
        digest = client.result(status["id"])["result"]["buffers_digest"]
        assert served.buffers_digest == digest

    def test_fetch_salt_skew_is_412(self, daemon):
        client = daemon.client()
        status = client.submit({"workload": "va"})
        client.watch(status["id"], timeout=120)
        key = JobSpec.from_payload({"workload": "va"}).to_job().key
        with pytest.raises(ServeClientError) as excinfo:
            client.cache_fetch(key, salt="someone-elses-simulator")
        assert excinfo.value.status == 412

    def test_publish_then_fetch_round_trip(self, daemon):
        from repro.runner import code_salt
        from repro.serve.jobs import result_blob, result_from_blob

        client = daemon.client()
        spec = JobSpec.from_payload({"workload": "dp", "policy": "bcc"})
        workload = WORKLOAD_REGISTRY[spec.workload]()
        result = run_workload(workload, spec.to_config(), verify=True)
        key = spec.to_job().key
        blob = result_blob(result)
        body = client.cache_publish(key, blob, worker="wtest")
        assert body["stored"] is True
        assert body["digest"] == result.buffers_digest
        again = client.cache_publish(key, blob, worker="wtest")
        assert again["stored"] is False and again["reason"] == "exists"
        served = result_from_blob(client.cache_fetch(key,
                                                     salt=code_salt()))
        assert served.buffers_digest == result.buffers_digest
        counters = client.metrics()["counters"]
        assert counters["serve.cache.published"] == 1
        assert counters["serve.cache.fetch_hits"] == 1

    def test_publish_salt_skew_is_412_and_stores_nothing(self, daemon):
        from repro.errors import CacheMissError
        from repro.runner import code_salt
        from repro.serve.jobs import result_blob

        client = daemon.client()
        spec = JobSpec.from_payload({"workload": "mvm"})
        result = run_workload(WORKLOAD_REGISTRY["mvm"](), spec.to_config())
        blob = dict(result_blob(result), salt="stale-build")
        with pytest.raises(ServeClientError) as excinfo:
            client.cache_publish(spec.to_job().key, blob)
        assert excinfo.value.status == 412
        with pytest.raises(CacheMissError):
            client.cache_fetch(spec.to_job().key, salt=code_salt())

    def test_publish_malformed_blob_is_400(self, daemon):
        client = daemon.client()
        with pytest.raises(ServeClientError) as excinfo:
            client.cache_publish("va|x|y", {"encoding": "gzip",
                                            "salt": "s", "data": "AA"})
        assert excinfo.value.status == 400

    def test_cache_route_method_gate(self, daemon):
        client = daemon.client()
        with pytest.raises(ServeClientError) as excinfo:
            client.request("DELETE", "/cache/whatever")
        assert excinfo.value.status == 405


class TestStatusLongPoll:
    """``GET /jobs/{id}?wait=S`` against a coordinator-only daemon."""

    def test_bad_wait_is_400(self, coordinator):
        client = coordinator.client()
        job = client.submit({"workload": "va"})
        for bad in ("abc", "1s"):
            with pytest.raises(ServeClientError) as excinfo:
                client.request("GET", f"/jobs/{job['id']}?wait={bad}")
            assert excinfo.value.status == 400

    def test_wait_above_the_cap_is_capped(self, coordinator, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_WAIT", 0.3)
        client = coordinator.client()
        job = client.submit({"workload": "va"})
        status, elapsed = _timed(lambda: client.request(
            "GET", f"/jobs/{job['id']}?wait=1000"))
        assert status["state"] == "queued"
        assert 0.3 <= elapsed < 5.0
        # Without ?wait the status GET stays an immediate query.
        status, elapsed = _timed(lambda: client.status(job["id"]))
        assert status["state"] == "queued" and elapsed < 0.3

    def test_unknown_job_is_an_immediate_404(self, coordinator):
        client = coordinator.client()
        tick = time.monotonic()
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/jobs/j00000-missing?wait=30")
        assert excinfo.value.status == 404
        assert time.monotonic() - tick < 5.0

    def test_drain_releases_a_parked_status_request(self, coordinator):
        client = coordinator.client()
        job = client.submit({"workload": "va"})
        box = {}

        def park():
            box["status"], box["elapsed"] = _timed(lambda: client.request(
                "GET", f"/jobs/{job['id']}?wait=30"))

        thread = threading.Thread(target=park, daemon=True)
        thread.start()
        time.sleep(0.3)
        coordinator.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["status"]["state"] == "queued"
        assert box["elapsed"] < 5.0


class TestWatchLongPoll:
    """``ServeClient.watch`` long-polls instead of sleeping between polls."""

    def test_one_status_call_per_job_done_inside_the_window(self,
                                                            coordinator):
        client = StatusCounter(port=coordinator.port, client_id="pytest")
        job = client.submit({"workload": "va"})
        worker = _resolve_remotely(coordinator.port, job["id"], delay=0.6)
        final = client.watch(job["id"], timeout=30)
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert final["state"] == "done"
        assert client.status_calls == 1
        # A terminal job answers the one call at once.
        assert client.watch(job["id"], timeout=30)["state"] == "done"
        assert client.status_calls == 2

    def test_window_stays_below_the_socket_timeout(self, coordinator):
        client = StatusCounter(port=coordinator.port, client_id="pytest",
                               timeout=2.0)
        job = client.submit({"workload": "va"})
        with pytest.raises(ServeClientError) as excinfo:
            client.watch(job["id"], timeout=2.5)
        assert excinfo.value.status == 0
        assert "still 'queued'" in str(excinfo.value)
        assert client.retries_attempted == 0
        assert client.status_calls <= 3
        # watch leaves no window behind: status is a plain query again.
        assert _timed(lambda: client.status(job["id"]))[1] < 0.5
