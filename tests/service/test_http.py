"""Network-tier tests: the HTTP/JSON front-end over service and queue.

Four layers, cheapest first: :class:`SweepFrontend` admission/deadline
semantics exercised directly (no sockets, injectable clock);
end-to-end socket tests against a live :class:`SweepHTTPServer` on an
ephemeral port (concurrent clients, dedup, serial bit-equality, warm
re-serve across a server restart, the full error-code table); the
framing byte for byte on raw sockets (one send per response and per
row, keep-alive after rejected requests, clients that hang up); and the
queue-backed deployment (``serve --http --procs`` shape) with a real
:class:`QueueWorker` draining the on-disk queue behind the socket.
"""

import errno
import http.client
import json
import socket
import struct
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data import ScenarioMatrix
from repro.data.scenario import register_scenario, scenario_by_name
from repro.models import default_zoo
from repro.runtime import ExperimentRunner, RunStore, TraceCache, TraceStore
from repro.runtime.export import metrics_to_dict
from repro.runtime.metrics import aggregate
from repro.service import (
    JobQueue,
    QueueBackend,
    QueueWorker,
    ServiceBusy,
    ServiceError,
    SweepFrontend,
    SweepHTTPServer,
    SweepService,
    metrics_from_wire,
    policy_resolver,
    serve_in_thread,
)
from repro.service.http import MAX_BODY_BYTES, STOP_POLL_S

HTTP_MATRIX = ScenarioMatrix(
    name="net",
    compositions=(("loiter",), ("crossing",)),
    regimes=("day",),
    seeds=(9,),
    frame_budgets=(16,),
)

POLICIES = ("single:yolov7-tiny@gpu", "marlin-tiny")
ENGINE_SEED = 1234


class FakeClock:
    """A manually advanced clock for deadline/admission tests."""

    def __init__(self, start: float = 5000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def scenarios():
    flights = HTTP_MATRIX.scenarios()
    # The wire carries scenario *names*; generated flights must be
    # resolvable inside the server's registry.
    for scenario in flights:
        try:
            scenario_by_name(scenario.name)
        except KeyError:
            register_scenario(scenario)
    return flights


@pytest.fixture(scope="module")
def serial_rows(scenarios):
    """Ground truth: serial runs of every (policy, scenario) wire cell."""
    resolve = policy_resolver()
    runner = ExperimentRunner(cache=TraceCache(default_zoo()))
    return {
        (spec, scenario.name): metrics_to_dict(
            aggregate(runner.run(resolve(spec), scenario))
        )
        for spec in POLICIES
        for scenario in scenarios
    }


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    return SweepService(
        trace_store=TraceStore(tmp_path / "traces"),
        run_store=RunStore(tmp_path / "runs"),
        **kwargs,
    )


def post(base, payload, timeout=60.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(f"{base}/v1/sweeps", data=body)
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.load(resp)


def stream(base, request_id, timeout=120.0):
    rows, summary = [], None
    with urllib.request.urlopen(
        f"{base}/v1/sweeps/{request_id}/results", timeout=timeout
    ) as resp:
        for line in resp:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("done"):
                summary = record
            else:
                rows.append(record)
    rows.sort(key=lambda r: (r["policy_spec"], r["scenario"]))
    return rows, summary


def get_json(base, path, timeout=60.0):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
        return json.load(resp)


class TestFrontendAdmission:
    """SweepFrontend semantics straight against the object — no sockets."""

    def test_admission_bound_rejects_atomically(self, tmp_path, scenarios):
        clock = FakeClock()
        with SweepFrontend(
            make_service(tmp_path),
            max_pending=2, default_deadline_s=60.0, clock=clock,
        ) as frontend:
            frontend.submit_payload([
                {"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]},
            ])
            # One slot left; a two-request payload must be all-or-nothing.
            two = [
                {"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]},
                {"policies": [POLICIES[1]], "scenarios": [scenarios[0].name]},
            ]
            with pytest.raises(ServiceBusy) as excinfo:
                frontend.submit_payload(two)
            assert excinfo.value.retry_after is not None
            assert frontend.requests_submitted == 1
            assert frontend.requests_rejected == 2
            # The partial payload admitted nothing, so one slot is open.
            frontend.submit_payload([
                {"policies": [POLICIES[1]], "scenarios": [scenarios[0].name]},
            ])

    def test_expired_requests_stop_counting_against_admission(
        self, tmp_path, scenarios
    ):
        clock = FakeClock()
        with SweepFrontend(
            make_service(tmp_path),
            max_pending=1, default_deadline_s=30.0, clock=clock,
        ) as frontend:
            payload = [{"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]}]
            frontend.submit_payload(payload)
            with pytest.raises(ServiceBusy):
                frontend.submit_payload(payload)
            # The abandoned request's deadline passes: the slot frees
            # itself without an operator or a results fetch.
            clock.advance(31.0)
            frontend.submit_payload(payload)

    def test_submit_after_close_is_loud_and_typed(self, tmp_path, scenarios):
        frontend = SweepFrontend(make_service(tmp_path))
        frontend.close()
        with pytest.raises(ServiceBusy, match="shutting down") as excinfo:
            frontend.submit_payload(
                [{"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]}]
            )
        assert excinfo.value.retry_after is None  # 503, not 429

    def test_closed_backend_service_raises_service_busy(self, tmp_path, scenarios):
        # The PR-7 close-race contract extended to the HTTP tier: a
        # service closed underneath the frontend still fails the submit
        # with the same typed error, never a hanging handle.
        service = make_service(tmp_path)
        frontend = SweepFrontend(service)
        service.close()
        with pytest.raises(ServiceBusy, match="closed"):
            frontend.submit_payload(
                [{"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]}]
            )

    def test_malformed_payloads_raise_service_error(self, tmp_path):
        with SweepFrontend(make_service(tmp_path)) as frontend:
            for payload in ([], {"requests": "nope"}, {"deadline_s": -1}, 42):
                with pytest.raises(ServiceError):
                    frontend.submit_payload(payload)

    def test_deadline_override_is_capped(self, tmp_path, scenarios):
        with SweepFrontend(
            make_service(tmp_path),
            default_deadline_s=30.0, max_deadline_s=60.0,
        ) as frontend:
            [entry] = frontend.submit_payload({
                "deadline_s": 10_000,
                "requests": [
                    {"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]},
                ],
            })
            assert entry.deadline_s == 60.0

    def test_stream_past_deadline_ends_with_error_line(self, tmp_path, scenarios):
        clock = FakeClock()
        with SweepFrontend(
            make_service(tmp_path, workers=1),
            default_deadline_s=5.0, clock=clock,
        ) as frontend:
            [entry] = frontend.submit_payload(
                [{"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]}]
            )

            class _StalledHandle:
                """A backend handle that never resolves (wedged executor)."""

                total_rows = 1

                def results(self, timeout=None):
                    raise TimeoutError("still pending")
                    yield  # pragma: no cover - makes this a generator

                def done(self):
                    return False

                def completed_rows(self):
                    return 0

            entry.handle = _StalledHandle()
            clock.advance(6.0)
            lines = list(frontend.stream_results(entry))
            assert lines[-1]["done"] is True
            assert "deadline exceeded" in lines[-1]["error"]
            assert entry.state(clock()) == "failed"


class TestWire:
    """End-to-end over real localhost sockets."""

    def test_concurrent_clients_dedup_bit_equality_and_warm_restart(
        self, tmp_path, scenarios, serial_rows
    ):
        payloads = [
            [{
                "policies": list(POLICIES[: 1 + (i % 2)]),
                "scenarios": [scenarios[i % len(scenarios)].name],
                "id": f"client-{i}",
            }]
            for i in range(4)
        ]

        def serve_round():
            frontend = SweepFrontend(make_service(tmp_path))
            server = serve_in_thread(frontend)
            base = f"http://127.0.0.1:{server.port}"
            try:
                def drive(payload):
                    status, resp = post(base, payload)
                    assert status == 202
                    [request_id] = resp["request_ids"]
                    rows, summary = stream(base, request_id)
                    assert summary["state"] == "done" and summary["error"] is None
                    return rows

                with ThreadPoolExecutor(max_workers=4) as clients:
                    all_rows = list(clients.map(drive, payloads))
                stats = get_json(base, "/v1/stores/stats")
            finally:
                server.shutdown()
                server.server_close()
                frontend.close()
            return all_rows, stats

        cold_rows, cold_stats = serve_round()
        for payload, rows in zip(payloads, cold_rows):
            assert len(rows) == len(payload[0]["policies"])
            for row in rows:
                # Field-for-field equality with the serial path, via the
                # wire dict AND the reconstructed RunMetrics object.
                serial = serial_rows[(row["policy_spec"], row["scenario"])]
                assert row["metrics"] == serial
                assert metrics_to_dict(metrics_from_wire(row["metrics"])) == serial
        backend = cold_stats["backend"]
        # At-most-once: every scheduled job was a run or a store hit.
        assert backend["runs_executed"] + backend["run_store_hits"] \
            == backend["jobs_scheduled"]
        unique_cells = {
            (spec, payload[0]["scenarios"][0])
            for payload in payloads for spec in payload[0]["policies"]
        }
        assert backend["runs_executed"] <= len(unique_cells)
        assert cold_stats["corrupt_entries"] == 0

        # Warm re-serve across a full server restart: same stores, fresh
        # everything else — free, and bit-identical on the wire.
        warm_rows, warm_stats = serve_round()
        assert warm_rows == cold_rows
        assert warm_stats["backend"]["runs_executed"] == 0
        assert warm_stats["backend"]["trace_builds"] == 0

    def test_backpressure_over_the_wire(self, tmp_path, scenarios):
        frontend = SweepFrontend(
            make_service(tmp_path), max_pending=1,
        )
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        payload = [{"policies": [POLICIES[0]], "scenarios": [scenarios[0].name]}]
        try:
            status, resp = post(base, payload)
            assert status == 202
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, payload, timeout=30)
            assert excinfo.value.code == 429
            assert excinfo.value.headers.get("Retry-After") is not None
            assert "admission queue full" in json.load(excinfo.value)["error"]
            # Streaming the open request retires it and frees the slot.
            stream(base, resp["request_ids"][0])
            status, _ = post(base, payload)
            assert status == 202
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()

    def test_closed_frontend_returns_503_not_a_hang(self, tmp_path, scenarios):
        frontend = SweepFrontend(make_service(tmp_path))
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        try:
            frontend.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, [{"policies": [POLICIES[0]],
                             "scenarios": [scenarios[0].name]}], timeout=30)
            assert excinfo.value.code == 503
        finally:
            server.shutdown()
            server.server_close()

    def test_error_code_table(self, tmp_path, scenarios):
        frontend = SweepFrontend(make_service(tmp_path))
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"

        def expect(code, method, path, body=None):
            request = urllib.request.Request(f"{base}{path}", data=body, method=method)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == code, path
            payload = json.load(excinfo.value)
            assert payload["api_version"] == 1 and payload["error"]
            return excinfo.value

        try:
            expect(404, "GET", "/v1/sweeps/req-999999")
            expect(404, "GET", "/v1/sweeps/req-999999/results")
            expect(404, "GET", "/no/such/route")
            expect(404, "POST", "/healthz", body=b"{}")
            expect(400, "POST", "/v1/sweeps", body=b"not json")
            expect(400, "POST", "/v1/sweeps", body=b"[]")
            expect(400, "POST", "/v1/sweeps", body=json.dumps(
                [{"policies": ["no-such-policy"],
                  "scenarios": [scenarios[0].name]}]).encode())
            expect(400, "POST", "/v1/sweeps", body=json.dumps(
                [{"policies": [POLICIES[0]],
                  "scenarios": ["no-such-scenario"]}]).encode())
            for method, path in (("PUT", "/v1/sweeps"), ("DELETE", "/v1/sweeps/req-000001"),
                                 ("PATCH", "/healthz")):
                error = expect(405, method, path, body=b"{}")
                assert error.headers["Allow"] == "GET, POST"
            # Oversized body: rejected from the Content-Length alone.
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
            try:
                conn.putrequest("POST", "/v1/sweeps")
                conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
                conn.endheaders()
                assert conn.getresponse().status == 413
            finally:
                conn.close()
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()

    def test_status_and_stats_endpoints(self, tmp_path, scenarios):
        frontend = SweepFrontend(make_service(tmp_path))
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        try:
            assert get_json(base, "/healthz")["status"] == "ok"
            # No queue configured in the in-process deployment.
            assert get_json(base, "/v1/queue")["configured"] is False
            status, resp = post(base, [{
                "policies": list(POLICIES),
                "scenarios": [scenarios[0].name],
                "id": "mine",
            }])
            [request_id] = resp["request_ids"]
            assert resp["requests"][0]["client_id"] == "mine"
            rows, _ = stream(base, request_id)
            status = get_json(base, f"/v1/sweeps/{request_id}")
            assert status["state"] == "done"
            assert status["rows_done"] == status["rows_total"] == len(rows) == 2
            assert status["client_id"] == "mine"
            stats = get_json(base, "/v1/stores/stats")
            assert stats["frontend"]["rows_streamed"] == 2
            assert stats["run_entries"] == 2
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()


class CountingSocket:
    """A handler's connection that records every send.

    Sends from index ``fail_from`` on raise :class:`BrokenPipeError`
    instead, as if the client had gone away at that point.
    """

    def __init__(self, sock, fail_from=None):
        self._sock = sock
        self.fail_from = fail_from
        self.sends = []

    def sendall(self, data):
        if self.fail_from is not None and len(self.sends) >= self.fail_from:
            raise BrokenPipeError(errno.EPIPE, "client gone (injected)")
        self.sends.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class ProbedServer(SweepHTTPServer):
    """A server whose connections are :class:`CountingSocket` s.

    ``errors`` collects what would reach ``handle_error``; ``finished``
    counts connections whose handler thread is done.  ``fail_from`` arms
    the next accepted connection only.
    """

    def __init__(self, frontend):
        super().__init__(("127.0.0.1", 0), frontend)
        self.connections = []
        self.errors = []
        self.finished = threading.Semaphore(0)
        self.fail_from = None

    def finish_request(self, request, client_address):
        counted = CountingSocket(request, self.fail_from)
        self.fail_from = None
        self.connections.append(counted)
        super().finish_request(counted, client_address)

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.finished.release()

    def wait_finished(self, connections):
        for _ in range(connections):
            assert self.finished.acquire(timeout=60), "a handler thread never finished"


@pytest.fixture
def probed(tmp_path):
    """Factory: a running ProbedServer over a fresh in-process service."""
    started = []

    def start():
        frontend = SweepFrontend(make_service(tmp_path))
        server = ProbedServer(frontend)
        thread = threading.Thread(target=server.serve_forever, args=(STOP_POLL_S,),
                                  daemon=True)
        thread.start()
        started.append((server, frontend, thread))
        return server

    yield start
    for server, frontend, thread in started:
        server.shutdown()
        server.server_close()
        frontend.close()
        thread.join(timeout=60)


def raw_request(method, path, body=b"", headers=()):
    head = [f"{method} {path} HTTP/1.1", "Host: test", *(f"{k}: {v}" for k, v in headers)]
    if body and not any(k == "Content-Length" for k, _ in headers):
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class RawClient:
    """One keep-alive connection, spoken and read byte for byte."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")

    def send(self, data):
        self.sock.sendall(data)

    def response(self):
        """``(status line, [(name, value)], body)`` of the next response.

        A chunked body keeps its framing (size lines, CRLFs, terminator).
        """
        status = self.reader.readline().decode("latin-1").rstrip("\r\n")
        headers = []
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, value = line.decode("latin-1").rstrip("\r\n").split(": ", 1)
            headers.append((name, value))
        fields = {name.lower(): value for name, value in headers}
        if "content-length" in fields:
            return status, headers, self.reader.read(int(fields["content-length"]))
        body = b""
        while True:
            size_line = self.reader.readline()
            size = int(size_line, 16)
            body += size_line + self.reader.read(size + 2)
            if size == 0:
                return status, headers, body

    def read_to_close(self):
        """Everything left on the connection; the server must hang up."""
        try:
            return self.reader.read()
        except ConnectionResetError:
            return b""

    def close(self, reset=False):
        if reset:  # hang up with RST, the way a killed client does
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.reader.close()
        self.sock.close()


def chunks(body):
    """The payloads of a chunked body, checking its framing on the way."""
    payloads = []
    while True:
        size_line, body = body.split(b"\r\n", 1)
        size = int(size_line, 16)
        assert size_line == b"%x" % size  # bare lowercase hex, no extensions
        payload, crlf, body = body[:size], body[size:size + 2], body[size + 2:]
        assert crlf == b"\r\n"
        if size == 0:
            assert body == b""
            return payloads
        payloads.append(payload)


def sweep_body(scenarios, request_id="raw"):
    return json.dumps([{"policies": list(POLICIES), "scenarios": [scenarios[0].name],
                        "id": request_id}]).encode()


ACCEPTED = (b'{"api_version": 1, "request_ids": ["req-000001"], "requests": '
            b'[{"client_id": "raw", "request_id": "req-000001"}]}\n')
SUMMARY = (b'{"api_version": 1, "done": true, "error": null, "request_id": "req-000001", '
           b'"rows": 2, "state": "done"}\n')


class TestFraming:
    """The bytes on the wire, one send at a time."""

    def test_framing_is_the_wire_format(self, probed, scenarios, serial_rows):
        server = probed()
        client = RawClient(server.port)
        try:
            client.send(raw_request("POST", "/v1/sweeps", sweep_body(scenarios)))
            status, headers, body = client.response()
            assert status == "HTTP/1.1 202 Accepted"
            assert [name for name, _ in headers] == [
                "Server", "Date", "Content-Type", "Content-Length"]
            fields = dict(headers)
            assert fields["Server"].startswith("repro-sweep ")
            assert fields["Content-Type"] == "application/json"
            assert body == ACCEPTED and fields["Content-Length"] == str(len(body))

            client.send(raw_request("GET", "/nope"))
            status, headers, body = client.response()
            assert status == "HTTP/1.1 404 Not Found"
            assert [name for name, _ in headers] == [
                "Server", "Date", "Content-Type", "Content-Length"]
            assert body == b'{"api_version": 1, "error": "no route \'/nope\'"}\n'
            assert dict(headers)["Content-Length"] == str(len(body))

            client.send(raw_request("GET", "/v1/sweeps/req-000001/results"))
            status, headers, body = client.response()
            assert status == "HTTP/1.1 200 OK"
            assert headers[0][0] == "Server" and headers[1][0] == "Date"
            assert headers[2:] == [("Content-Type", "application/x-ndjson"),
                                   ("Transfer-Encoding", "chunked")]
            *rows, summary = chunks(body)
            assert summary == SUMMARY
            for row in rows:
                # One canonical JSON object per chunk, newline-terminated.
                record = json.loads(row)
                assert row == (json.dumps(record, sort_keys=True) + "\n").encode()
                assert record["metrics"] == serial_rows[(record["policy_spec"],
                                                         record["scenario"])]
            assert len(rows) == 2

            # An Expect: 100-continue client gets the interim answer before
            # it sends the body.
            client.send(raw_request("POST", "/v1/sweeps", headers=(
                ("Content-Length", len(sweep_body(scenarios, "later"))),
                ("Expect", "100-continue"))))
            assert client.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert client.reader.readline() == b"\r\n"
            client.send(sweep_body(scenarios, "later"))
            assert client.response()[0] == "HTTP/1.1 202 Accepted"
        finally:
            client.close()

    def test_one_send_per_response_and_per_row(self, probed, scenarios):
        server = probed()
        client = RawClient(server.port)
        try:
            client.send(raw_request("POST", "/v1/sweeps", sweep_body(scenarios)))
            client.response()
            [conn] = server.connections
            assert len(conn.sends) == 1
            for request in (raw_request("GET", "/healthz"), raw_request("GET", "/nope"),
                            raw_request("PUT", "/v1/sweeps", b"{}"),
                            raw_request("GET", "/v1/sweeps/req-000001")):
                before = len(conn.sends)
                client.send(request)
                status, headers, body = client.response()
                # The whole response, status line to body, in one send.
                assert len(conn.sends) == before + 1, status
                assert conn.sends[-1].startswith(status.encode())
                assert conn.sends[-1].endswith(b"\r\n\r\n" + body)

            before = len(conn.sends)
            client.send(raw_request("GET", "/v1/sweeps/req-000001/results"))
            _, _, body = client.response()
            head, *rows, terminator = conn.sends[before:]
            assert head.startswith(b"HTTP/1.1 200 OK\r\n") and head.endswith(b"\r\n\r\n")
            # Each row (size line, chunk and CRLF) in exactly one send.
            assert [chunks(row + b"0\r\n\r\n") for row in rows] == [
                [payload] for payload in chunks(body)]
            assert terminator == b"0\r\n\r\n"
            # Successive rows are not held for the client's delayed ACK.
            assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close()

    @pytest.mark.parametrize("request_bytes, code, keeps_alive", [
        # A wrong route: the body is read, so the connection stays usable.
        (raw_request("POST", "/v1/nope", b'{"requests": []}'), 404, True),
        (raw_request("PUT", "/v1/sweeps", b'{"requests": []}'), 405, True),
        (raw_request("GET", "/v1/nope", b'{"requests": []}'), 404, True),
        # Bodies the server cannot read: answered, then the server hangs up.
        (raw_request("POST", "/v1/sweeps", b'{"requests": []}',
                     headers=(("Content-Length", "sixteen"),)), 400, False),
        (raw_request("POST", "/v1/sweeps", b'{"requests": []}',
                     headers=(("Content-Length", str(MAX_BODY_BYTES + 1)),)), 413, False),
        (raw_request("POST", "/v1/sweeps", b'10\r\n{"requests": []}\r\n0\r\n\r\n',
                     headers=(("Transfer-Encoding", "chunked"),)), 400, False),
    ], ids=["route-404", "method-405", "get-with-body", "malformed-length", "oversized",
            "chunked"])
    def test_rejected_request_keeps_the_connection_in_sync(
        self, probed, request_bytes, code, keeps_alive
    ):
        server = probed()
        client = RawClient(server.port)
        try:
            client.send(request_bytes)
            status, headers, body = client.response()
            assert status.split(" ")[1] == str(code)
            assert json.loads(body)["api_version"] == 1
            if not keeps_alive:
                assert ("Connection", "close") in headers
                assert client.read_to_close() == b""
                return
            assert ("Connection", "close") not in headers
            client.send(raw_request("GET", "/healthz"))
            status, headers, body = client.response()
            assert status == "HTTP/1.1 200 OK"
            assert json.loads(body)["status"] == "ok"
        finally:
            client.close()

    def test_client_hangup_mid_stream_is_not_a_server_error(self, probed, scenarios):
        server = probed()
        gate = threading.Event()
        stream_results = server.frontend.stream_results

        def gated(entry):  # rows after the first wait until the client is gone
            for number, line in enumerate(stream_results(entry)):
                if number == 1:
                    assert gate.wait(timeout=60)
                yield line

        server.frontend.stream_results = gated
        client = RawClient(server.port)
        client.send(raw_request("POST", "/v1/sweeps", sweep_body(scenarios)))
        client.response()
        client.send(raw_request("GET", "/v1/sweeps/req-000001/results"))
        assert client.reader.readline() == b"HTTP/1.1 200 OK\r\n"
        while client.reader.readline() != b"\r\n":
            pass
        size = int(client.reader.readline(), 16)
        assert json.loads(client.reader.read(size + 2))["api_version"] == 1
        client.close(reset=True)  # after the first row, with rows still to come
        gate.set()
        server.wait_finished(1)
        assert server.errors == []
        assert_restreams_every_row(server)

    @pytest.mark.parametrize("fail_from", [1, 2, 4], ids=["first-row", "second-row",
                                                       "terminator"])
    def test_hangup_at_any_flush_is_not_a_server_error(self, probed, scenarios, fail_from):
        # Sends on the stream's connection: 0 headers, 1-2 rows, 3 summary,
        # 4 the terminator (the final flush).
        server = probed()
        post(f"http://127.0.0.1:{server.port}", json.loads(sweep_body(scenarios)))
        server.fail_from = fail_from
        client = RawClient(server.port)
        client.send(raw_request("GET", "/v1/sweeps/req-000001/results"))
        received = client.read_to_close()
        client.close()
        server.wait_finished(2)
        assert server.errors == []
        assert b"".join(server.connections[1].sends) == received
        assert len(server.connections[1].sends) == fail_from
        assert_restreams_every_row(server)


def assert_restreams_every_row(server):
    rows, summary = stream(f"http://127.0.0.1:{server.port}", "req-000001")
    assert summary["state"] == "done" and summary["rows"] == len(rows) == len(POLICIES)


class TestQueueBackend:
    """The ``serve --http --procs`` shape: queue + worker behind the socket."""

    def _drain_in_thread(self, queue, tmp_path, **kwargs):
        worker = QueueWorker(
            queue,
            run_store=tmp_path / "runs",
            trace_store=tmp_path / "traces",
            worker_id="http-w1",
            poll_interval=0.02,
            **kwargs,
        )
        thread = threading.Thread(target=worker.drain, daemon=True)
        thread.start()
        return worker, thread

    def test_rows_assembled_from_worker_fleet_match_serial(
        self, tmp_path, scenarios, serial_rows
    ):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        backend = QueueBackend(queue, tmp_path / "runs", poll_interval=0.02)
        frontend = SweepFrontend(backend, default_deadline_s=120.0)
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        try:
            status, resp = post(base, [{
                "policies": list(POLICIES),
                "scenarios": [s.name for s in scenarios],
            }])
            assert status == 202
            _, thread = self._drain_in_thread(queue, tmp_path)
            rows, summary = stream(base, resp["request_ids"][0])
            thread.join(timeout=60)
            assert summary["state"] == "done" and summary["error"] is None
            assert len(rows) == len(POLICIES) * len(scenarios)
            for row in rows:
                assert row["metrics"] == serial_rows[
                    (row["policy_spec"], row["scenario"])
                ]
            view = get_json(base, "/v1/queue")
            assert view["configured"] is True
            assert view["counts"]["done"] == len(rows)
            assert view["dead"] == []
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()

    def test_dead_lettered_job_surfaces_as_stream_error(self, tmp_path, scenarios):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0, max_attempts=1,
                         backoff_base=0.0, backoff_cap=0.0)
        backend = QueueBackend(queue, tmp_path / "runs", poll_interval=0.02)
        frontend = SweepFrontend(backend, default_deadline_s=60.0)
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        try:
            _, resp = post(base, [{
                "policies": ["single:no-such-model"],
                "scenarios": [scenarios[0].name],
            }])
            _, thread = self._drain_in_thread(queue, tmp_path)
            rows, summary = stream(base, resp["request_ids"][0])
            thread.join(timeout=60)
            assert rows == []
            assert summary["state"] == "failed"
            assert "dead-lettered" in summary["error"]
            view = get_json(base, "/v1/queue")
            assert len(view["dead"]) == 1
            assert view["dead"][0]["policy_spec"] == "single:no-such-model"
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()
