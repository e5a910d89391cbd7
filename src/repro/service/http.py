"""Network service tier: a stdlib HTTP/JSON front-end over the sweep tier.

This module puts :class:`~repro.service.service.SweepService` (and,
composably, the :class:`~repro.service.queue.JobQueue` worker fleet)
behind a real socket — ``python -m repro serve --http PORT``.  Zero
third-party dependencies: :class:`http.server.ThreadingHTTPServer`
carries the connections, one thread per client, and everything below the
handler is the existing service tier, so an over-the-wire sweep is
field-for-field identical to a serial
:meth:`~repro.runtime.experiment.ExperimentRunner.sweep` and warm-serves
from the sharded stores (the ``http`` differential check and the CI
``http-smoke`` job both enforce this).

**Endpoints** (all JSON; ``api_version`` is pinned in
``analysis/schema_manifest.json`` like every other wire format):

====================================  =========================================
``POST /v1/sweeps``                   submit a jobs-file-shaped payload;
                                      ``202`` with server-assigned request ids
``GET /v1/sweeps/<id>``               request status (state, progress)
``GET /v1/sweeps/<id>/results``       stream result rows as they complete —
                                      chunked ``application/x-ndjson``, one
                                      JSON object per line, terminal summary
                                      line last
``GET /v1/stores/stats``              store sizes + service counters
``GET /v1/queue``                     queue counts + dead-letter listing
``GET /healthz``                      liveness probe
====================================  =========================================

**Admission control.**  The front-end holds a bounded table of *open*
requests (submitted, not yet fully streamed, deadline not passed).  A
submit that would exceed ``max_pending`` is rejected atomically — all of
the payload's requests or none — with ``429`` and a ``Retry-After``
header; a submit after shutdown gets ``503``.  Both paths raise the same
typed :class:`~repro.service.jobs.ServiceBusy` the in-process service
uses, so no client path can hang on a request that was never admitted.

**Per-request deadlines.**  Every request carries a deadline
(``default_deadline_s`` unless the payload names one).  A results stream
that outlives it ends with a terminal error line instead of holding the
connection forever, and the expired request stops counting against
admission — a wedged backend degrades into loud errors, never into a
silently full server.

**Error codes.**  ``400`` malformed payload / unknown policy or scenario,
``404`` unknown request id or route, ``405`` wrong method (with
``Allow``), ``413`` oversized body, ``429`` admission queue full (with
``Retry-After``), ``503`` shutting down.  Every request's body is read
before it is routed, so a rejected request leaves its keep-alive
connection at the next request; a body the server cannot read
(malformed or oversized ``Content-Length``, a chunked upload) is
answered with ``Connection: close`` instead.

**Framing.**  Each response leaves the handler in one socket write, and
so does each ndjson row (size line, chunk and CRLF together), with
``TCP_NODELAY`` set: no reply waits on the client's delayed-ACK timer.

**Degraded mode.**  When a backing store exhausts its bounded write
retries (disk full, I/O errors) it flips read-only and the front-end
reports it instead of failing opaquely: a submit that hits the capacity
wall gets ``507 Insufficient Storage`` with a ``Retry-After`` hint,
``/healthz`` answers ``503`` with ``"degraded": true`` (so fleet
health checks stop routing new work here), and ``/v1/stores/stats``
carries ``degraded`` + ``io_errors``.  Warm hits keep streaming
throughout — read-only means *read*-only.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
import time
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from collections.abc import Callable, Iterator

from ..models.zoo import ModelZoo, default_zoo
from ..util import jsonsafe
from ..core.policy import Policy
from ..runtime.experiment import ExperimentRunner
from ..runtime.iolayer import StoreDegraded
from ..runtime.metrics import RunMetrics
from ..runtime.runstore import RunKey, RunStore
from .jobs import (
    MAX_DEADLINE_S,
    ServiceBusy,
    ServiceError,
    SweepRequest,
    decompose,
    requests_from_payload,
    validate_requests,
)
from .jobs import policy_resolver as default_policy_resolver
from .queue import JobQueue, job_digest
from .service import SweepService

HTTP_API_VERSION = 1

#: Largest request body the server will read (a jobs file, not a dataset).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Retry-After hint (seconds) on capacity responses (507 / degraded 503).
DEGRADED_RETRY_AFTER = 5.0

#: Retry-After hint (seconds) on a full admission queue (429).
BUSY_RETRY_AFTER = 1.0

#: Closed requests the front-end keeps answering status and results for.
KEEP_RETIRED = 64

#: How often a :class:`QueueBackend` handle re-reads the run store for rows.
RESULT_POLL_S = 0.1

#: How often :func:`serve_in_thread`'s accept loop looks for ``shutdown()``;
#: at the stdlib's 0.5 s every stop would wait up to half a second.
STOP_POLL_S = 0.05

_CLOSE = {"Connection": "close"}


# --------------------------------------------------------------------- wire

def result_row_to_dict(policy_spec: str, scenario_name: str, metrics: RunMetrics) -> dict:
    """One streamed result row.  Field set pinned in the schema manifest."""
    return {
        "api_version": HTTP_API_VERSION,
        "policy_spec": policy_spec,
        "scenario": scenario_name,
        "metrics": metrics_to_dict(metrics),
    }


def stream_summary_to_dict(request_id: str, state: str, rows: int, error: str | None) -> dict:
    """The terminal line of a results stream (always last, exactly once)."""
    return {
        "api_version": HTTP_API_VERSION,
        "done": True,
        "request_id": request_id,
        "state": state,
        "rows": rows,
        "error": error,
    }


def sweep_status_to_dict(entry: "_RequestEntry", state: str, rows_done: int) -> dict:
    """Status view of one request (``GET /v1/sweeps/<id>``)."""
    return {
        "api_version": HTTP_API_VERSION,
        "request_id": entry.request_id,
        "client_id": entry.client_id,
        "state": state,
        "policies": list(entry.policies),
        "scenarios": list(entry.scenario_names),
        "rows_total": entry.handle.total_rows,
        "rows_done": rows_done,
        "deadline_s": entry.deadline_s,
        "error": entry.error,
    }


def error_to_dict(message: str) -> dict:
    """Every non-2xx body: one shape, so clients parse failures uniformly."""
    return {
        "api_version": HTTP_API_VERSION,
        "error": message,
    }


def metrics_to_dict(metrics: RunMetrics) -> dict:
    """The ``metrics`` block of a streamed row: one run's aggregate metrics, flat."""
    return {
        "policy": metrics.policy_name,
        "scenario": metrics.scenario_name,
        "frames": metrics.frames,
        "mean_iou": metrics.mean_iou,
        "success_rate": metrics.success_rate,
        "mean_latency_s": metrics.mean_latency_s,
        "mean_energy_j": metrics.mean_energy_j,
        "total_energy_j": metrics.total_energy_j,
        "non_gpu_share": metrics.non_gpu_share,
        "swaps": metrics.swaps,
        "cold_loads": metrics.cold_loads,
        "pairs_used": metrics.pairs_used,
        "mean_overhead_s": metrics.mean_overhead_s,
        "detected_share": metrics.detected_share,
        "efficiency_iou_per_joule": metrics.efficiency_iou_per_joule,
    }


def metrics_from_wire(payload: dict) -> RunMetrics:
    """Rebuild :class:`RunMetrics` from a streamed row's ``metrics`` dict.

    The exact inverse of :func:`metrics_to_dict` minus the derived
    ``efficiency_iou_per_joule`` (a property).  JSON
    round-trips Python floats exactly (repr-based), so a reconstructed
    row compares bit-equal to the serial original — the property the
    ``http`` differential check stands on.
    """
    return RunMetrics(
        policy_name=payload["policy"],
        scenario_name=payload["scenario"],
        frames=payload["frames"],
        mean_iou=payload["mean_iou"],
        success_rate=payload["success_rate"],
        mean_latency_s=payload["mean_latency_s"],
        mean_energy_j=payload["mean_energy_j"],
        total_energy_j=payload["total_energy_j"],
        non_gpu_share=payload["non_gpu_share"],
        swaps=payload["swaps"],
        cold_loads=payload["cold_loads"],
        pairs_used=payload["pairs_used"],
        mean_overhead_s=payload["mean_overhead_s"],
        detected_share=payload["detected_share"],
    )


# ----------------------------------------------------------------- backends

@dataclass
class _QueueCell:
    """One requested (policy, scenario) occurrence awaiting a store entry."""

    policy_spec: str
    scenario_name: str
    key: RunKey
    job_id: str
    metrics: RunMetrics | None = None


class _QueueHandle:
    """A request's window onto jobs draining through the process fleet.

    Results are observed, not computed: workers commit runs to the shared
    :class:`RunStore` and this handle polls the fingerprint keys until
    every cell resolves.  A dead-lettered job surfaces as a loud
    :class:`ServiceError` out of :meth:`results` — exactly how a failed
    in-process job surfaces from a :class:`SweepHandle`.
    """

    def __init__(self, backend: "QueueBackend", cells: list[_QueueCell]) -> None:
        self._backend = backend
        self._cells = cells

    @property
    def total_rows(self) -> int:
        return len(self._cells)

    def _poll_once(self) -> None:
        store = self._backend.run_store
        for cell in self._cells:
            if cell.metrics is None:
                cell.metrics = store.load_metrics(cell.key)

    def completed_rows(self) -> int:
        self._poll_once()
        return sum(1 for cell in self._cells if cell.metrics is not None)

    def done(self) -> bool:
        return self.completed_rows() == len(self._cells)

    def result(self, timeout: float | None = None) -> dict[str, list[RunMetrics]]:
        """Block until every row is committed; the sweep-shaped mapping.

        The same shape and order as :meth:`SweepHandle.result`: keyed by
        policy display name, rows in request order.  ``timeout`` bounds
        the whole wait, as in :meth:`results`.
        """
        for _ in self.results(timeout):
            pass
        rows: dict[str, list[RunMetrics]] = {}
        for cell in self._cells:
            rows.setdefault(cell.metrics.policy_name, []).append(cell.metrics)
        return rows

    def results(self, timeout: float | None = None) -> Iterator[tuple[str, str, RunMetrics]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = list(self._cells)
        while pending:
            self._poll_once()
            ready = [cell for cell in pending if cell.metrics is not None]
            for cell in ready:
                pending.remove(cell)
                yield cell.policy_spec, cell.scenario_name, cell.metrics
            if not pending:
                break
            dead = self._backend.dead_letters()
            for cell in pending:
                if cell.job_id in dead:
                    raise ServiceError(
                        f"job dead-lettered: {cell.policy_spec} x {cell.scenario_name}: "
                        f"{dead[cell.job_id]}"
                    )
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"{len(pending)} rows still pending at the deadline")
            time.sleep(RESULT_POLL_S)


class QueueBackend:
    """Crash-safe execution: requests become queue jobs for worker processes.

    The backend enqueues each request's deduplicated unit jobs into the
    shared on-disk :class:`JobQueue` and assembles rows from the run
    store as the fleet commits them — the backend of ``serve --procs``,
    batch and ``--http`` alike.  Run keys come from the same executor
    (:meth:`ExperimentRunner.run_key`) that :class:`SweepService` and
    :class:`QueueWorker` use, so the three tiers share one store
    vocabulary.  ``jobs_enqueued`` counts the jobs its submits added to
    the queue (the rest were there already).
    """

    def __init__(
        self,
        queue: JobQueue,
        run_store: RunStore | str | Path,
        *,
        zoo: ModelZoo | None = None,
        policy_resolver: Callable[[str], Policy] | None = None,
        engine_seed: int = 1234,
    ) -> None:
        self.queue = queue
        self.run_store = run_store if isinstance(run_store, RunStore) else RunStore(run_store)
        self.zoo = zoo if zoo is not None else default_zoo()
        self.engine_seed = engine_seed
        self.policy_resolver = (
            policy_resolver if policy_resolver is not None else default_policy_resolver()
        )
        self.runner = ExperimentRunner(self.zoo, engine_seed=engine_seed, run_store=self.run_store)
        self.jobs_enqueued = 0

    def submit(self, request: SweepRequest) -> _QueueHandle:
        # One policy per spec, only ever fingerprinted — resolving it
        # also rejects unknown specs before any scenario resolves.
        policies = {spec: self.policy_resolver(spec) for spec in dict.fromkeys(request.policies)}
        jobs = decompose(request)
        cells = []
        for job in jobs:
            key = self.runner.run_key(policies[job.policy_spec], job.key[1])
            if key is None:
                raise ServiceError(
                    f"policy {job.policy_spec!r} has no fingerprint; queue execution "
                    f"requires run-store idempotence"
                )
            cells.append(_QueueCell(
                policy_spec=job.policy_spec,
                scenario_name=job.scenario.name,
                key=key,
                job_id=job_digest(job.policy_spec, job.key[1]),
            ))
        self.jobs_enqueued += self.queue.enqueue_all(jobs, engine_seed=self.engine_seed)
        return _QueueHandle(self, cells)

    def dead_letters(self) -> dict[str, str | None]:
        """job_id -> error for every dead-lettered job."""
        return {record["job_id"]: record.get("error") for record in self.queue.dead_letters()}

    def counters(self) -> dict[str, int]:
        counts = self.queue.counts()
        return {
            "queue_pending": counts["pending"],
            "queue_leased": counts["leased"],
            "queue_done": counts["done"],
            "queue_dead": counts["dead"],
        }

    @property
    def trace_store(self):
        return None

    @property
    def degraded(self) -> bool:
        return self.queue.degraded or self.run_store.degraded

    @property
    def io_errors(self) -> int:
        return self.queue.io_errors + self.run_store.io_errors

    def close(self) -> None:
        """Nothing to stop: the queue is on disk and the fleet is external."""


# ----------------------------------------------------------------- frontend

@dataclass
class _RequestEntry:
    """Book-keeping for one admitted request."""

    request_id: str
    client_id: str
    handle: object  # SweepHandle or _QueueHandle (same protocol)
    policies: tuple[str, ...]
    scenario_names: tuple[str, ...]
    deadline: float  # frontend-clock instant (monotonic)
    deadline_s: float  # the requested budget, for status reporting
    submitted_at: float = 0.0
    retired: bool = False
    error: str | None = None

    def state(self, now: float) -> str:
        if self.error is not None:
            return "failed"
        if self.handle.done():
            return "done"
        if now >= self.deadline:
            return "expired"
        return "running"

    def open_for_admission(self, now: float) -> bool:
        """Counting toward ``max_pending``?  Until streamed or expired.

        Expiry is the wedge-breaker: a request whose client never fetches
        results (or whose backend stalled) stops occupying an admission
        slot once its deadline passes, so the server always recovers
        capacity without an operator.
        """
        return not self.retired and now < self.deadline


class SweepFrontend:
    """Admission control and request table between HTTP and the sweep tier.

    ``backend`` is a :class:`SweepService` (in-process thread pool) or a
    :class:`QueueBackend` (on-disk queue + worker fleet).  ``max_pending``
    bounds *open* requests (admitted, not yet fully streamed or expired);
    the bound is checked atomically per POST — a multi-request payload is
    admitted entirely or rejected entirely with
    :class:`~repro.service.jobs.ServiceBusy` carrying a ``retry_after`` hint.
    ``default_deadline_s`` is each request's completion budget unless the
    payload's ``deadline_s`` overrides it (capped at
    :data:`~repro.service.jobs.MAX_DEADLINE_S`).
    """

    def __init__(
        self,
        backend: SweepService | QueueBackend,
        *,
        max_pending: int = 16,
        default_deadline_s: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_pending < 1:
            raise ServiceError("max_pending must be at least 1")
        if not 0 < default_deadline_s <= MAX_DEADLINE_S:
            raise ServiceError("deadlines must satisfy 0 < default <= max")
        self.backend = backend
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self._clock = clock
        # One mutex for the request table and counters; enforced by `repro lint`.
        self._state = threading.Lock()  # repro: guards[_entries, _closed, _next_id, requests_submitted, requests_rejected, rows_streamed]
        self._entries: dict[str, _RequestEntry] = {}
        self._next_id = 0
        self._closed = False
        self.requests_submitted = 0
        self.requests_rejected = 0
        self.rows_streamed = 0

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Refuse new submits, then drain the backend."""
        with self._state:
            self._closed = True
        self.backend.close()

    def __enter__(self) -> "SweepFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- submits

    def submit_payload(self, payload: object) -> list[_RequestEntry]:
        """Parse and admit one POST body; all requests or none.

        Raises :class:`ServiceError` on malformed payloads and unknown
        specs/scenarios (HTTP 400), :class:`ServiceBusy` with a retry
        hint when admission is full (429) and without one after
        :meth:`close` (503).
        """
        deadline_s = self.default_deadline_s
        if isinstance(payload, dict) and "deadline_s" in payload:
            raw = payload["deadline_s"]
            if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
                raise ServiceError('"deadline_s" must be a positive number of seconds')
            deadline_s = min(float(raw), MAX_DEADLINE_S)
        requests = requests_from_payload(payload)
        with self._state:
            if self._closed:
                raise ServiceBusy("server is shutting down")
            now = self._clock()
            open_count = sum(
                1 for entry in self._entries.values() if entry.open_for_admission(now)
            )
            if open_count + len(requests) > self.max_pending:
                self.requests_rejected += len(requests)
                raise ServiceBusy(
                    f"admission queue full: {open_count} open requests + "
                    f"{len(requests)} submitted > {self.max_pending} allowed",
                    retry_after=BUSY_RETRY_AFTER,
                )
            validate_requests(requests, self.backend.policy_resolver)  # ServiceError -> 400
            entries = []
            for request in requests:
                self._next_id += 1
                request_id = f"req-{self._next_id:06d}"
                handle = self.backend.submit(request)
                entry = _RequestEntry(
                    request_id=request_id,
                    client_id=request.request_id,
                    handle=handle,
                    policies=request.policies,
                    scenario_names=tuple(
                        s if isinstance(s, str) else s.name for s in request.scenarios
                    ),
                    deadline=now + deadline_s,
                    deadline_s=deadline_s,
                    submitted_at=now,
                )
                self._entries[request_id] = entry
                entries.append(entry)
                self.requests_submitted += 1
            self._prune_locked()
            return entries

    def _prune_locked(self) -> None:
        """Bound the table: drop the oldest closed entries beyond the keep."""
        now = self._clock()
        closed = [
            rid for rid, entry in self._entries.items()
            if not entry.open_for_admission(now)
        ]
        for rid in closed[: max(0, len(closed) - KEEP_RETIRED)]:
            del self._entries[rid]

    # --------------------------------------------------------------- lookups

    def entry(self, request_id: str) -> _RequestEntry | None:
        with self._state:
            return self._entries.get(request_id)

    def status(self, entry: _RequestEntry) -> dict:
        now = self._clock()
        return sweep_status_to_dict(entry, entry.state(now), entry.handle.completed_rows())

    # -------------------------------------------------------------- streams

    def stream_results(self, entry: _RequestEntry) -> Iterator[dict]:
        """Yield each result row as a dict, then exactly one summary line.

        The stream honours the request deadline: on expiry (or a failed
        job) the terminal line carries the error and the entry stops
        counting toward admission.  The entry retires only after a *full*
        stream — a client that disconnected halfway can re-request the
        results and get every row again.
        """
        rows = 0
        error: str | None = None
        try:
            remaining = max(0.0, entry.deadline - self._clock())
            for spec, scenario_name, metrics in entry.handle.results(timeout=remaining):
                rows += 1
                with self._state:
                    self.rows_streamed += 1
                yield result_row_to_dict(spec, scenario_name, metrics)
            entry.retired = True
        except (TimeoutError, _FuturesTimeout):
            error = f"deadline exceeded after {entry.deadline_s:.0f}s"
        except StoreDegraded as exc:
            # A cold miss against a read-only store: the rows streamed so
            # far are good, the terminal line says why the rest cannot
            # come until capacity returns.
            error = exc.args[0]
        except ServiceError as exc:
            error = exc.args[0]
        if error is not None:
            entry.error = error
        state = entry.state(self._clock())
        yield stream_summary_to_dict(entry.request_id, state, rows, error)

    # ---------------------------------------------------------------- stats

    def stores_stats(self) -> dict:
        """The ``/v1/stores/stats`` body (plain dict: shapes vary by backend)."""
        trace_store = self.backend.trace_store
        run_store = self.backend.run_store
        corrupt = 0
        for store in (trace_store, run_store):
            if store is not None:
                corrupt += store.corrupt_entries
        with self._state:
            open_count = sum(
                1 for entry in self._entries.values()
                if entry.open_for_admission(self._clock())
            )
            frontend = {
                "requests_submitted": self.requests_submitted,
                "requests_rejected": self.requests_rejected,
                "requests_open": open_count,
                "rows_streamed": self.rows_streamed,
                "max_pending": self.max_pending,
            }
        return {
            "api_version": HTTP_API_VERSION,
            "trace_entries": len(trace_store) if trace_store is not None else None,
            "run_entries": len(run_store) if run_store is not None else None,
            "corrupt_entries": corrupt,
            "degraded": self.backend.degraded,
            "io_errors": self.backend.io_errors,
            "frontend": frontend,
            "backend": self.backend.counters(),
        }

    def queue_view(self) -> dict:
        """The ``/v1/queue`` body; explicit about an in-process deployment."""
        queue = getattr(self.backend, "queue", None)
        if queue is None:
            return {"api_version": HTTP_API_VERSION, "configured": False,
                    "counts": {}, "dead": []}
        dead = [
            {
                "job_id": record.get("job_id"),
                "policy_spec": record.get("policy_spec"),
                "scenario_name": record.get("scenario_name"),
                "attempts": record.get("attempts"),
                "error": record.get("error"),
            }
            for record in queue.dead_letters()
        ]
        return {
            "api_version": HTTP_API_VERSION,
            "configured": True,
            "counts": queue.counts(),
            "stats": queue.stats(),
            "dead": dead,
        }


# ------------------------------------------------------------------- server

class _ResponseWriter(io.BufferedIOBase):
    """The handler's ``wfile``: holds writes until ``flush()``, then sends
    them in one ``sendall``.

    Two small writes back to back let Nagle's algorithm (RFC 896) hold
    the second until the peer's delayed ACK, ~40 ms (RFC 1122).  The
    handler flushes once per response and once per ndjson row, and sets
    ``TCP_NODELAY`` so a stream's successive rows are not held either.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._pending: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self._pending.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        if self._pending:
            data = b"".join(self._pending)
            self._pending.clear()  # a failed send is not retried by close()
            self._sock.sendall(data)


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch; every response body is JSON (rows are ndjson)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweep"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def handle(self) -> None:
        # A client that hangs up (mid-stream, before reading its answer,
        # or between keep-alive requests) ends its own connection; that
        # is not a server fault, so it never reaches handle_error.
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            super().handle()

    def handle_expect_100(self) -> bool:
        # The interim 100 must reach the client before it sends the body.
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    # The default implementation writes every request to stderr, which
    # would interleave with table output under `repro serve --http`.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def frontend(self) -> SweepFrontend:
        return self.server.frontend

    # ------------------------------------------------------------- plumbing

    def _send_json(self, code: int, payload: dict, headers: dict[str, str] | None = None) -> None:
        body = (jsonsafe.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _send_error(self, code: int, message: str, headers: dict[str, str] | None = None) -> None:
        self._send_json(code, error_to_dict(message), headers)

    def _read_body(self) -> bytes | None:
        """The request body, read whole before routing; ``None`` once answered.

        The next request on a keep-alive connection starts where this
        body ends, so every answer, a 404 included, waits until the body
        is read.  A body that cannot be read (malformed or oversized
        ``Content-Length``, a chunked upload) is answered here with
        ``Connection: close``, so its bytes never reach the request parser.
        """
        if "Transfer-Encoding" in self.headers:
            self._send_error(400, "chunked request bodies are not supported", _CLOSE)
            return None
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_error(400, "malformed Content-Length", _CLOSE)
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(413, f"request body over {MAX_BODY_BYTES} bytes", _CLOSE)
            return None
        return self.rfile.read(length) if length else b""

    def _stream_ndjson(self, lines: Iterator[dict]) -> None:
        """Chunked transfer: one JSON object per line, one write per row.

        The header block is flushed first; then each row's size line,
        chunk and CRLF leave together, and the terminator last.  A client
        that hangs up mid-stream, at any of these flushes, ends only its
        connection (see :meth:`handle`); a re-request of the results
        replays every row.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self.wfile.flush()
        for line in lines:
            chunk = (jsonsafe.dumps(line, sort_keys=True) + "\n").encode("utf-8")
            self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
            self.wfile.flush()
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self._read_body() is None:
            return
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            if self.frontend.backend.degraded:
                # Still alive — but load balancers should stop routing
                # new work here until the disk recovers.
                self._send_json(
                    503,
                    {"api_version": HTTP_API_VERSION, "status": "degraded",
                     "degraded": True},
                    {"Retry-After": f"{DEGRADED_RETRY_AFTER:.0f}"},
                )
                return
            self._send_json(200, {"api_version": HTTP_API_VERSION, "status": "ok",
                                  "degraded": False})
            return
        if path == "/v1/stores/stats":
            self._send_json(200, self.frontend.stores_stats())
            return
        if path == "/v1/queue":
            self._send_json(200, self.frontend.queue_view())
            return
        if path.startswith("/v1/sweeps/"):
            rest = path[len("/v1/sweeps/"):]
            if rest.endswith("/results"):
                request_id = rest[: -len("/results")]
                entry = self.frontend.entry(request_id)
                if entry is None:
                    self._send_error(404, f"unknown request id {request_id!r}")
                    return
                self._stream_ndjson(self.frontend.stream_results(entry))
                return
            entry = self.frontend.entry(rest)
            if entry is None:
                self._send_error(404, f"unknown request id {rest!r}")
                return
            self._send_json(200, self.frontend.status(entry))
            return
        self._send_error(404, f"no route {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        body = self._read_body()
        if body is None:
            return
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/v1/sweeps":
            self._send_error(404, f"no route {path!r}")
            return
        if not body:
            self._send_error(400, "empty request body")
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            entries = self.frontend.submit_payload(payload)
        except StoreDegraded as exc:
            # The submit itself hit the capacity wall (queue backends
            # write job records at admission time).  507 is the storage
            # sibling of 429: try again once space returns.
            self._send_error(507, exc.args[0],
                             {"Retry-After": f"{DEGRADED_RETRY_AFTER:.0f}"})
            return
        except ServiceBusy as exc:
            if exc.retry_after is not None:
                self._send_error(429, exc.args[0],
                                 {"Retry-After": f"{exc.retry_after:.0f}"})
            else:
                self._send_error(503, exc.args[0])
            return
        except ServiceError as exc:
            self._send_error(400, exc.args[0])
            return
        self._send_json(202, {
            "api_version": HTTP_API_VERSION,
            "request_ids": [entry.request_id for entry in entries],
            "requests": [
                {"request_id": entry.request_id, "client_id": entry.client_id}
                for entry in entries
            ],
        })

    def _method_not_allowed(self) -> None:
        if self._read_body() is not None:
            self._send_error(405, f"method {self.command} not allowed",
                             {"Allow": "GET, POST"})

    do_PUT = do_DELETE = do_PATCH = _method_not_allowed  # noqa: N815 - stdlib casing


class SweepHTTPServer(ThreadingHTTPServer):
    """One listening socket over a :class:`SweepFrontend`.

    Thread-per-connection (results streams are long-lived, so a worker
    pool would head-of-line block); daemonic so a dying main thread never
    leaves the process pinned by an open connection.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], frontend: SweepFrontend,
                 *, verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.frontend = frontend
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]


def serve_in_thread(
    frontend: SweepFrontend, host: str = "127.0.0.1", port: int = 0
) -> SweepHTTPServer:
    """Bind and serve on a background thread; port 0 picks an ephemeral one.

    The caller owns shutdown: ``server.shutdown()`` stops the accept
    loop, ``server.server_close()`` releases the socket, and
    ``frontend.close()`` drains the backend — in that order, so no new
    request can slip in behind the drain.  The loop looks for the stop
    every :data:`STOP_POLL_S`, so ``shutdown()`` returns within that.
    """
    server = SweepHTTPServer((host, port), frontend)
    thread = threading.Thread(
        target=server.serve_forever, args=(STOP_POLL_S,), name="sweep-http",
        daemon=True,
    )
    thread.start()
    return server
