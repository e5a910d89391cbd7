"""Sweep service tier: concurrent, deduplicated orchestration over shared stores.

The runner tier (:class:`~repro.runtime.experiment.ExperimentRunner`)
executes one sweep in the foreground; this package serves *many*
overlapping sweep requests at once.  :class:`SweepService` decomposes
each request into fingerprint-keyed unit jobs, coalesces duplicates
across requests, schedules the survivors over a bounded worker pool, and
streams per-request results — all field-for-field identical to a serial
sweep (enforced by the ``service`` differential check and the CI
``service-smoke`` job).  The sharded Trace/Run stores
(:mod:`repro.runtime.shards`) are the service's contended shared state.

For crash safety across *processes*, the same unit jobs persist into an
on-disk :class:`JobQueue` (lease/heartbeat semantics, bounded retries,
dead-letter quarantine) drained by :class:`QueueWorker` fleets — a
killed worker's jobs migrate to the survivors within one lease duration,
and idempotent run-store commits keep every job at-most-once in effect
(the ``faults`` differential check and the CI ``fault-smoke`` job
enforce this).

The network tier (:mod:`repro.service.http`) puts the same request
vocabulary behind a socket: ``python -m repro serve --http PORT`` serves
a stdlib HTTP/JSON API (submit, status, chunked ndjson result streams,
store/queue introspection) with bounded admission — full gets a typed
:class:`ServiceBusy` / HTTP 429 with ``Retry-After``, never a hang — and
per-request deadlines (the ``http`` differential check, run by the CI
``fault-smoke`` job, enforces wire/serial bit-equality and free warm
re-serves).

Front-ends: ``python -m repro serve JOBS.json [--procs N]`` and ``python
-m repro serve --http PORT [--procs N]`` (one serve path: each mode holds a
:class:`SweepService`, or with ``--procs`` a :class:`QueueBackend` and its
:class:`WorkerSupervisor` fleet, and reads rows through that backend's
handles), ``python -m repro work QUEUE_DIR`` (one worker process),
``python -m repro queue`` (inspection/repair), the synthetic load
generator ``scripts/loadgen.py`` (in-process service soundness), and the
stdlib client ``scripts/sweep_client.py``.

Names are imported on first access (PEP 562): a queue worker process
loads the queue and worker modules, not the HTTP front-end.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "http": (
        "HTTP_API_VERSION", "QueueBackend", "SweepFrontend", "SweepHTTPServer",
        "metrics_from_wire", "serve_in_thread",
    ),
    "jobs": (
        "ServiceBusy", "ServiceError", "SweepRequest", "UnitJob", "decompose",
        "load_jobs_file", "policy_resolver", "requests_from_payload",
    ),
    "procs": ("WorkerSupervisor",),
    "queue": ("JOB_STATES", "JobQueue", "Lease", "job_digest"),
    "service": ("SweepHandle", "SweepService", "overlapping_requests"),
    "worker": ("QueueWorker", "WorkerHooks", "WorkerKilled", "WorkerTerminated"),
})
