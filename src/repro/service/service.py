"""The sweep service: many concurrent requests, one deduplicated job pool.

:class:`SweepService` is the orchestration tier above
:class:`~repro.runtime.experiment.ExperimentRunner`: where the runner
executes *one* sweep in the foreground, the service accepts many
overlapping sweep requests, decomposes them into fingerprint-keyed unit
jobs, coalesces duplicates across requests, and schedules the survivors
over a bounded worker pool:

* **threads** carry the scheduling and the store-hit fast path — a warm
  job is one ``.col`` header probe, which a thread does concurrently
  just fine (the probe releases no meaningful compute);
* **processes** carry cold trace builds — a miss routes through the
  shared :class:`~repro.runtime.tracecache.TraceCache` with the service's
  ``trace_workers``, which fans the per-model detection sweeps across a
  process pool exactly like the runner does (and collapses to serial on
  small builds or small machines, see
  :func:`~repro.runtime.trace._effective_workers`).

Each job is one cell of the runner's executor
(:meth:`~repro.runtime.experiment.ExperimentRunner.run_key`,
:meth:`~repro.runtime.experiment.ExperimentRunner.cached_metrics`,
:meth:`~repro.runtime.experiment.ExperimentRunner.execute`); what the
service adds is the dedup table and the degraded-mode refusal.

Results stream back per request: a :class:`SweepHandle` yields each
(policy, scenario) metrics row as its job completes, or assembles the
full :meth:`~repro.runtime.experiment.ExperimentRunner.sweep`-shaped
mapping.  Everything is deterministic — scheduling order, worker count,
and request overlap are *not* inputs to any run, so service output is
field-for-field identical to a serial sweep (the ``service`` differential
check and the CI ``service-smoke`` job both enforce this).

Shared state lives in the sharded stores
(:class:`~repro.runtime.store.TraceStore`,
:class:`~repro.runtime.runstore.RunStore`): advisory-locked atomic writes
make N workers and M requests — and other processes entirely — safe
against each other; see :mod:`repro.runtime.shards`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..runtime import iolayer
from ..runtime.experiment import ExperimentRunner
from ..runtime.metrics import RunMetrics, aggregate
from ..core.policy import Policy
from ..runtime.iolayer import StoreDegraded
from ..runtime.runner import run_policy  # noqa: F401 - re-export: perfbench/tracing.py patches it here
from ..runtime.runstore import RunStore
from ..runtime.store import TraceStore
from ..runtime.tracecache import TraceCache
from .jobs import ServiceBusy, ServiceError, SweepRequest, UnitJob, decompose, validate_specs
from .jobs import policy_resolver as default_policy_resolver

JobKey = tuple[str, str]  # (policy spec, scenario fingerprint)


class SweepHandle:
    """A submitted request's window onto its (possibly shared) jobs."""

    def __init__(self, request: SweepRequest, jobs: list[UnitJob],
                 futures: dict[JobKey, Future]) -> None:
        self.request = request
        self._jobs = jobs
        self._futures = futures

    def results(self, timeout: float | None = None) -> Iterator[tuple[str, str, RunMetrics]]:
        """Stream ``(policy_spec, scenario_name, metrics)`` rows as jobs finish.

        Rows arrive in *completion* order — the streaming view for a
        client that renders progressively.  A duplicated (spec, scenario)
        cell in the request yields once per occurrence.  ``timeout`` is a
        deadline on the *whole* stream (seconds): when it elapses before
        every job finishes, :class:`TimeoutError` is raised — the
        per-request deadline the HTTP front-end surfaces as an expired
        request instead of a hung connection.
        """
        slots: dict[JobKey, list[UnitJob]] = {}
        for job in self._jobs:
            slots.setdefault(job.key, []).append(job)
        unique: dict[Future, JobKey] = {self._futures[key]: key for key in slots}
        for future in as_completed(unique, timeout=timeout):
            metrics = future.result()
            for job in slots[unique[future]]:
                yield job.policy_spec, job.scenario.name, metrics

    def result(self, timeout: float | None = None) -> dict[str, list[RunMetrics]]:
        """Block until every job finishes; the full sweep-shaped mapping.

        Identical in shape *and content* to
        ``ExperimentRunner.sweep(policies, scenarios)`` over the same
        request: keyed by policy display name, scenario-major rows per
        policy, name-sharing policies concatenating in request order.
        ``timeout`` bounds the whole wait, as in :meth:`results`.
        """
        # Wait through as_completed so `timeout` spans the request, not
        # one future; rows still assemble in request order below.
        for _ in as_completed({self._futures[job.key] for job in self._jobs},
                              timeout=timeout):
            pass
        rows: dict[str, list[RunMetrics]] = {}
        for job in self._jobs:
            metrics = self._futures[job.key].result()
            rows.setdefault(metrics.policy_name, []).append(metrics)
        return rows

    def done(self) -> bool:
        """True once every job backing this request has finished."""
        return all(self._futures[job.key].done() for job in self._jobs)

    def completed_rows(self) -> int:
        """Rows already available without blocking (duplicates counted)."""
        return sum(1 for job in self._jobs if self._futures[job.key].done())

    @property
    def total_rows(self) -> int:
        """Rows this request will yield in total (one per requested cell)."""
        return len(self._jobs)


class SweepService:
    """Bounded-concurrency sweep orchestrator over shared sharded stores.

    Parameters mirror the runner tier: ``trace_store``/``run_store``
    (paths or instances) persist traces and finished runs — they are the
    service's shared state and what makes a warm re-serve free;
    ``workers`` bounds the thread pool; ``trace_workers`` is handed to
    cold trace builds (their internal process pool).  Every run gets a
    fresh default platform, so concurrent runs never share one mutable
    SoC.  ``policy_resolver`` maps specs to fresh policies (default: the
    baseline vocabulary; build one with a bundle to serve ``shift``).
    ``trace_cache_size`` bounds the in-memory trace memo (materialized
    frames dominate a long-lived service's footprint); evicted scenarios
    reload from the trace store on next use.

    Counters (all monotonic, read anytime): ``runs_executed`` and
    ``run_store_hits`` (from :attr:`runner`, the cell executor),
    ``trace_builds`` and ``trace_store_hits`` (from its trace cache),
    ``jobs_coalesced`` (requested pairs served by an already-scheduled
    job), ``jobs_scheduled``.  ``corrupt_entries`` totals both stores'
    unreadable-entry counts — the loadgen and CI assert it stays zero.
    """

    def __init__(
        self,
        *,
        zoo: ModelZoo | None = None,
        trace_store: TraceStore | str | Path | None = None,
        run_store: RunStore | str | Path | None = None,
        workers: int = 4,
        trace_workers: int | None = None,
        engine_seed: int = 1234,
        policy_resolver: Callable[[str], Policy] | None = None,
        trace_cache_size: int | None = 16,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if trace_cache_size is not None and trace_cache_size < 1:
            raise ValueError("trace_cache_size must be at least 1 (or None for unbounded)")
        self.zoo = zoo if zoo is not None else default_zoo()
        self.trace_store = (
            trace_store if isinstance(trace_store, TraceStore) or trace_store is None
            else TraceStore(trace_store)
        )
        self.run_store = (
            run_store if isinstance(run_store, RunStore) or run_store is None
            else RunStore(run_store)
        )
        self.workers = workers
        self.policy_resolver = (
            policy_resolver if policy_resolver is not None else default_policy_resolver()
        )
        #: The cell executor every job runs through (thread-safe).
        self.runner = ExperimentRunner(
            cache=TraceCache(self.zoo, store=self.trace_store, max_workers=trace_workers,
                             max_size=trace_cache_size),
            engine_seed=engine_seed,
            run_store=self.run_store,
        )
        # One mutex for every piece of cross-thread state; the declaration below
        # is enforced by `repro lint` (locks/guarded-attr).
        self._state = threading.Lock()  # repro: guards[_jobs, _closed, jobs_coalesced, jobs_scheduled]
        self._jobs: dict[JobKey, Future] = {}
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="sweep")
        self._closed = False
        self.jobs_coalesced = 0
        self.jobs_scheduled = 0

    @property
    def runs_executed(self) -> int:
        return self.runner.runs_executed

    @property
    def run_store_hits(self) -> int:
        return self.runner.run_store_hits

    @property
    def trace_builds(self) -> int:
        return self.runner.cache.builds

    @property
    def trace_store_hits(self) -> int:
        return self.runner.cache.store_hits

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Finish in-flight jobs and stop accepting new requests.

        Closing and submitting serialize on ``_state`` (``submit``
        registers *and* schedules its jobs under the lock), so every
        future registered before the flag flipped has a pool task behind
        it and ``shutdown(wait=True)`` resolves it.  Any future somehow
        still unresolved afterwards is failed loudly rather than left to
        hang a ``SweepHandle.result()`` forever.
        """
        with self._state:
            self._closed = True
        self._pool.shutdown(wait=True)
        with self._state:
            stranded = [f for f in self._jobs.values() if not f.done()]
        for future in stranded:
            future.set_exception(ServiceError("service closed before the job ran"))

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- requests

    def submit(self, request: SweepRequest) -> SweepHandle:
        """Validate, decompose, dedup, and schedule one request.

        Unknown policy specs and scenario names fail *here* (a loud
        :class:`ServiceError`), never inside a worker — a malformed
        request can't poison the shared job table.  Submitting after
        :meth:`close` raises :class:`ServiceBusy` — the same typed
        rejection the HTTP front-end uses for a full admission queue, so
        every "cannot take this now" path looks identical to clients.
        """
        validate_specs(request.policies, self.policy_resolver)
        jobs = decompose(request)
        futures: dict[JobKey, Future] = {}
        to_schedule: list[UnitJob] = []
        with self._state:
            if self._closed:
                raise ServiceBusy("service is closed")
            for job in jobs:
                if job.key in futures:
                    self.jobs_coalesced += 1  # duplicate cell within the request
                    continue
                existing = self._jobs.get(job.key)
                if existing is not None:
                    futures[job.key] = existing
                    self.jobs_coalesced += 1
                    continue
                future: Future = Future()
                self._jobs[job.key] = future
                futures[job.key] = future
                to_schedule.append(job)
                self.jobs_scheduled += 1
            # Still under the lock: scheduling must be atomic with the
            # closed-flag check, or a concurrent close() can shut the
            # pool between them — RuntimeError here, and every future
            # registered above stranded forever (a SweepHandle.result()
            # that never returns).
            for job in to_schedule:
                self._pool.submit(self._run_job, job, futures[job.key])
        return SweepHandle(request, jobs, futures)

    def serve(self, requests: Iterable[SweepRequest]) -> list[SweepHandle]:
        """Submit a batch of requests; handles in submission order."""
        return [self.submit(request) for request in requests]

    def run(self, requests: Iterable[SweepRequest]) -> list[dict[str, list[RunMetrics]]]:
        """Submit a batch and block for every result (convenience wrapper)."""
        return [handle.result() for handle in self.serve(requests)]

    def counters(self) -> dict[str, int]:
        """The monotonic counters, as the HTTP front-end's ``backend`` stats block."""
        with self._state:
            scheduled, coalesced = self.jobs_scheduled, self.jobs_coalesced
        return {
            "runs_executed": self.runs_executed,
            "run_store_hits": self.run_store_hits,
            "trace_builds": self.trace_builds,
            "trace_store_hits": self.trace_store_hits,
            "jobs_scheduled": scheduled,
            "jobs_coalesced": coalesced,
        }

    @property
    def corrupt_entries(self) -> int:
        """Unreadable store entries seen by this service's store handles."""
        total = 0
        for store in (self.trace_store, self.run_store):
            if store is not None:
                total += store.corrupt_entries
        return total

    @property
    def degraded(self) -> bool:
        """True while either backing store is in read-only degraded mode."""
        return any(
            store.degraded
            for store in (self.trace_store, self.run_store)
            if store is not None
        )

    @property
    def io_errors(self) -> int:
        """Non-fatal I/O errors recorded against both backing stores."""
        return sum(
            store.io_errors
            for store in (self.trace_store, self.run_store)
            if store is not None
        )

    # ----------------------------------------------------------------- jobs

    def _run_job(self, job: UnitJob, future: Future) -> None:
        """Execute one unit job; outcome lands on the shared future."""
        try:
            result = self._execute(job)
        except BaseException as exc:
            # Propagate to every request already waiting, but evict the
            # key first so a *later* submit schedules a fresh attempt —
            # one transient failure (disk full, OOM) must not poison the
            # (policy, scenario) cell for the service's lifetime.
            with self._state:
                self._jobs.pop(job.key, None)
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _execute(self, job: UnitJob) -> RunMetrics:
        policy = self.policy_resolver(job.policy_spec)  # fresh: policies are stateful
        key = self.runner.run_key(policy, job.key[1])
        if key is not None:
            cached = self.runner.cached_metrics(key)
            if cached is not None:
                return cached
            if not iolayer.probe(self.run_store.root):
                # Read-only mode: warm hits were served above; a miss
                # would execute a run whose commit cannot land.  Refuse
                # before burning compute — the front-end maps this to a
                # capacity response (507), not an internal error.  The
                # probe is also the recovery: once space returns it
                # clears the flag, exactly like a queue claim.
                raise StoreDegraded(
                    self.run_store.root, "save",
                    "store is read-only while degraded; cold misses refused",
                )
        return aggregate(self.runner.execute(policy, job.scenario, key))


def overlapping_requests(
    policies: Sequence[str],
    scenarios: Sequence[Scenario | str],
    count: int,
    seed: int = 0,
) -> list[SweepRequest]:
    """A synthetic batch of ``count`` deliberately overlapping requests.

    Each request takes a seeded random non-empty subset of the policy and
    scenario pools, so consecutive requests share most of their unit jobs
    — the workload shape the dedup layer exists for.  Used by the load
    generator, the service benchmark, and the differential check.
    """
    import random

    if count < 1:
        raise ServiceError("need at least one request")
    rng = random.Random(seed)
    requests = []
    for index in range(count):
        specs = tuple(sorted(rng.sample(list(policies), rng.randint(1, len(policies)))))
        subset = rng.sample(range(len(scenarios)), rng.randint(1, len(scenarios)))
        requests.append(
            SweepRequest(
                policies=specs,
                scenarios=tuple(scenarios[i] for i in sorted(subset)),
                request_id=f"load-{index}",
            )
        )
    return requests
