"""Queue workers: claim, heartbeat, execute, commit — survivable by design.

A :class:`QueueWorker` drains a :class:`~repro.service.queue.JobQueue`:
claim a lease, resolve the policy, execute the run (warm store hit or
cold build), commit the result idempotently through
:meth:`~repro.runtime.runstore.RunStore.commit`, mark the job done.  A
background thread heartbeats the lease at a third of its duration while
the job executes, so a *healthy* worker never times out mid-run and a
killed one is detected within one lease duration.

Crash semantics, in order of the failure points:

* killed before commit — the lease expires, the job requeues, another
  worker redoes the work from scratch;
* killed mid-commit — the run store write is atomic (temp +
  ``os.replace``), so the next worker sees either nothing (re-runs) or a
  complete entry (warm-completes); a torn file from a *non-atomic* crash
  injection is quarantined by the store probe and re-run;
* killed after commit, before ``complete`` — the next worker's store
  probe hits, and it completes the record without executing anything:
  exactly the at-most-once-*in-effect* contract.

Worker *processes* run through :func:`run` (``python -m repro work``).
The in-process form (threads + :class:`WorkerKilled`) exists for the
fault harness (:mod:`repro.verify.faults`), which simulates SIGKILL by
raising through the drain loop with no cleanup, and for the ``faults``
differential check to stay cheap enough for tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path
from collections.abc import Callable

from ..models.zoo import ModelZoo, default_zoo
from ..core.policy import Policy
from ..runtime.experiment import ExperimentRunner
from ..runtime.iolayer import StoreDegraded
from ..runtime.runner import run_policy  # noqa: F401 - re-export: perfbench/tracing.py patches it here
from ..runtime.runstore import RunStore
from ..runtime.store import TraceStore
from ..runtime.tracecache import TraceCache
from .jobs import ServiceError, shift_bundle_resolver
from .jobs import policy_resolver as default_policy_resolver
from .queue import JobQueue, Lease


class WorkerKilled(BaseException):
    """Simulated SIGKILL for in-process fault injection.

    Deliberately a ``BaseException``: nothing in the worker may catch it,
    so it propagates through the drain loop exactly like a real kill —
    no ``fail()`` call, no lease release, no cleanup.  Recovery must come
    entirely from lease expiry, which is the property under test.
    """


class WorkerTerminated(BaseException):
    """Graceful shutdown request (SIGTERM/SIGINT) raised out of the loop.

    A ``BaseException`` so the drain loop's job-failure handling cannot
    mistake it for a job error: the job did not fail, the *worker* was
    told to stop.  :func:`run` catches it, releases the current lease
    back to pending (no attempt burned, no backoff), and exits with the
    conventional ``128 + signum`` code.  Contrast :class:`WorkerKilled`,
    which deliberately skips all of that.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"terminated by signal {signum}")
        self.signum = signum


class WorkerHooks:
    """Fault-injection points; the default implementation does nothing.

    Every hook runs at a precise failure boundary so a fault plan can
    kill, stall, or corrupt at exactly the moment that distinguishes the
    crash-recovery paths (see the module docstring).
    """

    def claimed(self, worker: "QueueWorker", lease: Lease) -> None:
        """After a lease is granted, before any execution."""

    def heartbeat_ok(self, worker: "QueueWorker", lease: Lease) -> bool:
        """False suppresses this heartbeat (simulates a stalled worker)."""
        return True

    def before_commit(self, worker: "QueueWorker", lease: Lease, run_path: Path | None) -> None:
        """After execution, before the run store commit (torn-write window)."""

    def before_complete(self, worker: "QueueWorker", lease: Lease) -> None:
        """After the commit, before the queue record flips to done."""


class QueueWorker:
    """One drain loop over a shared :class:`JobQueue`.

    ``run_store`` is mandatory — the queue's at-most-once guarantee *is*
    the store's idempotent commit; without it a re-executed job would be
    a duplicated effect.  Each job runs on a fresh default platform and
    is a cell of :attr:`runner`, the executor every tier shares (the
    lease supplies the engine seed), so a queue-drained store
    warm-serves the in-process service and vice versa.  The worker keeps
    no trace memo — a drain over many scenarios would hold every rendered
    trace — so each cold job loads or builds its own.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        run_store: RunStore | str | Path,
        trace_store: TraceStore | str | Path | None = None,
        zoo: ModelZoo | None = None,
        policy_resolver: Callable[[str], Policy] | None = None,
        poll_interval: float = 0.05,
        worker_id: str | None = None,
        hooks: WorkerHooks | None = None,
        exit_when_drained: bool = True,
    ) -> None:
        if run_store is None:
            raise ServiceError(
                "queue workers need a run store: idempotent commits are what make "
                "crash-requeued jobs at-most-once in effect"
            )
        self.queue = queue
        self.run_store = run_store if isinstance(run_store, RunStore) else RunStore(run_store)
        self.trace_store = (
            trace_store if isinstance(trace_store, TraceStore) or trace_store is None
            else TraceStore(trace_store)
        )
        self.zoo = zoo if zoo is not None else default_zoo()
        self._resolver = (
            policy_resolver if policy_resolver is not None else default_policy_resolver()
        )
        #: The cell executor each job runs through.
        self.runner = ExperimentRunner(
            cache=TraceCache(self.zoo, store=self.trace_store, max_size=0),
            run_store=self.run_store,
        )
        self.poll_interval = poll_interval
        self.worker_id = worker_id if worker_id is not None else f"worker-{os.getpid()}"
        self.hooks = hooks if hooks is not None else WorkerHooks()
        self.exit_when_drained = exit_when_drained
        # Counters are read by the harness after the drain loop exits (or
        # the worker dies); the lock keeps the heartbeat thread's updates
        # coherent with the main loop's.
        self._state = threading.Lock()  # repro: guards[jobs_processed, warm_completes, heartbeats_sent, leases_lost, _current_lease]
        self._current_lease: Lease | None = None
        self._stop = threading.Event()
        self.jobs_processed = 0
        self.warm_completes = 0
        self.heartbeats_sent = 0
        self.leases_lost = 0

    @property
    def runs_executed(self) -> int:
        return self.runner.runs_executed

    @property
    def trace_builds(self) -> int:
        return self.runner.cache.builds

    @property
    def trace_store_hits(self) -> int:
        return self.runner.cache.store_hits

    # ---------------------------------------------------------------- drain

    def drain(self) -> int:
        """Claim and execute jobs until the queue drains; jobs processed.

        ``None`` claims are polled through: a job may be backing off or
        leased by a worker that is about to die, so "nothing claimable
        now" is not "nothing left".  Exits when the queue reports drained
        (no pending, no leased) — or keeps idling through an empty queue
        when ``exit_when_drained`` is False (long-lived fleets behind the
        HTTP front-end, where new jobs arrive at any time), until
        :meth:`stop` is called.
        """
        processed = 0
        while not self._stop.is_set():
            lease = self.queue.claim(self.worker_id)
            if lease is None:
                if self.exit_when_drained and self.queue.drained():
                    break
                if self._stop.wait(self.poll_interval):
                    break
                continue
            with self._state:
                self._current_lease = lease
            self._process(lease)
            # Cleared only on the normal return path: a WorkerKilled or
            # WorkerTerminated raising through _process leaves the lease
            # visible so run()'s shutdown path can release it.
            with self._state:
                self._current_lease = None
            processed += 1
            with self._state:
                self.jobs_processed += 1
        return processed

    def stop(self) -> None:
        """Ask the drain loop to exit after the in-flight job (if any)."""
        self._stop.set()

    def release_current(self) -> bool:
        """Release the lease held right now, if any; True when one was freed.

        The graceful-shutdown half of :class:`WorkerTerminated`: a worker
        interrupted mid-job hands its claim straight back to the queue so
        the job is immediately claimable — no waiting out the lease
        deadline, no attempt burned.
        """
        with self._state:
            lease = self._current_lease
            self._current_lease = None
        if lease is None:
            return False
        return self.queue.release(lease)

    def release_owned(self) -> int:
        """Sweep-release every on-disk lease still owned by this worker.

        Covers the one window :meth:`release_current` cannot: a signal
        that lands inside ``queue.claim()`` after the grant is durable
        but before the drain loop receives the lease object.  Called on
        the :class:`WorkerTerminated` exit path after
        :meth:`release_current`; a clean shutdown releases nothing here.
        """
        return self.queue.release_owned(self.worker_id)

    def _process(self, lease: Lease) -> None:
        self.hooks.claimed(self, lease)
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, stop),
            name=f"{self.worker_id}-heartbeat", daemon=True,
        )
        beat.start()
        try:
            self._execute(lease)
        except WorkerKilled:
            raise  # a "killed" worker does no cleanup — that's the point
        except StoreDegraded:
            # Disk pressure is not the job's fault: release the lease so
            # the attempt is refunded and no dead-letter accrues from pure
            # ENOSPC.  The release write can hit the same full disk; a
            # failed release just lets the lease expire, which is the same
            # outcome one deadline later.
            with contextlib.suppress(StoreDegraded):
                self.queue.release(lease)
        except Exception as exc:  # noqa: BLE001 - any job failure must requeue, not kill the worker
            self.queue.fail(lease, f"{type(exc).__name__}: {exc}")
        finally:
            stop.set()
            beat.join(timeout=5.0)

    def _heartbeat_loop(self, lease: Lease, stop: threading.Event) -> None:
        interval = self.queue.lease_duration / 3.0
        while not stop.wait(interval):
            if not self.hooks.heartbeat_ok(self, lease):
                continue  # stalled: deadline keeps approaching
            # A full disk is a missed beat, not the end of the thread: the
            # next beat is a single probing write that lands (and clears
            # the degraded flag) once space returns.
            with contextlib.suppress(StoreDegraded):
                extended = self.queue.heartbeat(lease)
                with self._state:
                    if extended is None:
                        self.leases_lost += 1
                    else:
                        self.heartbeats_sent += 1

    # -------------------------------------------------------------- execute

    def _execute(self, lease: Lease) -> None:
        policy = self._resolver(lease.policy_spec)  # fresh: policies are stateful
        key = self.runner.run_key(policy, lease.scenario_fingerprint, lease.engine_seed)
        if key is None:
            # No fingerprint means no idempotent commit — the queue tier
            # cannot run this policy at-most-once, so refuse loudly.
            self.queue.fail(
                lease,
                f"policy {lease.policy_spec!r} has no fingerprint; queue execution "
                f"requires run-store idempotence",
            )
            return
        if self.runner.cached_metrics(key) is not None:
            # Warm: a previous attempt (ours or a dead worker's) already
            # committed this exact run; completing the record is all
            # that's left.
            with self._state:
                self.warm_completes += 1
            self.hooks.before_complete(self, lease)
            self.queue.complete(lease)
            return
        result = self.runner.execute(policy, lease.scenario, engine_seed=lease.engine_seed)
        self.hooks.before_commit(self, lease, self.run_store.path_for(key))
        self.run_store.commit(result, key)
        self.hooks.before_complete(self, lease)
        self.queue.complete(lease)


# ------------------------------------------------------------ process entry


def run(args: argparse.Namespace) -> int:
    """Build one worker process from parsed args and drain the queue.

    Fresh store handles, nothing shared with the supervisor but the
    filesystem.  ``--fault-plan`` arms deterministic fault injection
    (kills become real ``SIGKILL``); it is imported lazily so the
    service tier has no static dependency on the verify tier.
    ``--shift-bundle`` loads a saved characterization bundle and derives
    the confidence graph from its observations — the same construction
    the experiment context uses, so shift run keys match the
    supervisor's.  A bundle file that cannot be read or decoded exits 2
    with one line on stderr.

    SIGTERM and SIGINT are graceful: the handler raises
    :class:`WorkerTerminated` out of whatever the loop is doing, the
    current lease (if any) is *released* — back to pending, immediately
    claimable, attempt refunded — and the process exits ``128 + signum``.
    A supervisor that terminates its fleet therefore leaves zero held
    leases behind; only a hard SIGKILL falls back to lease expiry.
    """
    import signal as _signal

    def _terminate(signum: int, _frame: object) -> None:
        raise WorkerTerminated(signum)

    queue = JobQueue(args.queue_dir, lease_duration=args.lease)
    hooks: WorkerHooks | None = None
    if args.fault_plan is not None:
        from ..verify.faults import FaultPlan, ProcessFaultHooks

        hooks = ProcessFaultHooks(FaultPlan.load(args.fault_plan))
    resolver = None
    if args.shift_bundle is not None:
        try:
            resolver = shift_bundle_resolver(args.shift_bundle, args.objective)
        except ServiceError as exc:
            print(f"repro work: {exc}", file=sys.stderr)
            return 2
    worker = QueueWorker(
        queue,
        run_store=args.run_store,
        trace_store=args.trace_store,
        worker_id=args.worker_id,
        hooks=hooks,
        policy_resolver=resolver,
        exit_when_drained=not getattr(args, "idle", False),
    )
    try:
        previous = [
            (_signal.SIGTERM, _signal.signal(_signal.SIGTERM, _terminate)),
            (_signal.SIGINT, _signal.signal(_signal.SIGINT, _terminate)),
        ]
    except ValueError:
        previous = []  # not the main thread (in-process tests): no handlers
    try:
        worker.drain()
    except WorkerTerminated as exc:
        worker.release_current()
        worker.release_owned()  # claim-window stragglers (signal inside claim())
        return 128 + exc.signum
    except ServiceError as exc:
        print(exc.args[0])
        return 2
    finally:
        for signum, handler in previous:
            _signal.signal(signum, handler)
    return 0

