"""Deterministic fault injection for the crash-safe queue tier.

This module *proves* the queue's robustness story instead of asserting
it: a seeded :class:`FaultPlan` schedules worker kills, heartbeat
stalls, torn run-store writes, and slow I/O at precise execution
boundaries (the :class:`~repro.service.worker.WorkerHooks` sites), and
:func:`run_fault_sweep` drains a real on-disk queue through a
supervisor that keeps replacing dead workers — then audits the wreckage
against the contract:

* **zero lost jobs** — every enqueued job ends ``done``;
* **zero duplicate effects** — exactly one run-store entry per unique
  job; re-executions after a crash commit idempotently into the same
  content address;
* **corrupt entries quarantined** — the torn write is detected by the
  store probe, counted, removed, and never served;
* **bit equality** — every committed run is field-for-field identical
  to a serial :func:`~repro.runtime.runner.run_policy` of the same job.

Faults fire deterministically by ``(worker id, nth successful claim)``,
so a failing replay reproduces with the same plan.  Two hook flavours
exist: :class:`FaultHooks` raises
:class:`~repro.service.worker.WorkerKilled` through an in-process worker
thread (cheap enough for the per-scenario ``faults`` differential
check), and :class:`ProcessFaultHooks` delivers a real ``SIGKILL`` to
its own process (``repro work --fault-plan``, driven by the
``TestProcessIntegration`` suite in ``tests/service/test_worker.py``).

The drain-and-audit core — trace seeding, enqueueing the job grid, the
thread-fleet drain, and the audit against serial execution — is
:class:`DrainHarness` with its :class:`DrainOutcome` base.  The disk-fault
sibling :func:`repro.verify.fsfaults.run_fsfault_sweep` runs on the same
core, so each soundness gate is implemented once.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from collections.abc import Sequence
from typing import ClassVar

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..runtime.experiment import ExperimentRunner
from ..runtime.metrics import aggregate
from ..runtime.runner import run_policy
from ..runtime.runstore import RunKey, RunStore
from ..runtime.store import TraceStore
from ..runtime.trace import ScenarioTrace
from ..service.jobs import UnitJob, policy_resolver
from ..service.queue import JobQueue, job_digest
from ..service.worker import QueueWorker, WorkerHooks, WorkerKilled

FAULT_PLAN_SCHEMA_VERSION = 1

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("kill", "kill_late", "torn", "stall", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fires on ``worker``'s ``claim_index``-th claim.

    ``param`` is kind-specific: sleep seconds for ``stall``/``slow``
    (0 = a kind-appropriate default derived from the lease duration);
    unused otherwise.
    """

    worker: str
    claim_index: int
    kind: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.claim_index < 0:
            raise ValueError("claim_index must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A full injection schedule plus the kinds it guarantees will fire.

    ``required`` names the kinds the outcome must observe at least once —
    the plan's *coverage contract*.  Kinds scheduled on workers that may
    never claim (late replacements on a small queue) are listed in
    ``events`` but not in ``required``.
    """

    events: tuple[FaultEvent, ...]
    required: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        scheduled = {event.kind for event in self.events}
        missing = [kind for kind in self.required if kind not in scheduled]
        if missing:
            raise ValueError(f"required kinds {missing} have no scheduled events")

    def events_for(self, worker: str, claim_index: int) -> tuple[FaultEvent, ...]:
        """The events armed for one (worker, claim) coordinate."""
        return tuple(
            event for event in self.events
            if event.worker == worker and event.claim_index == claim_index
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "required": list(self.required),
            "events": [
                {
                    "worker": event.worker,
                    "claim_index": event.claim_index,
                    "kind": event.kind,
                    "param": event.param,
                }
                for event in self.events
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if payload.get("schema_version") != FAULT_PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fault plan schema {payload.get('schema_version')!r}"
            )
        return cls(
            events=tuple(
                FaultEvent(
                    worker=str(entry["worker"]),
                    claim_index=int(entry["claim_index"]),
                    kind=str(entry["kind"]),
                    param=float(entry.get("param", 0.0)),
                )
                for entry in payload["events"]
            ),
            required=tuple(str(kind) for kind in payload.get("required", [])),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), sort_keys=True, allow_nan=False),
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def fault_plan_for_check() -> FaultPlan:
    """The full-coverage plan the ``faults`` differential check replays.

    The two initial workers die on their first claims (one plain kill,
    one torn write) — with at least two jobs queued, both are guaranteed
    to claim, so both kinds fire.  Every replacement's *first* claim
    stalls past its lease (the requeued jobs must be claimed by a
    replacement, so at least one stall fires), and one replacement's
    second claim is merely slow.  ``kill``/``torn``/``stall`` are the
    coverage contract; ``slow`` is best-effort.
    """
    return FaultPlan(
        events=(
            FaultEvent(worker="w0", claim_index=0, kind="kill"),
            FaultEvent(worker="w1", claim_index=0, kind="torn"),
            FaultEvent(worker="w2", claim_index=0, kind="stall"),
            FaultEvent(worker="w3", claim_index=0, kind="stall"),
            FaultEvent(worker="w2", claim_index=1, kind="slow", param=0.05),
            FaultEvent(worker="w4", claim_index=0, kind="kill_late"),
        ),
        required=("kill", "torn", "stall"),
    )


# ----------------------------------------------------------------- hooks


class FaultHooks(WorkerHooks):
    """Replays a :class:`FaultPlan` against in-process worker threads.

    Shared by every worker in a sweep: claims are counted per worker id,
    so one hooks instance arms each worker's events independently.
    ``fired`` tallies what actually happened for the outcome assertions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()  # repro: guards[_claims, _active, fired]
        self._claims: dict[str, int] = {}
        self._active: dict[str, tuple[FaultEvent, ...]] = {}
        self.fired: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)

    def claimed(self, worker: QueueWorker, lease) -> None:
        with self._lock:
            index = self._claims.get(worker.worker_id, 0)
            self._claims[worker.worker_id] = index + 1
            self._active[worker.worker_id] = self.plan.events_for(worker.worker_id, index)

    def heartbeat_ok(self, worker: QueueWorker, lease) -> bool:
        return self._event(worker, "stall") is None

    def before_commit(self, worker: QueueWorker, lease, run_path: Path | None) -> None:
        slow = self._event(worker, "slow")
        if slow is not None:
            self._fire("slow")
            time.sleep(slow.param if slow.param > 0 else 0.05)
        stall = self._event(worker, "stall")
        if stall is not None:
            # Heartbeats are already suppressed (heartbeat_ok); sleeping
            # past the deadline makes the lease expire under a live,
            # still-working owner — the nonce fence is what's under test.
            self._fire("stall")
            time.sleep(stall.param if stall.param > 0 else worker.queue.lease_duration * 1.6)
        torn = self._event(worker, "torn")
        if torn is not None:
            self._fire("torn")
            if run_path is not None:
                # A crash mid-write outside the atomic helpers: garbage at
                # the final path.  The store must quarantine, never serve.
                run_path.parent.mkdir(parents=True, exist_ok=True)
                run_path.write_text('{"torn', encoding="utf-8")
            self._kill(worker)
        if self._event(worker, "kill") is not None:
            self._fire("kill")
            self._kill(worker)

    def before_complete(self, worker: QueueWorker, lease) -> None:
        if self._event(worker, "kill_late") is not None:
            self._fire("kill_late")
            self._kill(worker)

    def _event(self, worker: QueueWorker, kind: str) -> FaultEvent | None:
        with self._lock:
            for event in self._active.get(worker.worker_id, ()):
                if event.kind == kind:
                    return event
        return None

    def _fire(self, kind: str) -> None:
        with self._lock:
            self.fired[kind] += 1

    def _kill(self, worker: QueueWorker) -> None:
        raise WorkerKilled(f"fault plan killed {worker.worker_id}")


class ProcessFaultHooks(FaultHooks):
    """The process flavour: kills are real, uncatchable ``SIGKILL``.

    Used by ``python -m repro work --fault-plan``; the supervisor sees
    the worker exit with ``-SIGKILL`` and must respawn, exactly as with
    an OOM kill in production.
    """

    def _kill(self, worker: QueueWorker) -> None:  # pragma: no cover - kills the test process
        os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------- outcome


@dataclass
class DrainOutcome:
    """The audit of one drained queue: the clauses every fault sweep shares.

    :meth:`DrainHarness.audit` fills these fields; subclasses add what
    their fault model injected and extend :meth:`_plan_failures`.
    """

    job_count: int
    lost_jobs: list[str] = field(default_factory=list)
    dead_jobs: list[str] = field(default_factory=list)
    run_entries: int = 0
    expected_entries: int = 0
    corrupt_quarantined: int = 0
    serial_mismatches: list[str] = field(default_factory=list)
    audit_problems: list[str] = field(default_factory=list)
    queue_stats: dict[str, int] = field(default_factory=dict)
    timed_out: bool = False

    #: Appended to the dead-letter clause: why a dead letter is a defect.
    dead_letter_cause: ClassVar[str] = ""

    @property
    def torn_injected(self) -> bool:
        """True when the plan tore a write, so a quarantine must follow."""
        return False

    def failures(self) -> list[str]:
        """Every violated contract clause, human-readable; empty = pass."""
        problems: list[str] = []
        if self.timed_out:
            problems.append("sweep timed out before the queue drained")
        if self.lost_jobs:
            problems.append(f"{len(self.lost_jobs)} jobs lost (not done): {self.lost_jobs}")
        if self.dead_jobs:
            problems.append(
                f"{len(self.dead_jobs)} jobs dead-lettered{self.dead_letter_cause}: "
                f"{self.dead_jobs}"
            )
        if self.run_entries != self.expected_entries:
            problems.append(
                f"{self.run_entries} run-store entries for {self.expected_entries} "
                f"unique jobs (duplicate or missing committed effects)"
            )
        if self.serial_mismatches:
            problems.append(
                f"{len(self.serial_mismatches)} runs diverge from serial: "
                f"{self.serial_mismatches}"
            )
        if self.torn_injected and not self.corrupt_quarantined:
            problems.append("torn writes were injected but no corrupt entry was quarantined")
        problems.extend(self._plan_failures())
        if self.audit_problems:
            problems.append(f"store audits found: {self.audit_problems}")
        return problems

    def _plan_failures(self) -> list[str]:
        """Clauses specific to the injected fault model."""
        return []

    @property
    def passed(self) -> bool:
        return not self.failures()


@dataclass
class FaultOutcome(DrainOutcome):
    """Everything :func:`run_fault_sweep` can assert about a drained queue."""

    fired: dict[str, int] = field(default_factory=dict)
    required_kinds: tuple[str, ...] = ()
    workers_spawned: int = 0
    workers_killed: int = 0

    @property
    def torn_injected(self) -> bool:
        return bool(self.fired.get("torn"))

    def _plan_failures(self) -> list[str]:
        return [
            f"planned fault kind {kind!r} never fired"
            for kind in self.required_kinds
            if not self.fired.get(kind)
        ]


# ------------------------------------------------------------ drain core


#: Worker spawns one drain may make, replacements included.
WORKER_CAP = 16


class DrainHarness:
    """The drain-and-audit core shared by every fault sweep.

    Lays ``root`` out as ``queue``/``traces``/``runs``, seeds the trace
    store (``prebuilt`` traces are reused by scenario fingerprint), and
    enqueues the ``specs`` x ``scenarios`` grid.  :meth:`drain` runs a
    thread fleet over the queue; :meth:`audit` checks the aftermath
    against serial execution.  Each worker gets its own queue and store
    handles, so the only shared surface is the filesystem (plus any
    hooks or process-wide fault plan), as it would be between processes.
    """

    def __init__(
        self,
        root: str | Path,
        scenarios: Sequence[Scenario],
        specs: Sequence[str],
        *,
        zoo: ModelZoo | None,
        prebuilt: Sequence[ScenarioTrace],
        engine_seed: int,
        lease_duration: float,
        max_attempts: int,
        backoff_base: float,
        backoff_cap: float,
        poll_interval: float,
    ) -> None:
        root = Path(root)
        self.queue_root = root / "queue"
        self.trace_root = root / "traces"
        self.run_root = root / "runs"
        self.zoo = zoo if zoo is not None else default_zoo()
        self.engine_seed = engine_seed
        self.lease_duration = lease_duration
        self.poll_interval = poll_interval
        #: A fresh handle on the shared queue (one per worker).
        self.queue = partial(
            JobQueue, self.queue_root, lease_duration=lease_duration,
            max_attempts=max_attempts, backoff_base=backoff_base, backoff_cap=backoff_cap,
        )

        self.trace_store = TraceStore(self.trace_root)
        built = {trace.scenario.fingerprint(): trace for trace in prebuilt}
        for scenario in scenarios:
            trace = built.get(scenario.fingerprint())
            if trace is None:
                trace = ScenarioTrace.build(scenario, self.zoo)
            self.trace_store.save(trace, self.zoo)

        self.master = self.queue()
        self.jobs = [UnitJob(policy_spec=spec, scenario=s) for spec in specs for s in scenarios]
        self.master.enqueue_all(self.jobs, engine_seed=engine_seed)
        self.unique_jobs = {job_digest(j.policy_spec, j.key[1]): j for j in self.jobs}
        self.run_store = RunStore(self.run_root)
        self.keys = self._run_keys()
        #: Every worker any drain spawned, in spawn order.
        self.fleet: list[QueueWorker] = []
        self._lock = threading.Lock()  # repro: guards[workers_killed]
        self.workers_killed = 0

    @property
    def roots(self) -> tuple[Path, Path, Path]:
        return (self.queue_root, self.trace_root, self.run_root)

    def _run_keys(self) -> dict[str, RunKey]:
        """The run-store key of every committable job, by job digest."""
        resolve = policy_resolver()
        runner = ExperimentRunner(self.zoo, engine_seed=self.engine_seed, run_store=self.run_store)
        keys: dict[str, RunKey] = {}
        for digest, job in self.unique_jobs.items():
            key = runner.run_key(resolve(job.policy_spec), job.key[1])
            if key is not None:  # else not committable: the queue dead-letters it loudly
                keys[digest] = key
        return keys

    # ----------------------------------------------------------------- drain

    def drain(
        self,
        *,
        workers: int,
        deadline: float,
        tag: str = "w",
        hooks: WorkerHooks | None = None,
        worker_cap: int = WORKER_CAP,
    ) -> bool:
        """Keep ``workers`` threads draining the queue; True on timeout.

        Workers are named ``<tag><n>`` in spawn order (fault plans key on
        these ids).  A worker that dies is replaced until ``worker_cap``
        spawns; the drain ends when the queue drains, ``deadline``
        (monotonic) passes, or the whole fleet is dead with no spawns
        left.  Survivors are then stopped and joined, so no worker
        outlives its drain.
        """
        live: dict[QueueWorker, threading.Thread] = {}
        spawned = 0
        timed_out = False
        while True:
            live = {worker: thread for worker, thread in live.items() if thread.is_alive()}
            if self.master.drained():
                break
            if time.monotonic() >= deadline:
                timed_out = True
                break
            while len(live) < workers and spawned < worker_cap:
                worker = QueueWorker(
                    self.queue(),
                    run_store=RunStore(self.run_root),
                    trace_store=TraceStore(self.trace_root),
                    zoo=self.zoo,
                    worker_id=f"{tag}{spawned}",
                    hooks=hooks,
                    poll_interval=self.poll_interval,
                )
                spawned += 1
                self.fleet.append(worker)
                thread = threading.Thread(
                    target=self._run, args=(worker,), name=worker.worker_id, daemon=True
                )
                live[worker] = thread
                thread.start()
            if not live and spawned >= worker_cap:
                break  # the whole fleet died and the cap forbids replacements
            time.sleep(0.01)
        for worker in live:
            worker.stop()
        for thread in live.values():
            thread.join(timeout=max(5.0, self.lease_duration * 4))
        return timed_out

    def _run(self, worker: QueueWorker) -> None:
        try:
            worker.drain()
        except WorkerKilled:
            with self._lock:
                self.workers_killed += 1

    # ----------------------------------------------------------------- audit

    def audit(self, outcome: DrainOutcome) -> None:
        """Fill ``outcome``'s shared clauses from the queue and the stores.

        Job states (lost / dead-lettered), committed entries against the
        committable jobs, quarantines seen by any worker or by the audit
        itself, every committed run's records and metrics against a
        serial :func:`~repro.runtime.runner.run_policy`, and the audits
        of all three roots.
        """
        outcome.queue_stats = self.master.stats()
        states = {record["job_id"]: record["state"] for record in self.master.records()}
        for digest in self.unique_jobs:
            state = states.get(digest)
            if state == "dead":
                outcome.dead_jobs.append(digest[:12])
            elif state != "done":
                outcome.lost_jobs.append(f"{digest[:12]}={state}")

        outcome.run_entries = len(self.run_store)
        outcome.expected_entries = len(self.keys)
        for worker in self.fleet:
            outcome.corrupt_quarantined += worker.run_store.corrupt_entries
            outcome.corrupt_quarantined += worker.trace_store.corrupt_entries
        outcome.corrupt_quarantined += self.run_store.corrupt_entries

        resolve = policy_resolver()
        for digest, key in self.keys.items():
            job = self.unique_jobs[digest]
            stored = self.run_store.load(key)
            label = f"{job.policy_spec}/{job.scenario.name}"
            if stored is None:
                outcome.serial_mismatches.append(f"{label}: no committed run")
                continue
            trace = self.trace_store.load(job.scenario, self.zoo)
            serial = run_policy(
                resolve(job.policy_spec), trace, engine_seed=self.engine_seed, fast=True
            )
            if stored.records != serial.records:
                outcome.serial_mismatches.append(f"{label}: frame records diverge from serial")
            elif self.run_store.load_metrics(key) != aggregate(serial):
                outcome.serial_mismatches.append(f"{label}: metrics diverge from serial")

        for label, (_, problems) in (
            ("runs", self.run_store.audit()),
            ("traces", self.trace_store.audit()),
            ("queue", self.master.audit()),
        ):
            outcome.audit_problems.extend(f"{label}: {p}" for p in problems)


# ------------------------------------------------------------------ sweep


def run_fault_sweep(
    scenarios: Sequence[Scenario],
    specs: Sequence[str],
    root: str | Path,
    *,
    plan: FaultPlan | None = None,
    workers: int = 2,
    worker_cap: int = WORKER_CAP,
    lease_duration: float = 0.3,
    backoff_base: float = 0.02,
    backoff_cap: float = 0.1,
    max_attempts: int = 10,
    engine_seed: int = 1234,
    poll_interval: float = 0.01,
    timeout: float = 120.0,
    zoo: ModelZoo | None = None,
    prebuilt: Sequence[ScenarioTrace] = (),
) -> FaultOutcome:
    """Drain ``specs`` x ``scenarios`` through a fault-injected worker fleet.

    Thread-mode: each "worker" is a thread with its own queue/store
    handles, killed via :class:`~repro.service.worker.WorkerKilled`.
    :meth:`DrainHarness.drain` keeps ``workers`` alive, replacing the
    dead up to ``worker_cap`` spawns, until the queue drains or
    ``timeout`` passes.  Returns a :class:`FaultOutcome`; callers assert
    :attr:`FaultOutcome.passed`.

    Short leases and backoffs are the default because the harness's
    wall-clock cost is dominated by waiting out lease expiry; correctness
    must not depend on the values (only liveness does).
    """
    if plan is None:
        plan = fault_plan_for_check()
    harness = DrainHarness(
        root, scenarios, specs, zoo=zoo, prebuilt=prebuilt,
        engine_seed=engine_seed, lease_duration=lease_duration,
        max_attempts=max_attempts, backoff_base=backoff_base,
        backoff_cap=backoff_cap, poll_interval=poll_interval,
    )
    hooks = FaultHooks(plan)
    timed_out = harness.drain(
        workers=workers, deadline=time.monotonic() + timeout,
        hooks=hooks, worker_cap=worker_cap,
    )
    outcome = FaultOutcome(
        job_count=len(harness.unique_jobs),
        fired=dict(hooks.fired),
        required_kinds=plan.required,
        workers_spawned=len(harness.fleet),
        workers_killed=harness.workers_killed,
        timed_out=timed_out,
    )
    harness.audit(outcome)
    return outcome
