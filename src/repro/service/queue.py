"""Crash-safe on-disk job queue: leases, heartbeats, retries, dead-letters.

:class:`JobQueue` is the multi-process backbone of the sweep tier.  The
in-process :class:`~repro.service.service.SweepService` dedupes unit jobs
into a thread pool and dies with its interpreter; the queue persists the
same deduplicated ``(policy_spec, scenario_fingerprint)`` unit jobs as
sharded JSON records (one file per job, keyed by the job digest) so N
worker *processes* — same host or shared filesystem — can pull from it
and a killed worker loses nothing.

**Lifecycle.**  A job record moves ``pending -> leased -> done``; failure
paths are ``leased -> pending`` (retry with deterministic backoff) and
``leased/pending -> dead`` (attempts exhausted, dead-letter quarantine,
recoverable via :meth:`JobQueue.requeue_dead`).

**Leases.**  A worker claims a job by writing a lease — owner id, random
nonce, and a wall-clock deadline — under the shard's fcntl lock, and
heartbeats it while executing (each heartbeat pushes the deadline out).
A claim walk expires every overdue lease it meets, so a SIGKILLed
worker's jobs migrate to the survivors once a walk passes their shard
after the deadline.  The nonce fences stale owners: a worker that
stalls past its deadline and then tries to complete loses the
compare-and-swap (its nonce is gone) and its late commit is ignored at
the queue layer.

**A shard is its files.**  A live (pending or leased) record sits at
``job-v1-<digest32>.json``; when it turns ``done`` or ``dead`` it is
renamed, under the shard lock, to ``job-v1-<digest32>.done.json`` or
``.dead.json`` — Maildir's idea: a message's state is where its file
name puts it.  Every reader lists a shard once and takes a terminal name
as the record's state without reading it, so a claim reads only live
records and its cost does not grow with the number of finished jobs.
One write-order rule keeps names safe to trust: a name may show a
terminal record as live, never a live record as terminal
(:meth:`JobQueue._store_locked`).

**At-most-once in effect.**  The queue itself guarantees only
at-*least*-once execution — a lease can expire while the worker is still
alive and slow.  Exactly-once *effects* come from the layer below: runs
commit through :meth:`~repro.runtime.runstore.RunStore.commit`, which is
idempotent because run content is a pure function of the run key.  A
re-executed job re-derives bit-identical bytes and the second commit is
a no-op, so duplicate execution is invisible in the results.

**Determinism.**  Retry backoff is seeded per ``(job, attempt)`` — the
schedule is reproducible run to run — and nothing about claim order,
worker count, or crash timing is an input to any run, so a drained
queue's run store is field-for-field identical to a serial
:meth:`~repro.runtime.experiment.ExperimentRunner.sweep`.  The ``faults``
differential check and CI's ``fault-smoke`` job both enforce this.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable, Iterator

from ..data.scenario import Scenario, scenario_from_dict, scenario_to_dict
from ..util import jsonsafe
from ..runtime import iolayer, maintenance, shards
from ..runtime.iolayer import StoreDegraded
from .jobs import ServiceError, UnitJob

QUEUE_SCHEMA_VERSION = 1

#: Every state a job record can be in.
JOB_STATES = ("pending", "leased", "done", "dead")

#: States a record's file name can show.  A reader takes them from the
#: name without reading the record: the write order never shows a live
#: record as terminal.
TERMINAL_STATES = ("done", "dead")

#: Most recent transitions kept per record (oldest dropped first).
HISTORY_LIMIT = 20


def job_digest(policy_spec: str, scenario_fingerprint: str) -> str:
    """Content address of one unit job (the queue's dedup key, hex)."""
    return hashlib.sha256(
        f"{policy_spec}|{scenario_fingerprint}".encode()
    ).hexdigest()


def _job_file_name(digest: str, state: str | None = None) -> str:
    """A job record's file name: the live one, or the one that shows ``state``."""
    return _state_name(f"job-v{QUEUE_SCHEMA_VERSION}-{digest[:32]}", state)


def _state_name(name: str, state: str | None) -> str:
    """``name`` (any of one record's names, or their stem) as it shows ``state``.

    Only a terminal state shows: a live record's name has no state part.
    """
    stem = name.split(".", 1)[0]
    return f"{stem}.{state}.json" if state in TERMINAL_STATES else f"{stem}.json"


def _name_state(name: str) -> str | None:
    """The terminal state a record's file name shows; None for a live name."""
    state = name.removesuffix(".json").rpartition(".")[2]
    return state if state in TERMINAL_STATES else None


def job_to_dict(job: UnitJob, engine_seed: int, max_attempts: int) -> dict:
    """The initial (pending) on-disk record for one unit job.

    The scenario is embedded in full so a worker process can execute jobs
    over generated matrices (fuzz pools, fault-harness grids) that were never
    registered in its interpreter.  Field set pinned in
    analysis/schema_manifest.json.
    """
    return {
        "schema_version": QUEUE_SCHEMA_VERSION,
        "job_id": job_digest(job.policy_spec, job.key[1]),
        "policy_spec": job.policy_spec,
        "scenario_name": job.scenario.name,
        "scenario_fingerprint": job.key[1],
        "scenario": scenario_to_dict(job.scenario),
        "engine_seed": engine_seed,
        "state": "pending",
        "attempts": 0,
        "max_attempts": max_attempts,
        "not_before": 0.0,
        "lease": None,
        "error": None,
        "history": [],
    }


def _job_names(shard: Path) -> list[str]:
    """The job record files in ``shard``, sorted (in-flight temps excluded)."""
    try:
        names = os.listdir(shard)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.startswith("job-") and name.endswith(".json"))


def _record_name(shard: Path, job_id: str) -> str | None:
    """The name one job's record has in ``shard``, or None when it has none.

    One atomic rename moves a record between its names, so it has at
    most one.
    """
    for state in (None, *TERMINAL_STATES):
        name = _job_file_name(job_id, state)
        if (shard / name).exists():
            return name
    return None


def _digest_from_name(name: str) -> str | None:
    """The shard digest encoded in a job record file name, or None."""
    parts = name.split(".", 1)[0].split("-")
    return parts[2] if len(parts) == 3 and len(parts[2]) == 32 else None


def _scrub_problem(name: str, record: dict) -> str | None:
    """Why a parsed job record is unsound, or None when it checks out.

    Recomputes the job digest from the identity block — a record whose
    spec/fingerprint was torn into another record's slot cannot pass —
    and requires a known state plus an executable scenario block.  A
    name that shows a terminal state the record is not in is the one
    drift that hides work from claims.
    """
    if record.get("schema_version") != QUEUE_SCHEMA_VERSION:
        return f"schema_version {record.get('schema_version')!r} != {QUEUE_SCHEMA_VERSION}"
    if record.get("state") not in JOB_STATES:
        return f"unknown state {record.get('state')!r}"
    spec = record.get("policy_spec")
    fingerprint = record.get("scenario_fingerprint")
    if not isinstance(spec, str) or not isinstance(fingerprint, str):
        return "identity block incomplete"
    digest = job_digest(spec, fingerprint)
    if record.get("job_id") != digest:
        return "job_id does not match recomputed digest"
    shown = _name_state(name)
    if _job_file_name(digest, shown) != name:
        return "file name does not match recomputed digest"
    if shown not in (None, record["state"]):
        return f"file name shows {shown} but the record is {record['state']}"
    if not isinstance(record.get("scenario"), dict):
        return "scenario block missing (record is not executable)"
    return None


@dataclass(frozen=True)
class Lease:
    """One granted claim: proof of ownership of a job until ``deadline``.

    ``nonce`` is the fencing token — every queue mutation on behalf of
    this lease (heartbeat, complete, fail) compares it against the
    record, so a stale owner whose lease expired and was re-granted can
    never clobber the new owner's state.
    """

    job_id: str
    policy_spec: str
    scenario: Scenario
    scenario_fingerprint: str
    engine_seed: int
    owner: str
    nonce: str
    deadline: float
    attempt: int


def _lease_of(record: dict) -> Lease:
    """The lease a ``leased`` record holds."""
    held = record["lease"]
    return Lease(
        job_id=record["job_id"],
        policy_spec=record["policy_spec"],
        scenario=scenario_from_dict(record["scenario"]),
        scenario_fingerprint=record["scenario_fingerprint"],
        engine_seed=record["engine_seed"],
        owner=held["owner"],
        nonce=held["nonce"],
        deadline=held["deadline"],
        attempt=record["attempts"],
    )


class JobQueue(maintenance.MaintainedRoot):
    """A sharded on-disk queue of unit jobs with lease/heartbeat semantics.

    All records live under ``root/<2-hex>/job-v1-<digest32>[.done|.dead].json``
    — the same shard/lock/atomic-write discipline as the trace and run
    stores (:mod:`repro.runtime.shards`), so any number of processes can
    enqueue, claim, and complete concurrently; health, audit, scrub and
    gc come from :class:`~repro.runtime.maintenance.MaintainedRoot`.
    ``lease_duration`` is the crash detection horizon; ``max_attempts``
    bounds retries before a job is dead-lettered; backoff between retries
    is ``min(cap, base * 2**(n-1))`` scaled by seeded jitter in
    ``[0.5, 1.0]`` — deterministic per ``(job, attempt)``.
    ``clock`` is injectable so lease expiry is testable without sleeping.

    Counters (this instance's view, not global): ``claims_granted``,
    ``jobs_completed``, ``jobs_failed``, ``leases_expired``,
    ``jobs_requeued``, ``jobs_dead``, ``leases_lost``,
    ``jobs_released``, ``corrupt_records``, ``clock_skew_events``.

    **Clock discipline.**  Lease deadlines are wall-clock (they must be
    comparable across processes), but every reading this instance takes
    goes through :meth:`_now`, which clamps backwards steps to zero
    elapsed time — a clock stepped back (NTP correction, manual reset)
    can therefore never *extend* a lease or push a backoff further out.
    Suspicious steps — any backwards movement, or a forward jump larger
    than ``lease_duration`` (which would mass-expire healthy leases) —
    increment ``clock_skew_events`` so supervisors can see that lease
    arithmetic ran on a misbehaving clock.
    """

    ENTRY_GLOB = "job-*.json"
    #: GC reclaims dead letters past the TTL, by name, never ``done``
    #: records: dead-lettered jobs are terminal evidence, expired like
    #: quarantined files; ``done`` records are what makes re-submitting a
    #: warm sweep free.  A name never shows a live record as terminal.
    GC_GLOB = "job-*.dead.json"
    _digest_from_name = staticmethod(_digest_from_name)

    def _entry_problem(self, path: Path) -> str | None:
        """Scrub's and audit's check of one record: it parses and matches its name."""
        try:
            record = jsonsafe.loads(iolayer.read_text(path, root=self.root))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return f"unparseable ({exc})"
        if not isinstance(record, dict):
            return "not a JSON object"
        return _scrub_problem(path.name, record)

    def __init__(
        self,
        root: str | Path,
        *,
        lease_duration: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if lease_duration <= 0:
            raise ServiceError("lease_duration must be positive")
        if max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        if backoff_base < 0 or backoff_cap < backoff_base:
            raise ServiceError("backoff must satisfy 0 <= base <= cap")
        self._open_root(root, "queue")
        self.lease_duration = lease_duration
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._clock = clock if clock is not None else time.time
        # One mutex for the counter block; enforced by `repro lint`.
        self._state = threading.Lock()  # repro: guards[claims_granted, jobs_completed, jobs_failed, leases_expired, jobs_requeued, jobs_dead, leases_lost, jobs_released, corrupt_records, clock_skew_events, degraded_refusals, _last_reading, _shards, _resume]
        self.claims_granted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.leases_expired = 0
        self.jobs_requeued = 0
        self.jobs_dead = 0
        self.leases_lost = 0
        self.jobs_released = 0
        self.corrupt_records = 0
        self.clock_skew_events = 0
        self.degraded_refusals = 0
        self._last_reading: float | None = None
        #: The shard ring claims walk; re-listed after a fruitless full walk.
        self._shards: list[Path] = []
        #: owner -> (shard name, start past it) where its next walk begins.
        self._resume: dict[str, tuple[str, bool]] = {}

    # ----------------------------------------------------------------- clock

    def _now(self) -> float:
        """One wall-clock reading, monotonized against backwards steps.

        ``time.time()`` can step in either direction.  A backwards step
        would silently extend every outstanding lease (expiry compares
        ``deadline > now``) and stretch every backoff, so elapsed time is
        clamped to zero: this instance's readings never decrease.  Both
        anomalies — any backwards step, and a forward jump larger than
        ``lease_duration`` (the step size that mass-expires healthy
        leases) — bump ``clock_skew_events``.  Deadlines already written
        by other processes are untouched; the clamp only disciplines what
        *this* instance computes from the clock.
        """
        raw = self._clock()
        with self._state:
            last = self._last_reading
            if last is None:
                self._last_reading = raw
                return raw
            if raw < last:
                self.clock_skew_events += 1
                return last  # clamp: no time passed, rather than negative
            if raw - last > self.lease_duration:
                self.clock_skew_events += 1
            self._last_reading = raw
            return raw

    # -------------------------------------------------------------- enqueue

    def enqueue(self, job: UnitJob, *, engine_seed: int = 1234) -> bool:
        """Persist one unit job; True when newly added.

        Idempotent: a record under any of the job's names (whatever its
        state — a done job stays done, which is what makes re-submitting
        a warm sweep free) is left untouched, and so is one that exists
        but cannot be read (the seam counted the error; unavailable is
        not missing).  A torn record is quarantined and replaced: a torn
        queue file must never wedge its job forever.
        """
        record = job_to_dict(job, engine_seed, self.max_attempts)
        return self._update(
            record["job_id"], lambda held: record if held is None else None
        ) is not None

    def enqueue_all(self, jobs: list[UnitJob], *, engine_seed: int = 1234) -> int:
        """Enqueue a batch (dedup included); returns how many were new."""
        added = 0
        seen: set[str] = set()
        for job in jobs:
            digest = job_digest(job.policy_spec, job.key[1])
            if digest in seen:
                continue
            seen.add(digest)
            if self.enqueue(job, engine_seed=engine_seed):
                added += 1
        return added

    # ---------------------------------------------------------------- claim

    def claim(self, owner: str) -> Lease | None:
        """Try to lease one runnable job; None when nothing is claimable.

        Walks the shard ring from this owner's resume point: the shard of
        its last grant while that shard still had live records, else the
        one after it (a first claim starts at an owner-derived offset, so
        workers spread over the ring).  Each visited shard is listed
        once; under its lock only its live-named records are read, and an
        overdue lease among them is expired on the way — crash recovery
        is a side effect of normal claiming, no reaper process needed.
        The shard list is cached and re-listed only when a walk finishes
        a full ring without a grant.
        ``None`` means *right now*: jobs backing off or leased elsewhere
        may become claimable later, so workers poll until :meth:`drained`.

        While the queue root is degraded (disk capacity exhausted) no
        claim is granted at all: a lease against a store that cannot
        commit its own record would only burn an attempt.  Each refused
        claim first probes for recovery, so the queue un-wedges itself
        the moment space returns.
        """
        if iolayer.is_degraded(self.root) and not iolayer.probe(self.root):
            with self._state:
                self.degraded_refusals += 1
            return None
        now = self._now()
        walked: set[str] = set()
        for relist in (False, True):
            ring, listed = self._ring(owner, relist)
            for shard in ring:
                if shard.name in walked:
                    continue
                walked.add(shard.name)
                try:
                    with shards.shard_lock(shard):
                        lease, live_left = self._claim_in_shard_locked(shard, owner, now)
                except StoreDegraded:
                    # A record write hit a full disk: the record on disk is
                    # unchanged (atomic replace never landed), so no lease
                    # exists and no attempt was burned.
                    with self._state:
                        self.degraded_refusals += 1
                    return None
                if lease is not None:
                    with self._state:
                        self._resume[owner] = (shard.name, not live_left)
                    return lease
            if listed:
                break  # this ring was just listed: there is nothing newer to walk
        return None

    def _ring(self, owner: str, relist: bool) -> tuple[list[Path], bool]:
        """This owner's walk order, and whether the shard list was just listed."""
        with self._state:
            ring = self._shards
            resume = self._resume.get(owner)
        listed = relist or not ring
        if listed:
            ring = shards.shard_dirs(self.root)
            with self._state:
                self._shards = ring
        if not ring:
            return [], listed
        if resume is None:
            start = int(hashlib.sha256(owner.encode("utf-8")).hexdigest()[:8], 16)
        else:
            name, past = resume
            names = [shard.name for shard in ring]
            start = (bisect.bisect_right if past else bisect.bisect_left)(names, name)
        start %= len(ring)
        return ring[start:] + ring[:start], listed

    def _claim_in_shard_locked(
        self, shard: Path, owner: str, now: float
    ) -> tuple[Lease | None, bool]:
        """Grant the first due job in one shard: ``(lease, live records left)``.

        Reads the live-named records in name order: an overdue lease
        among them is expired, and a terminal record still at its live
        name (a retire whose rename failed) gets its terminal name.
        """
        live = [name for name in _job_names(shard) if _name_state(name) is None]
        for position, name in enumerate(live):
            record = self._read_record_locked(shard, name)
            if record is None:
                continue
            changed = self._tick_locked(record, now)
            grantable = (
                record["state"] == "pending" and record["not_before"] <= now
            )
            if grantable:
                record["attempts"] += 1
                record["state"] = "leased"
                record["lease"] = {
                    "owner": owner,
                    "nonce": os.urandom(8).hex(),
                    "deadline": now + self.lease_duration,
                    "granted_at": now,
                }
                self._log_transition(record, "leased", f"claimed by {owner}", now)
                changed = True
            if changed:
                self._store_locked(shard, name, record)
            else:
                self._settle_locked(shard, name, record)
            if grantable:
                with self._state:
                    self.claims_granted += 1
                return _lease_of(record), position + 1 < len(live)
        return None, False

    def _tick_locked(self, record: dict, now: float) -> bool:
        """Expire an overdue lease in place; True when the record changed."""
        lease = record.get("lease")
        if record["state"] != "leased" or lease is None:
            return False
        if lease["deadline"] > now:
            return False
        record["lease"] = None
        record["error"] = f"lease expired (owner {lease['owner']}, attempt {record['attempts']})"
        with self._state:
            self.leases_expired += 1
        if record["attempts"] >= record["max_attempts"]:
            record["state"] = "dead"
            self._log_transition(record, "dead", "attempts exhausted after expiry", now)
            with self._state:
                self.jobs_dead += 1
        else:
            record["state"] = "pending"
            record["not_before"] = now + self.backoff_delay(record["job_id"], record["attempts"])
            self._log_transition(record, "pending", "requeued after lease expiry", now)
            with self._state:
                self.jobs_requeued += 1
        return True

    def backoff_delay(self, job_id: str, attempt: int) -> float:
        """Deterministic retry delay before attempt ``attempt + 1``.

        Exponential in the attempt count, capped, with seeded jitter in
        ``[0.5, 1.0]`` of the raw delay — the same ``(job_id, attempt)``
        always yields the same schedule, so fault harness replays are
        reproducible.
        """
        rng = random.Random(f"{job_id}|{attempt}")
        raw = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        return raw * (0.5 + 0.5 * rng.random())

    # ------------------------------------------------------ lease lifecycle

    def heartbeat(self, lease: Lease) -> float | None:
        """Extend a live lease; the new deadline, or None when it was lost.

        A ``None`` tells the worker its lease expired (and may already be
        re-granted elsewhere) — it should stop treating the job as its
        own.  Execution can safely continue to the idempotent commit, but
        the queue-level completion must go through the nonce check.
        """
        deadline = self._now() + self.lease_duration

        def mutate(record: dict | None) -> dict | None:
            if not self._owns_lease(record, lease):
                return None
            record["lease"]["deadline"] = deadline
            return record

        updated = self._update(lease.job_id, mutate)
        if updated is None:
            with self._state:
                self.leases_lost += 1
            return None
        return deadline

    def complete(self, lease: Lease) -> bool:
        """Mark a leased job done; False when the lease was already lost.

        A False return is *not* an error: the run itself committed
        idempotently through the run store, so a lost lease only means
        another owner (or a retry) will observe the warm entry and
        complete the record — no effect is duplicated either way.
        """
        now = self._now()

        def mutate(record: dict | None) -> dict | None:
            if not self._owns_lease(record, lease):
                return None
            record["state"] = "done"
            record["lease"] = None
            record["error"] = None
            self._log_transition(record, "done", f"completed by {lease.owner}", now)
            return record

        updated = self._update(lease.job_id, mutate)
        with self._state:
            if updated is None:
                self.leases_lost += 1
            else:
                self.jobs_completed += 1
        return updated is not None

    def fail(self, lease: Lease, error: str) -> bool:
        """Report a failed execution; False when the lease was already lost.

        Requeues with backoff while attempts remain, dead-letters
        otherwise.  The attempt was already counted at claim time.
        """
        now = self._now()

        def mutate(record: dict | None) -> dict | None:
            if not self._owns_lease(record, lease):
                return None
            record["lease"] = None
            record["error"] = error
            if record["attempts"] >= record["max_attempts"]:
                record["state"] = "dead"
                self._log_transition(record, "dead", f"failed: {error}", now)
            else:
                record["state"] = "pending"
                record["not_before"] = now + self.backoff_delay(
                    record["job_id"], record["attempts"]
                )
                self._log_transition(record, "pending", f"requeued after failure: {error}", now)
            return record

        updated = self._update(lease.job_id, mutate)
        with self._state:
            if updated is None:
                self.leases_lost += 1
            else:
                self.jobs_failed += 1
                if updated["state"] == "dead":
                    self.jobs_dead += 1
                else:
                    self.jobs_requeued += 1
        return updated is not None

    def release(self, lease: Lease) -> bool:
        """Voluntarily return a leased job to pending (graceful shutdown).

        Unlike :meth:`fail`, releasing refunds the attempt consumed at
        claim time and applies no backoff — a worker told to shut down is
        not a failing worker, and its job must be immediately claimable
        by the survivors.  False when the lease was already lost (the
        job migrated on its own; nothing to do).
        """
        now = self._now()

        def mutate(record: dict | None) -> dict | None:
            if not self._owns_lease(record, lease):
                return None
            record["state"] = "pending"
            record["lease"] = None
            record["attempts"] = max(0, record["attempts"] - 1)
            record["not_before"] = now
            self._log_transition(record, "pending", f"released by {lease.owner}", now)
            return record

        updated = self._update(lease.job_id, mutate)
        with self._state:
            if updated is None:
                self.leases_lost += 1
            else:
                self.jobs_released += 1
        return updated is not None

    def release_owned(self, owner: str) -> int:
        """Release every lease held by ``owner``; leases released.

        The shutdown companion to :meth:`release` for the window
        :obj:`QueueWorker` cannot see: a termination signal that lands
        *inside* :meth:`claim` — after the grant is durable on disk but
        before the lease object reaches the drain loop — leaves a held
        lease the worker has no handle for.  Sweeping by owner closes
        the gap; without it that job sits invisible until lease expiry
        burns an attempt.  Nonce fencing still applies record by record,
        so a lease that migrated to a new owner is never touched.
        """
        released = 0
        for shown, path in self._scan():
            if shown is not None:
                continue
            record = self._load(path) or {}
            held = record.get("lease")
            if (
                record.get("state") != "leased"
                or not isinstance(held, dict)
                or held.get("owner") != owner
            ):
                continue
            if self.release(_lease_of(record)):
                released += 1
        return released

    @staticmethod
    def _owns_lease(record: dict | None, lease: Lease) -> bool:
        if record is None or record.get("state") != "leased":
            return False
        held = record.get("lease")
        return (
            isinstance(held, dict)
            and held.get("owner") == lease.owner
            and held.get("nonce") == lease.nonce
        )

    # ------------------------------------------------------------ recovery

    def requeue_dead(self) -> int:
        """Return every dead-lettered job to pending with a fresh attempt
        budget; count requeued.  Reads every record not named ``done``."""

        def revive(record: dict, now: float) -> bool:
            if record["state"] != "dead":
                return False
            record["state"] = "pending"
            record["attempts"] = 0
            record["not_before"] = 0.0
            record["lease"] = None
            record["error"] = None
            self._log_transition(record, "pending", "dead-letter requeued", now)
            return True

        return self._sweep(("done",), revive)

    def repend(self, job_id: str) -> bool:
        """Return a ``done`` job to pending; False unless it was done.

        For a job whose committed effect went missing (a torn or lost run
        entry) — the one case lease expiry cannot heal.  The job keeps its
        attempt count and is claimable at once.
        """
        now = self._now()

        def mutate(record: dict | None) -> dict | None:
            if record is None or record.get("state") != "done":
                return None
            record["state"] = "pending"
            record["lease"] = None
            record["error"] = None
            record["not_before"] = 0.0
            self._log_transition(record, "pending", "re-pended: committed effect missing", now)
            return record

        return self._update(job_id, mutate) is not None

    def expire_overdue(self) -> int:
        """Sweep every shard for overdue leases (crash recovery on demand).

        Claiming already does this lazily; this is for supervisors that
        want requeue latency bounded by their own schedule rather than by
        the next claim.  Returns how many leases were expired.
        """
        return self._sweep(TERMINAL_STATES, self._tick_locked)

    def _sweep(self, skip: tuple[str, ...], step: Callable[[dict, float], bool]) -> int:
        """Apply ``step(record, now)`` to every record, shard by shard under lock.

        Records whose name shows a state in ``skip`` are not read; a True
        ``step`` (it changed the record) is written as a transition,
        otherwise a terminal record still at its live name gets its
        terminal name.  Returns how many records were written.
        """
        now = self._now()
        written = 0
        for shard in shards.shard_dirs(self.root):
            with shards.shard_lock(shard):
                for name in _job_names(shard):
                    if _name_state(name) in skip:
                        continue
                    record = self._read_record_locked(shard, name)
                    if record is None:
                        continue
                    if step(record, now):
                        written += self._store_locked(shard, name, record)
                    else:
                        self._settle_locked(shard, name, record)
        return written

    # ----------------------------------------------------------- inspection

    def records(self) -> Iterator[dict]:
        """Every readable job record (no lock: entry writes are atomic)."""
        for path in shards.iter_entry_paths(self.root, self.ENTRY_GLOB):
            record = self._load(path)
            if record is not None:
                yield record

    def dead_letters(self) -> list[dict]:
        """Every dead-lettered record, in job-id order.

        Reads only the records named dead.
        """
        dead = []
        for shown, path in self._scan():
            if shown != "dead":
                continue
            record = self._load(path)
            if record is not None and record.get("state") == "dead":
                dead.append(record)
        return dead

    def counts(self) -> dict[str, int]:
        """Job counts by state (+ ``total``).

        Done and dead records are counted from their names (the write
        order never shows a live record as terminal); every live-named
        record is read, so pending and leased counts — and a terminal
        record whose rename is still to come — are the records' own.
        """
        tally = {state: 0 for state in JOB_STATES}
        total = 0
        for state, path in self._scan():
            if state is None:
                record = self._load(path)
                if record is None:
                    continue
                state = record.get("state")
            if state in tally:
                tally[state] += 1
            total += 1
        tally["total"] = total
        return tally

    def stats(self) -> dict[str, int]:
        """State counts merged with this instance's lifecycle counters."""
        merged = self.counts()
        with self._state:
            merged.update(
                claims_granted=self.claims_granted,
                jobs_completed=self.jobs_completed,
                jobs_failed=self.jobs_failed,
                leases_expired=self.leases_expired,
                jobs_requeued=self.jobs_requeued,
                jobs_dead=self.jobs_dead,
                leases_lost=self.leases_lost,
                jobs_released=self.jobs_released,
                corrupt_records=self.corrupt_records,
                clock_skew_events=self.clock_skew_events,
                degraded_refusals=self.degraded_refusals,
            )
        merged["io_errors"] = iolayer.io_error_count(self.root)
        return merged

    def outstanding(self) -> int:
        """Jobs still in flight (pending or leased)."""
        tally = self.counts()
        return tally["pending"] + tally["leased"]

    def drained(self) -> bool:
        """True when no job is pending or leased (done and dead may remain)."""
        return self.outstanding() == 0

    # ------------------------------------------------------------- plumbing

    def _scan(self) -> Iterator[tuple[str | None, Path]]:
        """``(state the name shows, record path)`` for every record, lock-free.

        Record writes and renames are atomic, so a reader without the
        lock sees whole files.  The state is None for a live name.
        """
        for shard in shards.shard_dirs(self.root):
            for name in _job_names(shard):
                yield _name_state(name), shard / name

    def _load(self, path: Path) -> dict | None:
        """One record; None when it is missing, unreadable or not an object.

        A lock-free read: a missing or torn record is simply absent here;
        the locked walks are what quarantine torn files.
        """
        try:
            payload = json.loads(iolayer.read_text(path, root=self.root))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _update(
        self, job_id: str, mutate: Callable[[dict | None], dict | None]
    ) -> dict | None:
        """The one locked read-mutate-write of a single record.

        ``mutate`` gets the record under whichever name it has (None when
        it has none, or its torn bytes were just quarantined) and returns
        the record to write, or None to leave it untouched (a failed
        compare-and-swap).  A record that exists but cannot be read is
        left alone without calling ``mutate``.  The write is a
        :meth:`_store_locked` transition; returns whatever ``mutate``
        returned, or None when the transition did not land — a created
        record is checked under its names after the write, as a revive's
        rename is, so a lost write is never reported as a new job.
        """
        shard = shards.shard_dir(self.root, job_id)
        with shards.shard_lock(shard):
            name = _record_name(shard, job_id)
            record = None if name is None else self._read_record_locked(shard, name)
            if record is None and name is not None:
                if (shard / name).exists():
                    return None  # unreadable is not torn: left for a later pass
                name = None  # torn, and now quarantined
            updated = mutate(record)
            if updated is None or not self._store_locked(
                shard, name or _job_file_name(job_id), updated
            ):
                return None
            if name is None and _record_name(shard, job_id) is None:
                return None  # the new record's write was lost: the job has none
            return updated

    def _store_locked(self, shard: Path, name: str, record: dict) -> bool:
        """Write one transition of the record at ``name``, in rule order.

        A name may show a terminal record as live, never a live record as
        terminal — the one drift that would hide work from claims.  So a
        revive renames the record to its live name before it writes (and
        fails if either step fails), and a retire writes the terminal
        record at its live name before it renames it
        (:meth:`_settle_locked`).  Every other transition is one in-place
        write.  False when a revive's rename was lost: the record is still
        terminal where it was, and writing the live name would give the
        job a second record.
        """
        if _name_state(name) not in (None, record["state"]):
            live = _state_name(name, None)
            iolayer.replace(shard / name, shard / live, root=self.root)
            if (shard / name).exists():
                return False
            name = live
        shards.write_entry_locked(shard, name, jsonsafe.dumps(record, sort_keys=True))
        self._settle_locked(shard, name, record)
        return True

    def _settle_locked(self, shard: Path, name: str, record: dict) -> None:
        """Rename a record to the name of its own state: count a failure, never raise.

        The second step of a retire; a retire whose rename failed is
        finished by the next claim or sweep that reads the record.
        """
        target = _state_name(name, record["state"])
        if target == name:
            return
        try:
            iolayer.replace(shard / name, shard / target, root=self.root)
        except StoreDegraded:  # repro: allow[exceptions/swallow] the seam counted every failed attempt
            pass
        except OSError:
            iolayer.record_io_error(self.root)

    def _read_record_locked(self, shard: Path, name: str) -> dict | None:
        """Load one record under the held shard lock; quarantine torn files.

        None when the record is missing, unreadable, or torn — it is not
        UTF-8 JSON or has another schema version — which moves its bytes
        to ``_quarantine/``.
        """
        try:
            payload = json.loads(iolayer.read_text(shard / name, root=self.root))
        except OSError:
            # Missing, or unreadable — and unreadable is not torn: leave
            # the record for a later pass rather than destroying a lease
            # on a flaky disk's evidence.
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = None
        if not isinstance(payload, dict) or payload.get("schema_version") != QUEUE_SCHEMA_VERSION:
            shards.quarantine_entry_locked(self.root, shard, name)
            with self._state:
                self.corrupt_records += 1
            return None
        return payload

    @staticmethod
    def _log_transition(record: dict, state: str, detail: str, now: float) -> None:
        history = record.setdefault("history", [])
        history.append({"state": state, "detail": detail, "at": now, "attempt": record["attempts"]})
        del history[:-HISTORY_LIMIT]
