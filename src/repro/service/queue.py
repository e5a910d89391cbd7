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
Every claim sweep first expires overdue leases it walks past, so a
SIGKILLed worker's jobs migrate to the survivors no later than the next
claim after the deadline.  The nonce fences stale owners: a worker that
stalls past its deadline and then tries to complete loses the
compare-and-swap (its nonce is gone) and its late commit is ignored at
the queue layer.

**At-most-once in effect.**  The queue itself guarantees only
at-*least*-once execution — a lease can expire while the worker is still
alive and slow.  Exactly-once *effects* come from the layer below: runs
commit through :meth:`~repro.runtime.runstore.RunStore.commit`, which is
idempotent because run content is a pure function of the run key.  A
re-executed job re-derives bit-identical bytes and the second commit is
a no-op, so duplicate execution is invisible in the results.

**Determinism.**  Retry backoff is seeded per ``(queue seed, job,
attempt)`` — the schedule is reproducible run to run — and nothing about
claim order, worker count, or crash timing is an input to any run, so a
drained queue's run store is field-for-field identical to a serial
:meth:`~repro.runtime.experiment.ExperimentRunner.sweep`.  The ``faults``
differential check and CI's ``fault-smoke`` job both enforce this.
"""

from __future__ import annotations

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

#: Most recent transitions kept per record (oldest dropped first).
HISTORY_LIMIT = 20


def job_digest(policy_spec: str, scenario_fingerprint: str) -> str:
    """Content address of one unit job (the queue's dedup key, hex)."""
    return hashlib.sha256(
        f"{policy_spec}|{scenario_fingerprint}".encode()
    ).hexdigest()


def _job_file_name(digest: str) -> str:
    return f"job-v{QUEUE_SCHEMA_VERSION}-{digest[:32]}.json"


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


def job_index_meta(record: dict) -> dict:
    """The identity block a shard index records for one job entry."""
    return {
        "job_id": record.get("job_id"),
        "policy_spec": record.get("policy_spec"),
        "scenario_name": record.get("scenario_name"),
        "scenario_fingerprint": record.get("scenario_fingerprint"),
        "state": record.get("state"),
    }


def _digest_from_name(name: str) -> str | None:
    """The shard digest encoded in a job record file name, or None."""
    parts = name[: -len(".json")].split("-") if name.endswith(".json") else []
    return parts[2] if len(parts) == 3 and len(parts[2]) == 32 else None


def _scrub_problem(name: str, record: dict) -> str | None:
    """Why a parsed job record is unsound, or None when it checks out.

    Recomputes the job digest from the identity block — a record whose
    spec/fingerprint was torn into another record's slot cannot pass —
    and requires a known state plus an executable scenario block.
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
    if _job_file_name(digest) != name:
        return "file name does not match recomputed digest"
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


class JobQueue(maintenance.MaintainedRoot):
    """A sharded on-disk queue of unit jobs with lease/heartbeat semantics.

    All records live under ``root/<2-hex>/job-v1-<digest32>.json`` — the
    same shard/lock/atomic-write discipline as the trace and run stores
    (:mod:`repro.runtime.shards`), so any number of processes can enqueue,
    claim, and complete concurrently; audit, health, scrub, gc, and
    repair come from :class:`~repro.runtime.maintenance.MaintainedRoot`.
    ``lease_duration`` is the crash detection horizon; ``max_attempts``
    bounds retries before a job is dead-lettered; backoff between retries
    is ``min(cap, base * 2**(n-1))`` scaled by seeded jitter in
    ``[0.5, 1.0]`` — deterministic per ``(backoff_seed, job, attempt)``.
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
    _digest_from_name = staticmethod(_digest_from_name)
    _scrub_problem = staticmethod(_scrub_problem)
    _index_meta = staticmethod(job_index_meta)

    @staticmethod
    def _gc_collect(record: dict) -> bool:
        """GC reclaims dead letters past the TTL, never ``done`` records.

        Dead-lettered jobs are terminal evidence, expired like quarantined
        files; ``done`` records are what makes re-submitting a warm sweep
        free.
        """
        return record.get("state") == "dead"

    def __init__(
        self,
        root: str | Path,
        *,
        lease_duration: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 0.25,
        backoff_cap: float = 8.0,
        backoff_seed: int = 0,
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
        self.backoff_seed = backoff_seed
        self._clock = clock if clock is not None else time.time
        # One mutex for the counter block; enforced by `repro lint`.
        self._state = threading.Lock()  # repro: guards[claims_granted, jobs_completed, jobs_failed, leases_expired, jobs_requeued, jobs_dead, leases_lost, jobs_released, corrupt_records, clock_skew_events, degraded_refusals, _last_reading]
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

        Idempotent: an existing record (whatever its state — a done job
        stays done, which is what makes re-submitting a warm sweep free)
        is left untouched.  An unreadable record is replaced: a torn
        queue file must never wedge its job forever.
        """
        record = job_to_dict(job, engine_seed, self.max_attempts)
        created = False

        def mutate(payload: dict | None) -> dict | None:
            nonlocal created
            if payload is not None:
                return None  # already queued (any state): leave it alone
            created = True
            return record

        shards.update_entry(self.root, record["job_id"], _job_file_name(record["job_id"]), mutate)
        return created

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

        Walks the shards starting at an owner-derived offset (different
        workers scan in different orders, spreading lock contention),
        expiring every overdue lease it passes — crash recovery is a side
        effect of normal claiming, no reaper process needed.  ``None``
        means *right now*: jobs backing off or leased elsewhere may
        become claimable later, so workers poll until :meth:`drained`.

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
        shard_list = shards.shard_dirs(self.root)
        if not shard_list:
            return None
        offset = int(hashlib.sha256(owner.encode("utf-8")).hexdigest()[:8], 16) % len(shard_list)
        for shard in shard_list[offset:] + shard_list[:offset]:
            try:
                with shards.shard_lock(shard):
                    lease = self._claim_in_shard_locked(shard, owner, now)
            except StoreDegraded:
                # The grant write itself hit a full disk: the record on
                # disk is unchanged (atomic replace never landed), so no
                # lease exists and no attempt was burned.
                with self._state:
                    self.degraded_refusals += 1
                return None
            if lease is not None:
                return lease
        return None

    def _claim_in_shard_locked(self, shard: Path, owner: str, now: float) -> Lease | None:
        for path in sorted(shard.glob(self.ENTRY_GLOB)):
            record = self._read_record_locked(shard, path)
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
                self._write_record_locked(shard, path.name, record)
            if grantable:
                with self._state:
                    self.claims_granted += 1
                return Lease(
                    job_id=record["job_id"],
                    policy_spec=record["policy_spec"],
                    scenario=scenario_from_dict(record["scenario"]),
                    scenario_fingerprint=record["scenario_fingerprint"],
                    engine_seed=record["engine_seed"],
                    owner=owner,
                    nonce=record["lease"]["nonce"],
                    deadline=record["lease"]["deadline"],
                    attempt=record["attempts"],
                )
        return None

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
        ``[0.5, 1.0]`` of the raw delay — the same ``(backoff_seed,
        job_id, attempt)`` always yields the same schedule, so fault
        harness replays are reproducible.
        """
        rng = random.Random(f"{self.backoff_seed}|{job_id}|{attempt}")
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

        updated = shards.update_entry(
            self.root, lease.job_id, _job_file_name(lease.job_id), mutate
        )
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

        updated = shards.update_entry(
            self.root, lease.job_id, _job_file_name(lease.job_id), mutate
        )
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

        updated = shards.update_entry(
            self.root, lease.job_id, _job_file_name(lease.job_id), mutate
        )
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

        updated = shards.update_entry(
            self.root, lease.job_id, _job_file_name(lease.job_id), mutate
        )
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
        for record in self.records():
            held = record.get("lease")
            if (
                record.get("state") != "leased"
                or not isinstance(held, dict)
                or held.get("owner") != owner
            ):
                continue
            lease = Lease(
                job_id=record["job_id"],
                policy_spec=record["policy_spec"],
                scenario=scenario_from_dict(record["scenario"]),
                scenario_fingerprint=record["scenario_fingerprint"],
                engine_seed=record["engine_seed"],
                owner=owner,
                nonce=held["nonce"],
                deadline=held["deadline"],
                attempt=record["attempts"],
            )
            if self.release(lease):
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
        budget (the ``audit --repair`` analogue for the queue); count requeued."""
        requeued = 0
        now = self._now()
        for shard in shards.shard_dirs(self.root):
            with shards.shard_lock(shard):
                for path in sorted(shard.glob(self.ENTRY_GLOB)):
                    record = self._read_record_locked(shard, path)
                    if record is None or record["state"] != "dead":
                        continue
                    record["state"] = "pending"
                    record["attempts"] = 0
                    record["not_before"] = 0.0
                    record["lease"] = None
                    record["error"] = None
                    self._log_transition(record, "pending", "dead-letter requeued", now)
                    self._write_record_locked(shard, path.name, record)
                    requeued += 1
        return requeued

    def expire_overdue(self) -> int:
        """Sweep every shard for overdue leases (crash recovery on demand).

        Claiming already does this lazily; this is for supervisors that
        want requeue latency bounded by their own schedule rather than by
        the next claim.  Returns how many leases were expired.
        """
        now = self._now()
        expired = 0
        for shard in shards.shard_dirs(self.root):
            with shards.shard_lock(shard):
                for path in sorted(shard.glob(self.ENTRY_GLOB)):
                    record = self._read_record_locked(shard, path)
                    if record is None:
                        continue
                    if self._tick_locked(record, now):
                        self._write_record_locked(shard, path.name, record)
                        expired += 1
        return expired

    # ----------------------------------------------------------- inspection

    def records(self) -> Iterator[dict]:
        """Every readable job record (no lock: entry writes are atomic)."""
        for path in shards.iter_entry_paths(self.root, self.ENTRY_GLOB):
            try:
                payload = json.loads(iolayer.read_text(path, root=self.root))
            # Lock-free read: a concurrent writer mid-replace is expected,
            # not an error; the entry shows up complete on the next pass.
            except (OSError, json.JSONDecodeError):  # repro: allow[exceptions/swallow]
                continue
            if isinstance(payload, dict):
                yield payload

    def counts(self) -> dict[str, int]:
        """Job counts by state (+ ``total``)."""
        tally = {state: 0 for state in JOB_STATES}
        total = 0
        for record in self.records():
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

    def _read_record_locked(self, shard: Path, path: Path) -> dict | None:
        """Load one record under the held shard lock; quarantine torn files."""
        try:
            payload = json.loads(iolayer.read_text(path, root=self.root))
        except FileNotFoundError:
            return None
        except OSError:
            # Unreadable is not torn: leave the record for a later pass
            # rather than destroying a lease on a flaky disk's evidence.
            return None
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict) or payload.get("schema_version") != QUEUE_SCHEMA_VERSION:
            shards.remove_entry_locked(shard, path.name)
            with self._state:
                self.corrupt_records += 1
            return None
        return payload

    def _write_record_locked(self, shard: Path, name: str, record: dict) -> None:
        shards.write_entry_locked(
            shard, name, jsonsafe.dumps(record, sort_keys=True), job_index_meta(record)
        )

    @staticmethod
    def _log_transition(record: dict, state: str, detail: str, now: float) -> None:
        history = record.setdefault("history", [])
        history.append({"state": state, "detail": detail, "at": now, "attempt": record["attempts"]})
        del history[:-HISTORY_LIMIT]
