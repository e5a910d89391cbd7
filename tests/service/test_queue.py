"""Lease-semantics tests for the on-disk job queue.

The crash-safety contract, pinned without any real sleeping: an
injectable clock drives lease expiry, so every transition — claim,
heartbeat extension, expiry-requeue with backoff, nonce fencing,
max-attempts dead-lettering, dead-letter requeue — is exercised
deterministically.  Real crash/kill behaviour is covered by
``tests/service/test_worker.py`` and the ``faults`` differential check.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.data import ScenarioMatrix
from repro.runtime import iolayer, shards
from repro.runtime.iolayer import RETRY_ATTEMPTS, FsFaultEvent, FsFaultPlan
from repro.service import (
    JOB_STATES,
    JobQueue,
    ServiceError,
    SweepRequest,
    UnitJob,
    decompose,
    job_digest,
)
from repro.service.queue import job_to_dict

MATRIX = ScenarioMatrix(
    name="q",
    compositions=(("loiter",), ("crossing",)),
    regimes=("day",),
    seeds=(3,),
    frame_budgets=(16,),
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def scenarios():
    return MATRIX.scenarios()


@pytest.fixture(scope="module")
def jobs(scenarios):
    request = SweepRequest(
        policies=("marlin-tiny", "single:yolov7-tiny@gpu"), scenarios=tuple(scenarios)
    )
    return decompose(request)


def make_queue(tmp_path, clock, **kwargs):
    kwargs.setdefault("lease_duration", 10.0)
    kwargs.setdefault("max_attempts", 3)
    return JobQueue(tmp_path / "queue", clock=clock, **kwargs)


def quarantined(queue) -> list[str]:
    """The bytes of every file in the queue's quarantine, as text."""
    return [path.read_text(encoding="utf-8")
            for path in sorted((queue.root / shards.QUARANTINE_DIR).glob("*"))]


class TestEnqueue:
    def test_enqueue_is_idempotent(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        assert queue.enqueue(jobs[0]) is True
        assert queue.enqueue(jobs[0]) is False
        assert queue.enqueue_all(jobs) == len(jobs) - 1
        assert queue.counts()["pending"] == len(jobs)

    def test_done_jobs_stay_done_across_reenqueue(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        lease = queue.claim("w0")
        assert queue.complete(lease)
        assert queue.enqueue(jobs[0]) is False
        assert queue.counts()["done"] == 1
        assert queue.claim("w0") is None

    def test_unreadable_record_is_replaced_on_enqueue(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_text('{"torn', encoding="utf-8")
        assert queue.enqueue(jobs[0]) is True
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["state"] == "pending"
        assert quarantined(queue) == ['{"torn']  # the torn bytes stay inspectable
        assert queue.corrupt_records == 1

    def test_a_record_that_cannot_be_read_is_left_alone(self, tmp_path, jobs):
        # Unavailable is not missing: re-offering a done job while its
        # record cannot be read must not reset it to pending (a leased
        # one would be handed to a second owner the same way).
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        assert queue.complete(queue.claim("w0"))
        eio = FsFaultPlan(events=(FsFaultEvent(
            op="read", index=0, kind="eio", count=RETRY_ATTEMPTS, match="job-*"),))
        with iolayer.fault_plan(eio):
            assert queue.enqueue(jobs[0]) is False
        assert queue.io_errors >= RETRY_ATTEMPTS
        assert queue.counts() == {"pending": 0, "leased": 0, "done": 1, "dead": 0, "total": 1}
        [record] = queue.records()
        assert record["attempts"] == 1 and record["history"]

    def test_a_lost_record_write_is_not_a_new_job(self, tmp_path, jobs):
        # The rename that publishes a new record is lost: the job has no
        # record, so enqueue must not report it added, and the next
        # enqueue writes it.
        queue = make_queue(tmp_path, FakeClock())
        lost = FsFaultPlan(events=(FsFaultEvent(
            op="replace", index=0, kind="lost_rename", match="job-*"),))
        with iolayer.fault_plan(lost):
            assert queue.enqueue(jobs[0]) is False
        assert queue.counts()["total"] == 0
        assert not list(queue.root.rglob("job-*.json"))
        assert queue.enqueue(jobs[0]) is True
        assert queue.counts()["pending"] == 1

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            JobQueue(tmp_path / "q1", lease_duration=0)
        with pytest.raises(ServiceError):
            JobQueue(tmp_path / "q2", max_attempts=0)
        with pytest.raises(ServiceError):
            JobQueue(tmp_path / "q3", backoff_base=2.0, backoff_cap=1.0)


class TestLeases:
    def test_claim_grants_exclusive_lease(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        lease = queue.claim("w0")
        assert lease is not None
        assert lease.owner == "w0"
        assert lease.deadline == clock.now + queue.lease_duration
        assert lease.attempt == 1
        assert lease.job_id == job_digest(jobs[0].policy_spec, jobs[0].key[1])
        # The scenario rides inside the lease, rebuilt from the record.
        assert lease.scenario.fingerprint() == jobs[0].scenario.fingerprint()
        assert queue.claim("w1") is None  # nothing else to claim

    def test_heartbeat_extends_an_owned_lease(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        lease = queue.claim("w0")
        clock.advance(8.0)
        new_deadline = queue.heartbeat(lease)
        assert new_deadline == clock.now + queue.lease_duration
        # Without the heartbeat the lease would now be expired:
        clock.advance(4.0)
        assert queue.claim("w1") is None
        assert queue.complete(lease)

    def test_expired_lease_requeues_with_backoff(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        first = queue.claim("w0")
        clock.advance(queue.lease_duration + 0.001)
        # Not immediately reclaimable: the retry backs off first.
        delay = queue.backoff_delay(first.job_id, first.attempt)
        assert queue.claim("w1") is None
        assert queue.leases_expired == 1
        clock.advance(delay + 0.001)
        second = queue.claim("w1")
        assert second is not None
        assert second.owner == "w1"
        assert second.attempt == 2
        assert second.nonce != first.nonce

    def test_stale_owner_is_fenced_after_regrant(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue(jobs[0])
        stale = queue.claim("w0")
        clock.advance(queue.lease_duration + 0.001)
        fresh = queue.claim("w1")
        assert fresh is not None
        # The zombie's writes must all bounce off the new nonce.
        assert queue.heartbeat(stale) is None
        assert queue.complete(stale) is False
        assert queue.fail(stale, "zombie error") is False
        assert queue.leases_lost == 3
        assert queue.complete(fresh) is True
        assert queue.counts()["done"] == 1

    def test_fail_requeues_then_dead_letters_at_max_attempts(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue(jobs[0])
        for attempt in range(1, queue.max_attempts + 1):
            lease = queue.claim("w0")
            assert lease is not None and lease.attempt == attempt
            assert queue.fail(lease, f"boom {attempt}")
        assert queue.counts()["dead"] == 1
        assert queue.claim("w0") is None
        [record] = [r for r in queue.records() if r["state"] == "dead"]
        assert "boom" in record["error"]
        assert [h["state"] for h in record["history"]].count("pending") >= 2

    def test_requeue_dead_resets_attempts(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, max_attempts=1)
        queue.enqueue(jobs[0])
        queue.fail(queue.claim("w0"), "boom")
        assert queue.counts()["dead"] == 1
        assert queue.requeue_dead() == 1
        lease = queue.claim("w0")
        assert lease is not None and lease.attempt == 1
        assert queue.complete(lease)

    def test_expire_overdue_sweeps_without_claiming(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue_all(jobs)
        queue.claim("w0")
        queue.claim("w0")
        clock.advance(queue.lease_duration + 0.001)
        assert queue.expire_overdue() == 2
        assert queue.counts()["leased"] == 0

    def test_corrupt_record_is_quarantined_not_served(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_text("not json at all", encoding="utf-8")
        assert queue.claim("w0") is None
        assert queue.corrupt_records == 1
        assert not path.exists()  # moved aside, not served, not looping
        assert quarantined(queue) == ["not json at all"]
        _, problems = queue.audit()
        assert problems == []

    def test_a_record_that_is_not_utf8_is_quarantined(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_bytes(b"\xff\xfe torn")
        assert queue.counts()["total"] == 0  # skipped, not a crash
        [problem] = queue.audit()[1]
        assert f"{path.name}: unparseable" in problem
        assert queue.claim("w0") is None and queue.corrupt_records == 1
        assert not path.exists()
        # Scrub quarantines the same bytes, next to the first copy.
        assert queue.enqueue(jobs[0]) is True
        path.write_bytes(b"\xff\xfe torn")
        assert queue.scrub().quarantined == 1
        assert [p.read_bytes() for p in (queue.root / shards.QUARANTINE_DIR).iterdir()] == [
            b"\xff\xfe torn"] * 2

    def test_a_record_that_is_not_an_object_is_quarantined_by_scrub(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_text("[]", encoding="utf-8")
        [problem] = queue.audit()[1]
        assert f"{path.name}: not a JSON object" in problem
        assert path.exists()  # audit moves nothing
        assert queue.scrub().quarantined == 1
        assert not path.exists() and quarantined(queue) == ["[]"]
        assert queue.enqueue(jobs[0]) is True
        assert queue.audit()[1] == []

    def test_every_torn_copy_of_a_record_is_kept(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_text("first tear", encoding="utf-8")
        assert queue.claim("w0") is None  # quarantined by the claim
        assert queue.enqueue(jobs[0]) is True
        path.write_text("second tear", encoding="utf-8")
        assert queue.scrub().quarantined == 1
        assert queue.enqueue(jobs[0]) is True
        path.write_text("third tear", encoding="utf-8")
        assert queue.claim("w0") is None
        names = sorted(p.name for p in (queue.root / shards.QUARANTINE_DIR).iterdir())
        first = f"{path.parent.name}-{path.name}"
        assert names == [first, f"{first}.1", f"{first}.2"]
        assert quarantined(queue) == ["first tear", "second tear", "third tear"]


class TestBackoff:
    def test_backoff_is_deterministic_per_seed(self, tmp_path):
        # The seed is the job id: two queues agree job by job, and two
        # jobs jitter apart.
        clock = FakeClock()
        a = JobQueue(tmp_path / "a", clock=clock)
        b = JobQueue(tmp_path / "b", clock=clock)
        delays_a = [a.backoff_delay("job", n) for n in range(1, 6)]
        delays_b = [b.backoff_delay("job", n) for n in range(1, 6)]
        delays_c = [a.backoff_delay("other-job", n) for n in range(1, 6)]
        assert delays_a == delays_b
        assert delays_a != delays_c

    @given(attempt=st.integers(min_value=1, max_value=12),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_backoff_bounded_by_cap_and_grows_from_base(self, attempt, seed):
        queue = JobQueue.__new__(JobQueue)  # no disk needed for the formula
        queue.backoff_base = 0.25
        queue.backoff_cap = 8.0
        delay = JobQueue.backoff_delay(queue, f"job-{seed}", attempt)
        ceiling = min(8.0, 0.25 * 2 ** (attempt - 1))
        assert 0.5 * ceiling <= delay <= ceiling


class TestConcurrency:
    def test_parallel_claims_never_double_grant(self, tmp_path, jobs):
        import threading

        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue_all(jobs)
        grants: list = []
        lock = threading.Lock()

        def worker(name: str) -> None:
            while True:
                lease = queue.claim(name)
                if lease is None:
                    return
                with lock:
                    grants.append(lease.job_id)
                queue.complete(lease)

        threads = [threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(grants) == sorted(
            job_digest(j.policy_spec, j.key[1]) for j in jobs
        )
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)


class TestClockDiscipline:
    """Wall-clock skew must never falsely expire or silently extend leases."""

    def test_backward_step_is_clamped_and_counted(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        lease = queue.claim("w0")
        clock.advance(5.0)
        assert queue.heartbeat(lease) is not None
        clock.advance(-60.0)  # NTP steps the wall clock backwards
        # The queue's readings never decrease: the healthy lease is not
        # reclaimable by a rival, and the anomaly is counted.
        assert queue.claim("w1") is None
        assert queue.clock_skew_events == 1
        assert queue.stats()["clock_skew_events"] == 1
        # Progress still works on the clamped clock.
        assert queue.complete(lease) is True

    def test_backward_step_does_not_stretch_expiry(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue(jobs[0])
        first = queue.claim("w0")
        clock.advance(-30.0)
        assert queue.claim("w1") is None  # clamp: no time passed
        skews = queue.clock_skew_events
        # The clock recovers past the original deadline (in steps small
        # enough not to look like fresh skew): the lease expires exactly
        # as if the backward step never happened — clamping is not a
        # lease extension.
        clock.advance(30.0)
        clock.advance(6.0)
        assert queue.claim("w1") is None
        clock.advance(6.0)
        second = queue.claim("w1")
        assert second is not None
        assert second.attempt == first.attempt + 1
        assert queue.clock_skew_events == skews

    def test_forward_jump_is_counted_but_still_expires(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue(jobs[0])
        queue.claim("w0")
        clock.advance(3600.0)  # suspend/resume-sized jump
        # A genuinely overdue lease must still migrate — the clamp only
        # guards the backwards direction — but the jump is observable.
        second = queue.claim("w1")
        assert second is not None
        assert queue.leases_expired == 1
        assert queue.clock_skew_events == 1


class TestRelease:
    """Graceful shutdown returns jobs without burning retry budget."""

    def test_release_refunds_attempt_and_repends_immediately(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        lease = queue.claim("w0")
        assert lease.attempt == 1
        assert queue.release(lease) is True
        assert queue.jobs_released == 1
        # No backoff and a refunded attempt: a surviving worker claims it
        # in the same clock instant, with the full retry budget intact.
        again = queue.claim("w1")
        assert again is not None
        assert again.attempt == 1

    def test_stale_release_is_fenced(self, tmp_path, jobs):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue(jobs[0])
        stale = queue.claim("w0")
        clock.advance(queue.lease_duration + 0.001)
        fresh = queue.claim("w1")
        assert fresh is not None
        # A zombie releasing a lease it already lost must not yank the
        # job out from under the new owner.
        assert queue.release(stale) is False
        assert queue.leases_lost == 1
        assert queue.complete(fresh) is True
        assert queue.counts()["done"] == 1

    def test_release_owned_sweeps_the_claim_window(self, tmp_path, jobs):
        # A termination signal can land *inside* claim(): the grant is
        # durable on disk but the caller never got the Lease object, so
        # release(lease) is impossible.  release_owned(owner) is the
        # shutdown sweep that closes the gap — fenced per record, so the
        # other worker's healthy lease is untouched.
        clock = FakeClock()
        queue = make_queue(tmp_path, clock)
        queue.enqueue_all(jobs)
        assert queue.claim("w0") is not None  # lease object "lost"
        assert queue.claim("w1") is not None
        assert queue.release_owned("w0") == 1
        assert queue.release_owned("w0") == 0  # idempotent
        assert queue.jobs_released == 1
        counts = queue.counts()
        assert counts["leased"] == 1 and counts["pending"] == len(jobs) - 1
        # The swept job kept its full retry budget.
        again = queue.claim("w2")
        assert again is not None and again.attempt == 1


# ------------------------------------------------------------ claim index


class Killed(BaseException):
    """A process death between the two steps of one transition."""


def settled_name(record: dict) -> str:
    """The file name a record has once its transition finished: its state's."""
    shown = f".{record['state']}" if record["state"] in ("done", "dead") else ""
    return f"job-v1-{record['job_id'][:32]}{shown}.json"


def names_show_states(queue) -> bool:
    """Every record sits at the name of its own state."""
    return all(
        path.name == settled_name(json.loads(path.read_text(encoding="utf-8")))
        for path in shards.iter_entry_paths(queue.root, "job-*.json")
    )


def scanned_counts(queue) -> dict[str, int]:
    """What ``counts()`` must equal: a full scan of the records themselves."""
    records = list(queue.records())
    tally = {state: sum(r["state"] == state for r in records) for state in JOB_STATES}
    tally["total"] = len(records)
    return tally


def drain(queue, clock, owner="drainer"):
    """Claim and complete until drained, stepping past leases held by the dead."""
    for _ in range(50):
        lease = queue.claim(owner)
        if lease is not None:
            assert queue.complete(lease)
        elif queue.drained():
            return
        else:
            clock.advance(queue.lease_duration + 1.0)
    raise AssertionError(f"queue never drained: {queue.counts()}")


def _queued(queue, clock, job):
    queue.enqueue(job)


def _leased(queue, clock, job):
    queue.enqueue(job)
    return queue.claim("w0")


def _aging(queue, clock, job):
    lease = _leased(queue, clock, job)
    clock.advance(1.0)
    return lease


def _last_attempt(queue, clock, job):
    """A lease on the job's last attempt: failing or expiring dead-letters it."""
    queue.enqueue(job)
    for _ in range(queue.max_attempts - 1):
        queue.fail(queue.claim("w0"), "boom")
    return queue.claim("w0")


def _overdue(queue, clock, job):
    lease = _last_attempt(queue, clock, job)
    clock.advance(queue.lease_duration + 1.0)
    return lease


def _dead(queue, clock, job):
    queue.enqueue(job)
    for _ in range(queue.max_attempts):
        queue.fail(queue.claim("w0"), "boom")


def _done(queue, clock, job):
    queue.complete(_leased(queue, clock, job))


# name -> (set-up returning the lease, if any; the transition itself).
TRANSITIONS = {
    "enqueue": (lambda *_: None, lambda queue, job, lease: queue.enqueue(job)),
    "claim": (_queued, lambda queue, job, lease: queue.claim("w0")),
    "heartbeat": (_aging, lambda queue, job, lease: queue.heartbeat(lease)),
    "complete": (_leased, lambda queue, job, lease: queue.complete(lease)),
    "fail": (_last_attempt, lambda queue, job, lease: queue.fail(lease, "boom")),
    "release": (_leased, lambda queue, job, lease: queue.release(lease)),
    "expiry": (_overdue, lambda queue, job, lease: queue.expire_overdue()),
    "requeue_dead": (_dead, lambda queue, job, lease: queue.requeue_dead()),
    "release_owned": (_leased, lambda queue, job, lease: queue.release_owned("w0")),
    "repend": (_done, lambda queue, job, lease: queue.repend(job_digest(*job.key))),
}

#: Transitions that retire a live record: write it, then rename it terminal.
RETIRES = {"complete", "fail", "expiry"}
#: Transitions that revive a terminal record: rename it live, then write it.
REVIVALS = {"requeue_dead", "repend"}


def index_queue(tmp_path, clock):
    return make_queue(tmp_path, clock, backoff_base=0.0, backoff_cap=0.0)


def write_parent_layout(root, jobs, clock) -> dict[str, str]:
    """A queue as a claim index of shard ``index.json`` files left it.

    Every record sits at its live name whatever its state, and one shard
    keeps a stray ``index.json``.  Returns state -> job id.
    """
    ids = {}
    for job, state in zip(jobs, ("done", "dead", "pending", "leased"), strict=True):
        record = job_to_dict(job, 1234, 3)
        record["state"] = state
        if state != "pending":
            record["attempts"] = 1
        if state == "leased":
            record["lease"] = {"owner": "gone", "nonce": "00", "granted_at": clock.now,
                               "deadline": clock.now + 5.0}
        shard = root / record["job_id"][:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"job-v1-{record['job_id'][:32]}.json").write_text(
            json.dumps(record), encoding="utf-8")
        ids[state] = record["job_id"]
    stray = sorted(root.iterdir())[0] / "index.json"
    stray.write_text(json.dumps({"schema_version": 1, "entries": {}}), encoding="utf-8")
    return ids


class TestClaimIndex:
    """A shard's file names are its claim index: a terminal name is the
    record's state, and no name shows a live record as terminal."""

    @pytest.mark.parametrize("transition", sorted(TRANSITIONS))
    def test_index_meta_equals_the_record_after_each_transition(
        self, tmp_path, jobs, transition
    ):
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        setup, act = TRANSITIONS[transition]
        act(queue, jobs[0], setup(queue, clock, jobs[0]))
        assert names_show_states(queue)
        queue.enqueue_all(jobs)
        assert names_show_states(queue)

    @pytest.mark.parametrize("transition", sorted(TRANSITIONS))
    def test_kill_between_the_two_writes_loses_no_job(
        self, tmp_path, jobs, monkeypatch, transition
    ):
        # A retire is killed with the terminal record written at its live
        # name; a revive with the record renamed live but not yet
        # rewritten.  Every other transition is one in-place write, which
        # leaves no window to kill.
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        setup, act = TRANSITIONS[transition]
        lease = setup(queue, clock, jobs[0])
        steps: list[str] = []

        def step(kind, real):
            def run(*args, **kwargs):
                if steps:
                    raise Killed(kind)
                steps.append(kind)
                return real(*args, **kwargs)
            return run

        with monkeypatch.context() as patch:
            patch.setattr(iolayer, "write_text", step("write", iolayer.write_text))
            patch.setattr(iolayer, "replace", step("rename", iolayer.replace))
            try:
                act(queue, jobs[0], lease)
            except Killed as killed:
                steps.append(f"killed before the {killed.args[0]}")
        assert steps == (
            ["write", "killed before the rename"] if transition in RETIRES
            else ["rename", "killed before the write"] if transition in REVIVALS
            else ["write"]
        )

        survivor = index_queue(tmp_path, clock)  # a fresh process on the same root
        assert survivor.counts() == scanned_counts(survivor)
        assert survivor.audit()[1] == []
        if transition in REVIVALS:
            # The rename landed and the write did not: the job is still
            # terminal, and running the revive again completes it.
            assert survivor.drained()
            act(survivor, jobs[0], lease)
            assert not survivor.drained()
        survivor.enqueue_all(jobs)
        drain(survivor, clock)
        counts = survivor.counts()
        assert counts == scanned_counts(survivor)
        dead_lettered = 1 if transition in ("fail", "expiry") else 0
        assert counts["dead"] == dead_lettered
        assert counts["done"] == counts["total"] - dead_lettered == len(jobs) - dead_lettered
        # The drain's last claim read every live name: no rename is left to finish.
        assert names_show_states(survivor)
        assert survivor.audit()[1] == []

    @pytest.mark.parametrize("depth", [32, 512])
    def test_claim_reads_do_not_grow_with_depth(self, tmp_path, monkeypatch, scenarios, depth):
        queue = JobQueue(tmp_path / "queue")
        queue.enqueue_all([UnitJob(f"single:m{n}@gpu", scenarios[0]) for n in range(depth)])
        reads = [0]

        def counted(read):
            def wrapper(*args, **kwargs):
                reads[0] += 1
                return read(*args, **kwargs)
            return wrapper

        claims = 0
        while True:
            with monkeypatch.context() as patch:
                patch.setattr(iolayer, "read_text", counted(iolayer.read_text))
                patch.setattr(iolayer, "read_bytes", counted(iolayer.read_bytes))
                lease = queue.claim("w0")
            if lease is None:
                break
            claims += 1
            queue.complete(lease)
        assert claims == depth
        assert reads[0] / claims <= 2, f"{reads[0]} reads for {claims} claims"

    def test_shards_are_relisted_only_after_a_fruitless_ring(
        self, tmp_path, monkeypatch, jobs
    ):
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        first, *rest = jobs
        queue.enqueue(first)
        listings = []
        real = shards.shard_dirs
        monkeypatch.setattr(shards, "shard_dirs", lambda root: listings.append(root) or real(root))
        queue.complete(queue.claim("w0"))
        assert len(listings) == 1
        # Jobs land in shards the cached ring has never seen: the next
        # walk ends a full ring without a grant, re-lists, and finds them.
        queue.enqueue_all(rest)
        granted = []
        while (lease := queue.claim("w0")) is not None:
            granted.append(lease.job_id)
            queue.complete(lease)
        assert sorted(granted) == sorted(job_digest(j.policy_spec, j.key[1]) for j in rest)
        assert len(listings) == 3  # the walk that found them, and the final empty one

    def test_audit_reports_a_live_record_hidden_as_terminal(self, tmp_path, jobs):
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.rename(path.with_name(path.name.replace(".json", ".done.json")))
        # The one drift that hides work: claims trust the terminal name.
        assert queue.claim("w0") is None
        assert queue.counts()["done"] == 1
        _, problems = queue.audit()
        assert len(problems) == 1 and "shows done but the record is pending" in problems[0]
        # Scrub quarantines the record, and re-offering the job restores it.
        assert queue.scrub().quarantined == 1
        assert queue.enqueue(jobs[0]) is True
        assert queue.audit()[1] == []
        assert queue.claim("w0") is not None

    def test_dead_letters_read_only_what_the_index_marks_dead(
        self, tmp_path, jobs, monkeypatch
    ):
        clock = FakeClock()
        queue = make_queue(tmp_path, clock, max_attempts=1)
        queue.enqueue_all(jobs)
        queue.fail(queue.claim("w0"), "boom")
        queue.complete(queue.claim("w0"))
        [dead] = [r for r in queue.records() if r["state"] == "dead"]
        read = []
        real = iolayer.read_text
        monkeypatch.setattr(
            iolayer, "read_text", lambda path, **kw: read.append(path.name) or real(path, **kw)
        )
        assert [r["job_id"] for r in queue.dead_letters()] == [dead["job_id"]]
        assert read == [settled_name(dead)]

    def test_a_queue_with_only_live_names_drains_without_migration(
        self, tmp_path, jobs, monkeypatch
    ):
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        ids = write_parent_layout(queue.root, jobs, clock)
        expected = {"pending": 1, "leased": 1, "done": 1, "dead": 1, "total": 4}
        assert queue.counts() == scanned_counts(queue) == expected
        read = []
        with monkeypatch.context() as patch:
            for name in ("read_text", "read_bytes"):
                real = getattr(iolayer, name)
                patch.setattr(iolayer, name, lambda path, _real=real, **kw: (
                    read.append(path.name) or _real(path, **kw)))
            assert queue.audit() == (4, [])
            scrub = queue.scrub()
        assert scrub.problems == [] and scrub.quarantined == 0
        assert len(read) == 8 and "index.json" not in read

        first = queue.claim("w0")
        assert first is not None and first.job_id == ids["pending"]
        # A full ring: the lease is not due, and done and dead are never
        # granted; reading them gave them their terminal names.
        assert queue.claim("w0") is None
        assert queue.counts() == {**expected, "pending": 0, "leased": 2}
        assert names_show_states(queue)
        assert [r["job_id"] for r in queue.dead_letters()] == [ids["dead"]]
        clock.advance(6.0)  # past the stray lease's deadline, not past first's
        second = queue.claim("w1")
        assert second is not None and second.job_id == ids["leased"] and second.attempt == 2
        assert queue.complete(first) and queue.complete(second)
        assert queue.drained() and queue.counts()["done"] == 3
        assert names_show_states(queue)
        assert queue.audit() == (4, [])

    def test_expire_overdue_gives_a_terminal_record_its_terminal_name(self, tmp_path, jobs):
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        ids = write_parent_layout(queue.root, jobs, clock)
        assert queue.dead_letters() == []  # named live: not yet a dead letter by name
        assert queue.expire_overdue() == 0
        assert [r["job_id"] for r in queue.dead_letters()] == [ids["dead"]]
        names = sorted(path.name for path in shards.iter_entry_paths(queue.root, "job-*.json"))
        assert sum(name.endswith((".done.json", ".dead.json")) for name in names) == 2

    @pytest.mark.parametrize("transition", sorted(RETIRES))
    def test_a_lost_retire_rename_leaves_the_record_live_named(
        self, tmp_path, jobs, transition
    ):
        # The retire's rename is lost: the terminal record stays at its
        # live name (as a lost write keeps the old file), and the next
        # sweep gives it its terminal name.
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        setup, act = TRANSITIONS[transition]
        lease = setup(queue, clock, jobs[0])
        lost = FsFaultPlan(events=(FsFaultEvent(
            op="replace", index=0, kind="lost_rename", match="job-*.*.json"),))
        with iolayer.fault_plan(lost):
            assert act(queue, jobs[0], lease)
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        record = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == settled_name({**record, "state": "pending"})
        assert record["state"] == ("done" if transition == "complete" else "dead")
        assert queue.counts() == scanned_counts(queue)
        assert queue.counts()["total"] == 1 and queue.drained()
        queue.expire_overdue()
        assert names_show_states(queue)
        assert queue.audit() == (1, [])

    @pytest.mark.parametrize("transition", sorted(REVIVALS))
    def test_a_lost_revive_rename_leaves_the_job_terminal(self, tmp_path, jobs, transition):
        # Writing the live name after a lost rename would give the job a
        # second record: the revive reports that it did not happen.
        clock = FakeClock()
        queue = index_queue(tmp_path, clock)
        setup, act = TRANSITIONS[transition]
        lease = setup(queue, clock, jobs[0])
        lost = FsFaultPlan(events=(FsFaultEvent(
            op="replace", index=0, kind="lost_rename", match="job-*"),))
        with iolayer.fault_plan(lost):
            assert not act(queue, jobs[0], lease)
        assert len(list(shards.iter_entry_paths(queue.root, "job-*.json"))) == 1
        assert queue.counts() == scanned_counts(queue)
        assert queue.drained() and names_show_states(queue)
        assert act(queue, jobs[0], lease)  # running it again completes it
        assert not queue.drained()
        assert queue.counts() == scanned_counts(queue)
        assert queue.counts()["total"] == 1

    def test_a_lost_quarantine_move_keeps_the_torn_bytes(self, tmp_path, jobs):
        queue = make_queue(tmp_path, FakeClock())
        queue.enqueue(jobs[0])
        [path] = list(shards.iter_entry_paths(queue.root, "job-*.json"))
        path.write_text("torn", encoding="utf-8")
        lost = FsFaultPlan(events=(FsFaultEvent(
            op="replace", index=0, kind="lost_rename", match="*-job-*"),))
        with iolayer.fault_plan(lost):
            assert queue.claim("w0") is None
        assert path.read_text(encoding="utf-8") == "torn"  # where it was
        assert queue.scrub().quarantined == 1  # the next pass moves it
        assert quarantined(queue) == ["torn"]
