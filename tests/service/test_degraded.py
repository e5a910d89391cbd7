"""Degraded-mode behavior across the service tier.

Pure disk pressure must never look like a job failure: a claim whose
grant write hits ENOSPC is refused (no lease, no attempt burned), a
commit that cannot land leaves the record leased for a clean retry or
expiry, and a worker that cannot write releases its lease so the
attempt is refunded — zero dead-letters from a full disk.  Over HTTP
the same states surface as ``507`` on submit, ``503`` + ``"degraded":
true`` from ``/healthz``, and a terminal error line on a cold-miss
stream — while warm hits keep serving, because read-only means
*read*-only.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.data import ScenarioMatrix
from repro.data.scenario import register_scenario, scenario_by_name
from repro.runtime import RunStore, TraceStore
from repro.runtime import iolayer, shards
from repro.runtime.iolayer import (
    RETRY_ATTEMPTS,
    FsFaultEvent,
    FsFaultPlan,
    StoreDegraded,
)
from repro.service import (
    JobQueue,
    QueueBackend,
    QueueWorker,
    SweepFrontend,
    SweepService,
    WorkerHooks,
    serve_in_thread,
)
from repro.service.jobs import UnitJob
from repro.service.http import DEGRADED_RETRY_AFTER

DEGRADED_MATRIX = ScenarioMatrix(
    name="degr",
    compositions=(("loiter",),),
    regimes=("day",),
    seeds=(11,),
    frame_budgets=(16,),
)

POLICY = "single:yolov7-tiny@gpu"


@pytest.fixture(autouse=True)
def _clean_seam():
    """Every test starts and ends with no armed plan and no degraded roots."""
    iolayer.disarm_fault_plan()
    iolayer.reset_state()
    yield
    iolayer.disarm_fault_plan()
    iolayer.reset_state()


@pytest.fixture(scope="module")
def scenarios():
    flights = DEGRADED_MATRIX.scenarios()
    for scenario in flights:
        try:
            scenario_by_name(scenario.name)
        except KeyError:
            register_scenario(scenario)
    return flights


def enospc_everywhere(count: int = 100) -> FsFaultPlan:
    return FsFaultPlan(
        events=(FsFaultEvent(op="write", index=0, kind="enospc", count=count),)
    )


def retire_rename_enospc() -> FsFaultPlan:
    """Every attempt of the next rename onto a done or dead name fails with ENOSPC."""
    return FsFaultPlan(events=(
        FsFaultEvent(op="replace", index=0, kind="enospc", count=RETRY_ATTEMPTS,
                     match="job-*.*.json"),
    ))


def one_job():
    scenario = scenario_by_name("s3_indoor_close_wall").scaled(0.05)
    return [UnitJob(policy_spec=POLICY, scenario=scenario)]


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


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
    return rows, summary


def get_json(base, path, timeout=60.0):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
        return json.load(resp)


# ------------------------------------------------------------- queue tier

class TestQueueUnderDiskPressure:
    def test_enospc_inside_claim_burns_no_attempt(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        queue.enqueue_all(one_job(), engine_seed=1234)

        with iolayer.fault_plan(enospc_everywhere()):
            # The grant write exhausts its retries: refusal, not a lease.
            assert queue.claim("w1") is None
            assert queue.degraded_refusals == 1
            # While degraded the next claim probes and refuses without
            # touching the record.
            assert queue.claim("w1") is None
            assert queue.degraded_refusals == 2

        [record] = queue.records()
        assert record["state"] == "pending"
        assert record["attempts"] == 0
        assert queue.degraded and queue.io_errors >= RETRY_ATTEMPTS

        # Space returned: the claim's probe recovers the root by itself.
        lease = queue.claim("w1")
        assert lease is not None
        assert not queue.degraded
        [record] = queue.records()
        assert record["state"] == "leased" and record["attempts"] == 1

    @pytest.mark.parametrize("transition, state", [
        ("complete", "done"), ("fail", "dead"), ("expiry", "dead"),
    ])
    def test_retire_whose_rename_fails_reports_success(self, tmp_path, transition, state):
        # The terminal record lands at its live name and only the rename
        # exhausts its retries: the transition happened, so it reports
        # success, and the next claim finishes the rename.
        now = [1000.0]
        queue = JobQueue(tmp_path / "q", lease_duration=30.0, max_attempts=1,
                         clock=lambda: now[0])
        queue.enqueue_all(one_job(), engine_seed=1234)
        lease = queue.claim("w1")

        def expire():
            now[0] += 31.0
            return queue.expire_overdue() == 1

        act = {
            "complete": lambda: queue.complete(lease),
            "fail": lambda: queue.fail(lease, "boom"),
            "expiry": expire,
        }[transition]

        with iolayer.fault_plan(retire_rename_enospc()):
            assert act()
        assert queue.leases_lost == 0
        assert queue.io_errors >= RETRY_ATTEMPTS
        [path] = shards.iter_entry_paths(queue.root, "job-*.json")
        [record] = queue.records()
        assert record["state"] == state and not path.name.endswith(f".{state}.json")
        # A live name is only a hint: the counts are the record's.
        assert queue.counts()[state] == 1

        assert queue.claim("w2") is None
        [path] = shards.iter_entry_paths(queue.root, "job-*.json")
        assert path.name.endswith(f".{state}.json")
        assert queue.counts()[state] == 1
        assert not queue.degraded
        assert queue.audit()[1] == []

    def test_enospc_inside_complete_leaves_the_lease_intact(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        queue.enqueue_all(one_job(), engine_seed=1234)
        lease = queue.claim("w1")
        assert lease is not None

        with iolayer.fault_plan(enospc_everywhere()):
            with pytest.raises(StoreDegraded):
                queue.complete(lease)
        # The atomic replace never landed: still leased, retryable.
        [record] = queue.records()
        assert record["state"] == "leased"

        queue.complete(lease)  # disarmed: the probing attempt lands
        assert queue.counts()["done"] == 1
        assert queue.counts()["dead"] == 0
        assert not queue.degraded

    def test_lease_blocked_by_disk_pressure_expires_cleanly(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_duration=0.1, backoff_base=0.0)
        queue.enqueue_all(one_job(), engine_seed=1234)
        lease = queue.claim("w1")
        with iolayer.fault_plan(enospc_everywhere()):
            with pytest.raises(StoreDegraded):
                queue.complete(lease)

        # The worker died degraded; the lease deadline is the healer.
        time.sleep(0.15)
        assert queue.expire_overdue() == 1
        second = queue.claim("w2")
        assert second is not None
        queue.complete(second)
        counts = queue.counts()
        assert counts["done"] == 1 and counts["dead"] == 0


class TestWorkerUnderDiskPressure:
    def test_run_store_enospc_releases_the_lease_and_never_dead_letters(
        self, tmp_path
    ):
        # max_attempts=1 makes the assertion sharp: a single fail() would
        # dead-letter instantly, so dead == 0 proves disk pressure went
        # through release (attempt refunded), never fail.
        queue = JobQueue(tmp_path / "q", lease_duration=30.0, max_attempts=1)
        queue.enqueue_all(one_job(), engine_seed=1234)
        run_store = RunStore(tmp_path / "runs")

        # The first commit exhausts its retries and degrades the run
        # store; the next cycle's single probing attempt still fails; the
        # one after lands, clears the flag, and completes the job.
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="enospc",
                         count=RETRY_ATTEMPTS + 1, match="run-*"),
        ))
        worker = QueueWorker(queue, run_store=run_store, worker_id="w1")
        with iolayer.fault_plan(plan):
            worker.drain()

        counts = queue.counts()
        assert counts["done"] == 1
        assert counts["dead"] == 0 and counts["pending"] == 0
        assert len(run_store) == 1
        assert not run_store.degraded
        # Two releases refunded two claims: the done record burned one.
        [record] = queue.records()
        assert record["attempts"] == 1
        assert queue.jobs_released == 2

    def test_heartbeat_misses_beats_under_enospc_and_resumes(self, tmp_path, monkeypatch):
        # Job records fill the disk while a lease is held: every heartbeat
        # write fails until the queue root degrades.  That is a missed
        # beat, not a dead heartbeat thread -- nothing may reach
        # threading.excepthook, and once space returns the same thread
        # (one per job) must extend the lease again.
        escaped = []
        monkeypatch.setattr(
            threading, "excepthook",
            lambda args: escaped.append((args.thread.name, args.exc_type.__name__)),
        )
        queue = JobQueue(tmp_path / "q", lease_duration=0.3)
        queue.enqueue_all(one_job(), engine_seed=1234)
        burst = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="enospc", count=10_000, match="job-*"),
        ))
        beats = {}

        class DiskFillsMidJob(WorkerHooks):
            def before_commit(self, worker, lease, run_path):
                with iolayer.fault_plan(burst):
                    beats["degraded"] = wait_until(lambda: iolayer.is_degraded(queue.root))
                beats["burst"] = worker.heartbeats_sent
                wait_until(lambda: worker.heartbeats_sent > beats["burst"])
                beats["after"] = worker.heartbeats_sent

        worker = QueueWorker(queue, run_store=tmp_path / "runs", worker_id="w1",
                             hooks=DiskFillsMidJob())
        worker.drain()

        assert beats["degraded"], "the burst never degraded the queue root"
        assert escaped == []
        assert beats["after"] > beats["burst"]
        assert queue.counts()["done"] == 1
        assert not iolayer.is_degraded(queue.root)


# -------------------------------------------------------------- HTTP tier

class TestHttpDegraded:
    def test_submit_gets_507_healthz_flips_and_both_recover(
        self, tmp_path, scenarios
    ):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        backend = QueueBackend(queue, run_store=tmp_path / "runs")
        frontend = SweepFrontend(backend)
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        payload = [{"policies": [POLICY], "scenarios": [scenarios[0].name]}]
        try:
            iolayer.arm_fault_plan(enospc_everywhere())
            try:
                # Admission writes the job record: the capacity wall is a
                # 507 with a retry hint, not an opaque 500.
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(base, payload)
                assert excinfo.value.code == 507
                assert excinfo.value.headers["Retry-After"] == (
                    f"{DEGRADED_RETRY_AFTER:.0f}"
                )

                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get_json(base, "/healthz")
                assert excinfo.value.code == 503
                health = json.load(excinfo.value)
                assert health["degraded"] is True
                assert health["status"] == "degraded"
                assert excinfo.value.headers["Retry-After"] is not None

                stats = get_json(base, "/v1/stores/stats")
                assert stats["degraded"] is True
                assert stats["io_errors"] >= RETRY_ATTEMPTS
            finally:
                iolayer.disarm_fault_plan()

            # Space returned: the next admission write is the probe that
            # clears the flag — no operator, no restart.
            status, _ = post(base, payload)
            assert status == 202
            health = get_json(base, "/healthz")
            assert health == {
                "api_version": health["api_version"],
                "status": "ok",
                "degraded": False,
            }
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()

    def test_cold_miss_refused_but_warm_hits_keep_streaming(
        self, tmp_path, scenarios
    ):
        service = SweepService(
            trace_store=TraceStore(tmp_path / "traces"),
            run_store=RunStore(tmp_path / "runs"),
            workers=2,
        )
        frontend = SweepFrontend(service)
        server = serve_in_thread(frontend)
        base = f"http://127.0.0.1:{server.port}"
        warm_payload = [{"policies": [POLICY], "scenarios": [scenarios[0].name]}]
        try:
            # Populate one cell while healthy.
            status, resp = post(base, warm_payload)
            assert status == 202
            [request_id] = resp["request_ids"]
            cold_rows, summary = stream(base, request_id)
            assert summary["error"] is None and len(cold_rows) == 1

            # The disk really is full: every write, the recovery probe
            # included, fails until the plan is disarmed.
            iolayer.mark_degraded(service.run_store.root, "disk full (test)")
            cold_payload = [{"policies": ["marlin-tiny"],
                             "scenarios": [scenarios[0].name]}]
            iolayer.arm_fault_plan(enospc_everywhere())
            try:
                # Warm hit: served read-only, bit-identical to the cold run.
                status, resp = post(base, warm_payload)
                assert status == 202
                [request_id] = resp["request_ids"]
                warm_rows, summary = stream(base, request_id)
                assert summary["error"] is None
                assert warm_rows == cold_rows

                # Cold miss: refused loudly in the terminal stream line.
                status, resp = post(base, cold_payload)
                assert status == 202  # admission is fine — execution is not
                [request_id] = resp["request_ids"]
                rows, summary = stream(base, request_id)
                assert rows == []
                assert summary["error"] is not None
                assert "degraded" in summary["error"]

                health_error = None
                try:
                    get_json(base, "/healthz")
                except urllib.error.HTTPError as exc:
                    health_error = exc
                assert health_error is not None and health_error.code == 503
            finally:
                iolayer.disarm_fault_plan()

            # Space returned: the next cold miss probes the root, clears
            # the flag and streams its row — no operator, no restart.
            status, resp = post(base, cold_payload)
            assert status == 202
            [request_id] = resp["request_ids"]
            rows, summary = stream(base, request_id)
            assert summary["error"] is None and len(rows) == 1
            assert not service.degraded
            health = get_json(base, "/healthz")
            assert health["status"] == "ok" and health["degraded"] is False
        finally:
            server.shutdown()
            server.server_close()
            frontend.close()
