"""Queue-worker tests: execute/commit/warm-complete, crash recovery.

The cheap tiers run in-process (threads + :class:`WorkerKilled`); the
integration tier SIGKILLs a real ``python -m repro work`` subprocess
mid-job via a fault plan and proves a second worker recovers the lease
and the result is the serial one, bit for bit.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.data import ScenarioMatrix
from repro.models import default_zoo
from repro.runtime import RunStore, TraceStore, run_policy
from repro.runtime.runstore import RunKey
from repro.runtime.trace import ScenarioTrace
from repro.service import (
    JobQueue,
    QueueWorker,
    SweepRequest,
    WorkerHooks,
    WorkerKilled,
    decompose,
    policy_resolver,
)
from repro.sim.soc import xavier_nx_with_oakd
from repro.verify import FaultEvent, FaultHooks, FaultPlan

MATRIX = ScenarioMatrix(
    name="qw",
    compositions=(("loiter",), ("popup",)),
    regimes=("day",),
    seeds=(4,),
    frame_budgets=(16,),
)

ENGINE_SEED = 1234


@pytest.fixture(scope="module")
def scenarios():
    return MATRIX.scenarios()


@pytest.fixture(scope="module")
def jobs(scenarios):
    return decompose(
        SweepRequest(policies=("marlin-tiny",), scenarios=tuple(scenarios))
    )


def run_key_for(job):
    policy = policy_resolver()(job.policy_spec)
    return RunKey(
        policy_name=policy.name,
        policy_fingerprint=policy.fingerprint(),
        scenario_fingerprint=job.key[1],
        zoo_fingerprint=default_zoo().fingerprint(),
        soc_fingerprint=xavier_nx_with_oakd().fingerprint(),
        engine_seed=ENGINE_SEED,
    )


class TestDrain:
    def test_drain_executes_commits_and_completes(self, tmp_path, jobs):
        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        queue.enqueue_all(jobs, engine_seed=ENGINE_SEED)
        worker = QueueWorker(queue, run_store=tmp_path / "runs",
                             trace_store=tmp_path / "traces", worker_id="wA")
        worker.drain()
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)
        assert worker.runs_executed == len(jobs)
        store = RunStore(tmp_path / "runs")
        assert len(store) == len(jobs)
        # Bit-equality with the serial path, straight from the store.
        zoo = default_zoo()
        trace_store = TraceStore(tmp_path / "traces")
        for job in jobs:
            stored = store.load(run_key_for(job))
            trace = trace_store.load(job.scenario, zoo)
            serial = run_policy(policy_resolver()(job.policy_spec), trace,
                                engine_seed=ENGINE_SEED, fast=True)
            assert stored.records == serial.records

    def test_second_queue_warm_completes_from_run_store(self, tmp_path, jobs):
        first = JobQueue(tmp_path / "q1")
        first.enqueue_all(jobs, engine_seed=ENGINE_SEED)
        QueueWorker(first, run_store=tmp_path / "runs",
                    trace_store=tmp_path / "traces", worker_id="wA").drain()
        # A fresh queue of the same jobs over the same stores: nothing
        # executes, every job warm-completes off the committed runs.
        second = JobQueue(tmp_path / "q2")
        second.enqueue_all(jobs, engine_seed=ENGINE_SEED)
        warm = QueueWorker(second, run_store=tmp_path / "runs",
                           trace_store=tmp_path / "traces", worker_id="wB")
        warm.drain()
        assert second.counts()["done"] == len(jobs)
        assert warm.runs_executed == 0
        assert warm.trace_builds == 0
        assert warm.warm_completes == len(jobs)

    def test_worker_keeps_only_the_trace_it_runs(self, tmp_path, scenarios):
        # Two cold scenarios x two specs: the queue hands the worker each
        # scenario's jobs back to back, so each trace is built once and
        # never reloaded, and the worker holds one trace at every job — a
        # long drain's footprint does not grow with the scenarios it saw.
        held = []

        class Probe(WorkerHooks):
            def before_complete(self, worker, lease):
                held.append(len(worker.runner.cache))

        queue = JobQueue(tmp_path / "q")
        queue.enqueue_all(decompose(SweepRequest(
            policies=("marlin-tiny", "single:yolov7-tiny@gpu"), scenarios=tuple(scenarios),
        )), engine_seed=ENGINE_SEED)
        worker = QueueWorker(queue, run_store=tmp_path / "runs",
                             trace_store=tmp_path / "traces", worker_id="wA", hooks=Probe())
        worker.drain()
        assert worker.runs_executed == 4
        assert (worker.trace_builds, worker.trace_store_hits) == (2, 0)
        assert held == [1, 1, 1, 1]

    def test_unresolvable_spec_dead_letters_loudly(self, tmp_path, scenarios):
        bad = decompose(SweepRequest(policies=("single:no-such-model",),
                                     scenarios=(scenarios[0],)))
        queue = JobQueue(tmp_path / "q", max_attempts=2,
                         backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue_all(bad, engine_seed=ENGINE_SEED)
        worker = QueueWorker(queue, run_store=tmp_path / "runs", worker_id="wA")
        worker.drain()
        assert queue.counts()["dead"] == 1
        [record] = [r for r in queue.records() if r["state"] == "dead"]
        assert "no-such-model" in record["error"]


class TestCrashRecovery:
    def test_killed_worker_job_migrates_to_survivor(self, tmp_path, jobs):
        queue = JobQueue(tmp_path / "q", lease_duration=0.3,
                         backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue_all(jobs, engine_seed=ENGINE_SEED)
        plan = FaultPlan(events=(FaultEvent("wA", 0, "kill"),))
        victim = QueueWorker(queue, run_store=tmp_path / "runs",
                             trace_store=tmp_path / "traces", worker_id="wA",
                             hooks=FaultHooks(plan), poll_interval=0.01)
        with pytest.raises(WorkerKilled):
            victim.drain()
        assert queue.counts()["leased"] == 1  # the victim took it down holding this
        time.sleep(0.35)  # one lease horizon: crash detection
        survivor = QueueWorker(queue, run_store=tmp_path / "runs",
                               trace_store=tmp_path / "traces", worker_id="wB",
                               poll_interval=0.01)
        survivor.drain()
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)
        assert len(RunStore(tmp_path / "runs")) == len(jobs)


class TestProcessIntegration:
    def test_sigkill_mid_job_then_recovery_over_shared_dir(self, tmp_path, jobs):
        """A real ``repro work`` process dies by SIGKILL mid-job; a second
        process recovers the lease and finishes.  The whole crash story,
        with nothing simulated."""
        zoo = default_zoo()
        trace_store = TraceStore(tmp_path / "traces")
        for job in jobs:
            if trace_store.load(job.scenario, zoo) is None:
                trace_store.save(ScenarioTrace.build(job.scenario, zoo), zoo)
        queue = JobQueue(tmp_path / "q", lease_duration=1.0,
                         backoff_base=0.0, backoff_cap=0.0)
        queue.enqueue_all(jobs, engine_seed=ENGINE_SEED)
        plan_path = tmp_path / "plan.json"
        FaultPlan(events=(FaultEvent("w0", 0, "kill"),)).save(plan_path)

        env = dict(os.environ)
        package_root = Path(repro.__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )

        def work(worker_id: str, *extra: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "repro", "work", str(tmp_path / "q"),
                 "--run-store", str(tmp_path / "runs"),
                 "--trace-store", str(tmp_path / "traces"),
                 "--worker-id", worker_id, "--lease", "1.0", *extra],
                env=env, capture_output=True, text=True, timeout=120,
            )

        killed = work("w0", "--fault-plan", str(plan_path))
        assert killed.returncode == -9, (killed.returncode, killed.stderr)
        assert queue.counts()["leased"] == 1

        time.sleep(1.1)  # lease horizon passes in real time
        recovered = work("w1")
        assert recovered.returncode == 0, recovered.stderr
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)
        store = RunStore(tmp_path / "runs")
        for job in jobs:
            stored = store.load(run_key_for(job))
            assert stored is not None
            serial = run_policy(policy_resolver()(job.policy_spec),
                                trace_store.load(job.scenario, zoo),
                                engine_seed=ENGINE_SEED, fast=True)
            assert stored.records == serial.records
        # The kill left no torn bytes and no index drift anywhere.
        for audited in (queue, store, trace_store):
            _, problems = audited.audit()
            assert problems == []


class TestGracefulShutdown:
    """SIGTERM-shaped teardown: the lease goes back to pending, not limbo."""

    def test_terminated_worker_releases_lease_for_the_survivors(
        self, tmp_path, jobs
    ):
        import signal

        from repro.service import WorkerHooks, WorkerTerminated

        queue = JobQueue(tmp_path / "q", lease_duration=30.0)
        queue.enqueue_all(jobs, engine_seed=ENGINE_SEED)

        class Interrupt(WorkerHooks):
            """SIGTERM arriving right after the claim, before any work."""

            def claimed(self, worker, lease):
                raise WorkerTerminated(signal.SIGTERM)

        dying = QueueWorker(
            queue, run_store=tmp_path / "runs", trace_store=tmp_path / "traces",
            worker_id="dying", hooks=Interrupt(),
        )
        with pytest.raises(WorkerTerminated) as excinfo:
            dying.drain()
        assert excinfo.value.signum == signal.SIGTERM
        # run()'s shutdown path: release, don't abandon.  The job is
        # immediately claimable with its attempt refunded — the 30 s
        # lease horizon never enters the picture.
        assert dying.release_current() is True
        assert dying.release_current() is False  # idempotent
        assert queue.jobs_released == 1
        assert queue.counts()["leased"] == 0
        assert queue.counts()["pending"] == len(jobs)

        survivor = QueueWorker(
            queue, run_store=tmp_path / "runs", trace_store=tmp_path / "traces",
            worker_id="survivor",
        )
        assert survivor.drain() == len(jobs)
        assert queue.drained()
        assert queue.counts()["done"] == len(jobs)

    def test_stop_breaks_idle_polling(self, tmp_path):
        import threading

        queue = JobQueue(tmp_path / "q")
        worker = QueueWorker(
            queue, run_store=tmp_path / "runs",
            exit_when_drained=False, poll_interval=0.05,
        )
        thread = threading.Thread(target=worker.drain)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive()  # idling through an empty queue
        worker.stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_sigterm_to_idle_worker_process_exits_143(self, tmp_path):
        """A real ``repro work --idle`` process, terminated the way a
        supervisor does it, exits ``128 + SIGTERM`` with nothing leased."""
        import signal

        env = dict(os.environ)
        package_root = Path(repro.__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        queue_dir = tmp_path / "q"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", str(queue_dir),
             "--run-store", str(tmp_path / "runs"), "--idle"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # The worker creates the queue directory just before it
            # installs its signal handlers and starts polling.
            deadline = time.monotonic() + 60.0
            while not queue_dir.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert queue_dir.exists(), "worker never started"
            time.sleep(0.5)  # cover the mkdir -> handler-install gap
            proc.terminate()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert code == 128 + signal.SIGTERM
