"""Bench: queue tier — on-disk lease mechanics and drain overhead vs bare runs.

The job queue buys crash safety (leases, nonce-fenced transitions,
idempotent commits) with on-disk state: every claim/heartbeat/complete
is a locked JSON read-modify-replace.  This bench prices that state
machine two ways:

``mechanics``
    pure queue cycling with no policy runs at all — enqueue a
    deduplicated job set, then claim → heartbeat → complete every job
    in-process; reported per-job so the lease tax is legible;
``drain vs bare``
    the same seeded job set executed twice: once by a ``QueueWorker``
    draining the on-disk queue (claims, one trace store load per
    scenario — the queue hands the worker a scenario's jobs back to
    back and it keeps the trace it is running — RunStore commits, lease
    bookkeeping), once as a bare in-memory ``ExperimentRunner`` sweep
    over warm traces.  The ratio is the full orchestration overhead a
    single-process caller pays for crash safety.

With ``REPRO_BENCH_ENFORCE_FLOOR=1`` (the CI perf-smoke job) the drain
overhead is additionally checked against the committed
``benchmarks/baseline.json`` ceiling: crash safety is allowed to cost a
small multiple of the bare sweep, not an unbounded one.
Each run's full numbers land in the untracked
``benchmarks/out/run/BENCH_queue.json``.
"""

import json
import os
import pathlib

from repro.data.grammar import ScenarioMatrix
from repro.models import default_zoo
from repro.runtime import ExperimentRunner, RunStore, TraceCache, TraceStore
from repro.service import JobQueue, QueueWorker, UnitJob, policy_resolver

_MATRIX = ScenarioMatrix(
    name="qbench",
    compositions=(("loiter",), ("crossing",)),
    regimes=("day",),
    seeds=(5, 7),
    frame_budgets=(64,),
)

# Mechanics jobs never resolve their specs, so breadth is free; the
# drain set sticks to two cheap real policies.
_MECH_SPECS = ("marlin", "marlin-tiny", "single:yolov7-tiny@gpu", "single:ssd-mobilenet-v2@gpu")
_DRAIN_SPECS = ("marlin-tiny", "single:yolov7-tiny@gpu")
_BASELINE = pathlib.Path(__file__).parent / "baseline.json"


def test_queue_benchmark(report, best_of, tmp_path_factory):
    scenarios = _MATRIX.scenarios()
    zoo = default_zoo()
    mech_jobs = [UnitJob(spec, scenario) for spec in _MECH_SPECS for scenario in scenarios]
    drain_jobs = [UnitJob(spec, scenario) for spec in _DRAIN_SPECS for scenario in scenarios]

    def enqueue():
        queue = JobQueue(tmp_path_factory.mktemp("qe"))
        assert queue.enqueue_all(mech_jobs) == len(mech_jobs)
        return queue

    enqueue_s, _ = best_of(enqueue)

    def cycle():
        queue = enqueue()
        completed = 0
        while (lease := queue.claim("bench")) is not None:
            assert queue.heartbeat(lease) is not None
            assert queue.complete(lease)
            completed += 1
        assert completed == len(mech_jobs) and queue.drained()
        return queue

    cycle_s, cycled = best_of(cycle)
    assert cycled.counts()["done"] == len(mech_jobs)

    # Warm traces once, shared by both drain paths: the queue path loads
    # each scenario's trace from the store once and keeps only the one it
    # is running, the bare path holds them all in memory.
    trace_store = TraceStore(tmp_path_factory.mktemp("qtraces"))
    cache = TraceCache(zoo, store=trace_store)
    runner = ExperimentRunner(cache=cache)
    resolve = policy_resolver()
    policies = [resolve(spec) for spec in _DRAIN_SPECS]
    warmup = runner.sweep(policies, scenarios)

    def bare():
        fresh = ExperimentRunner(cache=cache)
        return fresh.sweep(policies, scenarios)

    bare_s, bare_result = best_of(bare)
    assert bare_result == warmup

    def drain():
        root = tmp_path_factory.mktemp("qd")
        queue = JobQueue(root / "_queue")
        assert queue.enqueue_all(drain_jobs) == len(drain_jobs)
        worker = QueueWorker(
            queue, run_store=RunStore(root / "runs"), trace_store=trace_store, zoo=zoo
        )
        assert worker.drain() == len(drain_jobs)
        assert queue.drained() and worker.runs_executed == len(drain_jobs)
        return worker

    drain_s, drained = best_of(drain)
    assert len(drained.run_store) == len(drain_jobs)
    assert (drained.trace_builds, drained.trace_store_hits) == (0, len(scenarios))

    per_enqueue_ms = enqueue_s / len(mech_jobs) * 1e3
    per_cycle_ms = max(cycle_s - enqueue_s, 0.0) / len(mech_jobs) * 1e3
    overhead = drain_s / bare_s
    lines = [
        f"queue tier: {len(mech_jobs)} mechanics jobs, "
        f"{len(drain_jobs)} drained jobs ({len(_DRAIN_SPECS)} specs x {len(scenarios)} scenarios)",
        f"  enqueue              {enqueue_s:8.3f}s  ({per_enqueue_ms:.2f} ms/job)",
        f"  claim+hb+complete    {cycle_s:8.3f}s  ({per_cycle_ms:.2f} ms/job after enqueue)",
        f"  bare in-memory sweep {bare_s:8.3f}s",
        f"  queue worker drain   {drain_s:8.3f}s  ({overhead:.2f}x bare)",
    ]
    report(
        "queue",
        "\n".join(lines),
        metrics={
            "mechanics_jobs": len(mech_jobs),
            "drain_jobs": len(drain_jobs),
            "rounds": best_of.rounds,
            "enqueue_s": round(enqueue_s, 4),
            "cycle_s": round(cycle_s, 4),
            "per_enqueue_ms": round(per_enqueue_ms, 3),
            "per_cycle_ms": round(per_cycle_ms, 3),
            "bare_s": round(bare_s, 4),
            "drain_s": round(drain_s, 4),
            "drain_overhead": round(overhead, 3),
        },
    )

    if os.environ.get("REPRO_BENCH_ENFORCE_FLOOR"):
        baseline = json.loads(_BASELINE.read_text(encoding="utf-8"))
        ceiling = baseline["queue"]["drain_overhead_max"]
        assert overhead <= ceiling, (
            f"queue drain overhead {overhead:.2f}x bare exceeded the committed ceiling "
            f"({ceiling}x): lease bookkeeping got more expensive than crash safety is worth"
        )
