"""Workload ``queue-deep``: draining a deep batch of warm unit jobs.

Each op enqueues one batch of unit jobs into a fresh ``JobQueue`` — the
same ``enqueue_all`` call ``repro serve --procs`` makes — and one
``python -m repro work`` child drains it; the op is timed from the start
of the enqueue to the worker's exit.  The worker exits on drain without
sleeping, and no supervisor or ``QueueBackend`` poll loop is on the
timed path.

Every run is already in the run store (set-up drains the batch cold
once), which is what a queue-backed HTTP deployment or a re-run
``serve --procs`` sees, so the op is almost all queue transitions:
claims that walk and re-read the queue's records, and completes.

The seed generates the batch: short grammar scenarios (same families,
regimes, and frame budget for every seed, so every seed costs the same)
crossed with cheap fingerprinted policy specs.
"""

from __future__ import annotations

import statistics
import time

import common
import tracing

COMPOSITIONS = (("loiter",), ("crossing",), ("popup", "pan_burst"),
                ("occlusion_dip", "loiter"), ("altitude_ramp", "crossing"), ("pan_burst",))
REGIMES = ("day", "night", "fog", "indoor")
SPECS = ("marlin", "marlin-tiny", "single:yolov7-tiny@gpu", "single:ssd-mobilenet-v2@dla0")
SCENARIOS = 24
FRAME_BUDGET = 24
#: Cold drains into fresh stores; their median is ``setup_s``.
SETUPS = 3
MIN_OPS = 3
WORKER_ID = "perfbench-worker"


def inputs(seed: int):
    """The seed's batch: unit jobs over generated scenarios."""
    from repro.data.grammar import ScenarioMatrix
    from repro.service import UnitJob

    per_seed = len(COMPOSITIONS) * len(REGIMES)
    matrix = ScenarioMatrix(
        name=f"pb{seed}", compositions=COMPOSITIONS, regimes=REGIMES,
        seeds=tuple(range(1, 1 + -(-SCENARIOS // per_seed))), frame_budgets=(FRAME_BUDGET,))
    scenarios = matrix.scenarios()[:SCENARIOS]
    return [UnitJob(spec, scenario) for spec in SPECS for scenario in scenarios]


def reference(jobs) -> dict:
    """Expected run-store metrics per job, from a serial store-less sweep.

    Runs on the scalar reference engine (``fast=False``); the worker runs
    the fast tier.
    """
    from repro.models import default_zoo
    from repro.runtime import ExperimentRunner, RunKey, TraceCache
    from repro.service import policy_resolver
    from repro.sim import xavier_nx_with_oakd

    zoo = default_zoo()
    resolve = policy_resolver()
    scenarios = list({job.key[1]: job.scenario for job in jobs}.values())
    policies = [resolve(spec) for spec in SPECS]
    runner = ExperimentRunner(cache=TraceCache(zoo), fast=False)
    results = runner.sweep(policies, scenarios)
    soc_fp = xavier_nx_with_oakd().fingerprint()
    expected = {}
    for policy in policies:
        for scenario, metrics in zip(scenarios, results[policy.name], strict=True):
            key = RunKey(policy_name=policy.name, policy_fingerprint=policy.fingerprint(),
                         scenario_fingerprint=scenario.fingerprint(),
                         zoo_fingerprint=zoo.fingerprint(), soc_fingerprint=soc_fp,
                         engine_seed=runner.engine_seed)
            expected[key] = metrics
    return expected


def run(run: common.Run) -> None:
    from repro.runtime import RunStore, TraceStore
    from repro.service import JobQueue

    jobs = inputs(run.seed)
    expected = reference(jobs)
    run.notes = [f"jobs={len(jobs)} ({len(SPECS)} specs x {SCENARIOS} scenarios "
                 f"of {FRAME_BUDGET} frames)"]
    serial = iter(range(1_000_000))

    def drain(runs, traces, *, traced: bool):
        """One op: enqueue into a fresh queue, drain with one worker child."""
        number = next(serial)
        queue_dir = run.workdir / f"queue-{number}"
        op_id = f"drain-{number}"
        spans = run.workdir / f"spans-{number}.json"
        env = (common.program_env(PERFBENCH_OP=op_id, PERFBENCH_SPANS=str(spans))
               if traced else common.program_env())
        args = ["work", str(queue_dir), "--run-store", str(runs), "--trace-store", str(traces),
                "--worker-id", WORKER_ID]
        common.quiesce()
        with tracing.TRACER.op(op_id if traced else None):
            start = time.perf_counter()
            JobQueue(queue_dir).enqueue_all(jobs)
            done = common.run_program(args, run.workdir, traced=traced, env=env)
            wall = time.perf_counter() - start
        label = f"drain {number}"
        queue = JobQueue(queue_dir)
        counts = queue.counts()
        ok = run.check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-300:]}")
        ok &= run.check(counts["done"] == len(jobs) == counts["total"],
                        f"{label}: job states {counts}")
        _, problems = queue.audit()
        ok &= run.check(not problems, f"{label}: queue audit {problems[:2]}")
        run_store = RunStore(runs)
        for key, want in expected.items():
            got = run_store.load_metrics(key)
            ok &= run.check(got is not None and common.metrics_equal(got, want),
                            f"{label}: run {key.policy_name} differs from the reference")
        for store in (run_store, TraceStore(traces)):
            _, problems = store.audit()
            ok &= run.check(not problems and store.corrupt_entries == 0,
                            f"{label}: store audit {problems[:2]}")
        run.finish_op(ok)
        run.rss_mb.append(done.rss_mb)
        rows = None
        if traced:
            rows = tracing.finish_rows(wall, [
                tracing.rows_by_op(tracing.TRACER.payload()).get(op_id, {}),
                tracing.rows_by_op(tracing.load_dump(spans)).get(op_id, {})])
        return wall, rows

    # Set-up: cold drains into fresh stores; the last pair serves the ops.
    for number in range(SETUPS):
        runs, traces = run.workdir / f"runs-{number}", run.workdir / f"traces-{number}"
        wall, _ = drain(runs, traces, traced=False)
        run.setup.append(wall)
        run.speed_probe()
    drain(runs, traces, traced=False)  # warm-up op, not sampled
    started = time.perf_counter()
    ops = 0
    while ops < MIN_OPS or run.time_left(started):
        for traced in ((False, True) if run.traced else (False,)):
            wall, rows = drain(runs, traces, traced=traced)
            run.sample("drain", wall, traced=traced)
            run.speed_probe()
            if rows is not None:
                run.layer_rows.setdefault("drain", []).append(rows)
        ops += 1


def metrics(run: common.Run) -> list[tuple[str, float, str, int]]:
    return [("drain_p50_s", statistics.median(run.ops["drain"]), "s", len(run.ops["drain"]))]


PRIMARY = "drain"
#: Drains are CPU-bound: their medians are reported at the probe's reference speed.
CPU_BOUND = True
