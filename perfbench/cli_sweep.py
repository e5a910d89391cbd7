"""Workload ``cli``: the reproduction user's wait for ``repro sweep``.

Each op is one ``python -m repro --scale F --trace-store T --run-store R
sweep shift,marlin,single:yolov7@gpu --scenarios A,B`` child process,
timed from spawn to exit — the paper's three-way comparison.  Cold and
warm ops alternate so they share the machine's speed phases:

* a cold op gets fresh, empty stores: it characterizes, builds both
  traces serially (no ``--workers`` pool), runs all three policies, and
  fills the stores.  Filling the stores is this workload's set-up, so
  every cold op is also a ``setup_s`` sample;
* a warm op reuses the stores the first cold op filled: every run is a
  run-store hit, so what is left is the per-process fixed cost (import,
  characterization, confidence graph).  Two warm ops follow each cold
  one: the warm median is the op metric and needs the samples.

The seed picks the two evaluation scenarios and scales them to a fixed
total frame count, so every seed costs about the same.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time

import common
import tracing

EVALUATION = (
    "s1_multi_background_varying_distance",
    "s2_fixed_distance_crossing",
    "s3_indoor_close_wall",
    "s4_indoor_clutter",
    "s5_far_patrol",
    "s6_urban_pursuit",
)
POLICIES = ("shift", "marlin", "single:yolov7@gpu")
#: Frames of the two scenarios together, after scaling.
TARGET_FRAMES = 700
#: Warm ops per cold op: warm medians need more samples, cold ops cost more.
WARM_PER_COLD = 2
#: Cold+warm cycles run even when the time is up.
MIN_CYCLES = 2


def inputs(seed: int) -> tuple[list[str], float]:
    """The seed's two scenarios and the ``--scale`` that evens their length."""
    from repro.data import scenario_by_name

    names = sorted(random.Random(seed).sample(EVALUATION, 2))
    frames = sum(scenario_by_name(name).total_frames for name in names)
    return names, round(TARGET_FRAMES / frames, 4)


def reference(names: list[str], scale: float) -> tuple[str, dict]:
    """Expected stdout and run-store metrics, from a serial store-less sweep.

    Runs on the scalar reference engine (``fast=False``), not the fast
    tier the CLI uses, so a fast-path bug cannot hide in both.
    """
    from repro.cli import _sweep_table
    from repro.experiments import ExperimentContext
    from repro.runtime import RunKey
    from repro.service import policy_resolver
    from repro.sim import xavier_nx_with_oakd

    ctx = ExperimentContext(scale=scale, fast_runs=False)
    resolve = policy_resolver(bundle=ctx.bundle, graph=ctx.graph, objective="paper")
    policies = [resolve(spec) for spec in POLICIES]
    scenarios = [ctx.scenario(name) for name in names]
    results = ctx.runner.sweep(policies, scenarios)
    text = _sweep_table(f"Sweep: {len(policies)} policies x {len(scenarios)} scenarios",
                        results) + "\n"
    soc_fp = xavier_nx_with_oakd().fingerprint()
    keys = {}
    for policy in policies:
        for scenario, metrics in zip(scenarios, results[policy.name], strict=True):
            key = RunKey(policy_name=policy.name, policy_fingerprint=policy.fingerprint(),
                         scenario_fingerprint=scenario.fingerprint(),
                         zoo_fingerprint=ctx.zoo.fingerprint(), soc_fingerprint=soc_fp,
                         engine_seed=ctx.engine_seed)
            keys[key] = metrics
    return text, keys


def _check_stores(run: common.Run, traces, runs, expected: dict, label: str) -> bool:
    from repro.runtime import RunStore, TraceStore

    trace_store, run_store = TraceStore(traces), RunStore(runs)
    ok = run.check(len(run_store) == len(expected), f"{label}: {len(run_store)} run entries")
    for key, want in expected.items():
        got = run_store.load_metrics(key)
        ok &= run.check(got is not None and common.metrics_equal(got, want),
                        f"{label}: run {key.policy_name} differs from the reference")
    for store in (trace_store, run_store):
        _, problems = store.audit()
        ok &= run.check(not problems, f"{label}: audit {problems[:2]}")
        ok &= run.check(store.corrupt_entries == 0, f"{label}: corrupt entries")
    return ok


def run(run: common.Run) -> None:
    names, scale = inputs(run.seed)
    expected_text, expected_runs = reference(names, scale)
    run.notes = [f"scenarios={','.join(names)} scale={scale}"]
    warm_traces, warm_runs = run.workdir / "warm-traces", run.workdir / "warm-runs"
    serial = iter(range(1_000_000))

    def sweep_args(traces, runs) -> list[str]:
        return ["--scale", str(scale), "--trace-store", str(traces), "--run-store", str(runs),
                "sweep", ",".join(POLICIES), "--scenarios", ",".join(names)]

    def op(kind: str, *, traced: bool, sample: bool = True) -> None:
        number = next(serial)
        if kind == "cold":
            traces, runs = run.workdir / f"traces-{number}", run.workdir / f"runs-{number}"
        else:
            traces, runs = warm_traces, warm_runs
        op_id = f"{kind}-{number}"
        spans = run.workdir / f"spans-{number}.json"
        env = (common.program_env(PERFBENCH_OP=op_id, PERFBENCH_SPANS=str(spans))
               if traced else common.program_env())
        common.quiesce()
        done = common.run_program(sweep_args(traces, runs), run.workdir, traced=traced, env=env)
        label = f"{kind} op {number}"
        ok = run.check(done.returncode == 0, f"{label}: exit {done.returncode}: {done.stderr[-300:]}")
        ok &= run.check(done.stdout == expected_text, f"{label}: stdout differs from the reference")
        if kind == "cold" and ok:
            ok &= _check_stores(run, traces, runs, expected_runs, label)
        run.finish_op(ok)
        run.rss_mb.append(done.rss_mb)
        if sample:
            run.sample(kind, done.wall_s, traced=traced)
            if kind == "cold" and not traced:
                run.setup.append(done.wall_s)
            run.speed_probe()
        if traced and sample:
            rows = tracing.rows_by_op(tracing.load_dump(spans)).get(op_id, {})
            run.layer_rows.setdefault(kind, []).append(tracing.finish_rows(done.wall_s, [rows]))

    # The first cold op fills the warm stores; it and the first warm op
    # also fill .pyc files and the page cache, so neither is sampled.
    op("cold", traced=False, sample=False)
    shutil.move(run.workdir / "traces-0", warm_traces)
    shutil.move(run.workdir / "runs-0", warm_runs)
    op("warm", traced=False, sample=False)
    started = time.perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or run.time_left(started):
        for traced in ((False, True) if run.traced else (False,)):
            op("cold", traced=traced)
            for _ in range(WARM_PER_COLD):
                op("warm", traced=traced)
        cycles += 1
    run.check(_check_stores(run, warm_traces, warm_runs, expected_runs, "warm stores"),
              "warm stores changed")


def metrics(run: common.Run) -> list[tuple[str, float, str, int]]:
    """The workload's end-to-end rows for the report: (name, value, unit, n)."""
    return [
        ("cold_p50_s", statistics.median(run.setup), "s", len(run.setup)),
        ("warm_p50_s", statistics.median(run.ops["warm"]), "s", len(run.ops["warm"])),
    ]


#: The op kind whose median is ``op_p50_s``.
PRIMARY = "warm"
#: Ops are CPU-bound: their medians are reported at the probe's reference speed.
CPU_BOUND = True
