"""Bench: trace-build throughput — serial vs parallel vs store reload.

Trace construction (every zoo model on every frame) dominates the
benchmark suite's wall-clock, so this bench records where that time goes
and makes the speedup of the batched, parallel, and persisted paths
visible in the perf trajectory.  Throughput is reported in model-frames/s
(a trace of F frames over M models performs F x M detections).

Scale with ``REPRO_BENCH_SCALE``; worker count with
``REPRO_BENCH_WORKERS`` (default: half the CPUs, at least 2); rounds per
timed path with ``REPRO_BENCH_ROUNDS`` (default 3 — each path reports its
best round, the standard defense against scheduler/steal noise on shared
boxes).  The build itself may use fewer workers than requested — it falls
back toward serial when the volume or the CPU count cannot amortize a
pool (that fallback is why a parallel build is never slower than a serial
one).  When that happens the parallel row is **flagged as collapsed**
(with the limiting factor: CPUs or volume) in both the text line and the
JSON metrics, so a ~1.0x "parallel speedup" can never masquerade as a
real pool measurement; the bench scenario is the longest library flight
precisely so the pool is exercised wherever the hardware allows it.

With ``REPRO_BENCH_ENFORCE_FLOOR=1`` (the CI perf-smoke job) the serial
throughput is additionally checked against the committed
``benchmarks/baseline.json`` floor (a drop of more than 30% below the
baseline fails the run), and the binary store reload must keep its
committed speedup over a serial rebuild — that ratio is what the
header-probe lazy load buys, so it failing means the load path started
decoding columns (or rendering) eagerly again.
"""

import json
import os
import pathlib

from repro.models import default_zoo
from repro.runtime import ScenarioTrace, TraceStore
from repro.runtime.trace import (
    MIN_MODEL_FRAMES_PER_WORKER,
    _available_cpus,
    _effective_workers,
)

# The longest library flight (1900 frames): the only scenario whose
# model-frame volume clears the serial-fallback threshold for w=2 at full
# scale, so the parallel row can actually exercise the pool instead of
# silently timing the serial path twice.
_SCENARIO = "x_long_endurance_3laps_600f"
_BASELINE = pathlib.Path(__file__).parent / "baseline.json"


def _collapse_reasons(requested: int, effective: int, model_frames: int) -> list[str]:
    """Why a parallel build used fewer workers than asked (for the report).

    The fallback itself is correct behaviour (a pool that costs more than
    it saves must not run); what was misleading was *reporting* the
    resulting serial time as a parallel measurement without saying so.
    """
    if effective >= requested:
        return []
    reasons = []
    cpus = _available_cpus()
    if cpus < requested:
        reasons.append(f"{cpus} CPU(s) available")
    if model_frames // MIN_MODEL_FRAMES_PER_WORKER < requested:
        reasons.append(
            f"volume {model_frames} < {requested} x {MIN_MODEL_FRAMES_PER_WORKER} model-frames"
        )
    return reasons or ["worker cap"]

# Fraction of the committed baseline throughput that still passes; the CI
# job fails anything slower (">30% below the floor").
_FLOOR_FRACTION = 0.7


def test_trace_build_benchmark(ctx, report, best_of, tmp_path_factory):
    zoo = default_zoo()
    scenario = ctx.scenario(_SCENARIO)
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or max(2, (os.cpu_count() or 2) // 2)
    work = scenario.total_frames * len(zoo)
    effective = _effective_workers(workers, len(zoo), work)

    serial_s, serial = best_of(lambda: ScenarioTrace.build(scenario, zoo))
    parallel_s, parallel = best_of(
        lambda: ScenarioTrace.build(scenario, zoo, max_workers=workers)
    )

    # The ``reload`` row times bare ``store.load`` (what every store hit
    # pays: identity validation, answered from a 4 KiB header probe
    # without decoding columns); the ``materialized`` row adds first
    # ``.outcomes`` access, so the lazy column decode can never hide — an
    # outcome consumer pays that.
    store = TraceStore(tmp_path_factory.mktemp("traces"))
    store.save(serial, zoo)

    def reload_materialized():
        trace = store.load(scenario, zoo)
        _ = trace.outcomes
        return trace

    reload_s, reloaded = best_of(lambda: store.load(scenario, zoo))
    materialized_s, materialized = best_of(reload_materialized)

    # Identical outcomes on every path — speed never changes results.
    assert parallel.outcomes == serial.outcomes
    assert reloaded.outcomes == serial.outcomes
    assert materialized.outcomes == serial.outcomes
    # Reloads are lazy: outcome consumers never pay for rendering.
    assert not reloaded.frames_materialized

    serial_tp = work / serial_s
    parallel_tp = work / parallel_s
    reload_tp = work / reload_s
    materialized_tp = work / materialized_s
    collapse = _collapse_reasons(workers, effective, work)
    parallel_label = f"w={workers}" if effective == workers else f"w={workers}->{effective}"
    parallel_line = (
        f"  parallel ({parallel_label})    {parallel_s:8.2f}s  {parallel_tp:10.0f} model-frames/s"
        f"  ({serial_s / parallel_s:.2f}x)"
    )
    if collapse:
        # Say it out loud: this row measured a (partially) serial build.
        parallel_line += (
            f"  [COLLAPSED to {effective} worker(s): {'; '.join(collapse)} — "
            "not a parallel measurement]"
        )
    lines = [
        f"trace build: {scenario.name} ({scenario.total_frames} frames x {len(zoo)} models)",
        f"  serial              {serial_s:8.2f}s  {serial_tp:10.0f} model-frames/s",
        parallel_line,
        f"  reload (binary)     {reload_s:8.4f}s  {reload_tp:10.0f} model-frames/s"
        f"  ({serial_s / reload_s:.0f}x)",
        f"  ... + outcomes      {materialized_s:8.4f}s  {materialized_tp:10.0f} model-frames/s"
        f"  ({serial_s / materialized_s:.2f}x)",
    ]
    report(
        "trace_build",
        "\n".join(lines),
        metrics={
            "scenario": scenario.name,
            "frames": scenario.total_frames,
            "models": len(zoo),
            "model_frames": work,
            "workers_requested": workers,
            "workers_effective": effective,
            "parallel_collapsed": bool(collapse),
            "parallel_collapse_reasons": collapse,
            "rounds": best_of.rounds,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "reload_s": round(reload_s, 6),
            "materialized_s": round(materialized_s, 4),
            "serial_model_frames_per_s": round(serial_tp, 1),
            "parallel_model_frames_per_s": round(parallel_tp, 1),
            "reload_model_frames_per_s": round(reload_tp, 1),
            "materialized_model_frames_per_s": round(materialized_tp, 1),
            "parallel_speedup": round(serial_s / parallel_s, 3),
            "reload_speedup": round(serial_s / reload_s, 3),
            "materialized_speedup": round(serial_s / materialized_s, 3),
        },
    )

    # The reload path skips rendering and the zoo sweep entirely; it must
    # beat a full rebuild comfortably at any scale.
    assert reload_s < serial_s

    if os.environ.get("REPRO_BENCH_ENFORCE_FLOOR"):
        baseline = json.loads(_BASELINE.read_text(encoding="utf-8"))
        floor = baseline["trace_build"]["serial_model_frames_per_s"] * _FLOOR_FRACTION
        assert serial_tp >= floor, (
            f"serial trace-build throughput {serial_tp:.0f} model-frames/s fell more than "
            f"30% below the committed baseline "
            f"({baseline['trace_build']['serial_model_frames_per_s']:.0f}; floor {floor:.0f})"
        )
        reload_floor = baseline["trace_build"]["reload_speedup"]
        assert serial_s / reload_s >= reload_floor, (
            f"binary reload speedup {serial_s / reload_s:.1f}x fell below the committed "
            f"floor ({reload_floor}x over a serial rebuild; the header-probe load "
            f"must stay decode-free)"
        )
