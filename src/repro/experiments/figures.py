"""Regeneration of the paper's figures (1-5) as data series.

Each generator returns the numeric series behind the figure plus a
:class:`~repro.experiments.report.TableData` summary, so the benchmark
harness prints exactly what the paper plots (no plotting dependencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines import MarlinPolicy, SingleModelPolicy, oracle_accuracy
from ..core import ShiftConfig, ShiftPipeline
from ..runtime import efficiency_series
from ..sim import AcceleratorClass
from .context import ExperimentContext
from .report import TableData
from .sensitivity import SensitivityResult, sensitivity_analysis

# Scenario used by Figs. 2 and 3 (the paper's first video) and Fig. 4.
_FIG3_SCENARIO = "s1_multi_background_varying_distance"
_FIG4_SCENARIO = "s2_fixed_distance_crossing"

# The YOLOv7 size ladder of Fig. 1a, largest to smallest.
_YOLO_LADDER = ("yolov7-e6e", "yolov7-x", "yolov7", "yolov7-tiny")
# The heterogeneous model set of Fig. 1b.
_MULTI_MODEL_SET = ("yolov7", "ssd-resnet50", "ssd-mobilenet-v1", "ssd-mobilenet-v2",
                    "ssd-mobilenet-v2-320", "yolov7-tiny")


@dataclass
class EALPoint:
    """One model's energy-accuracy-latency triple, normalized bigger-is-better."""

    model_name: str
    accuracy: float
    energy: float
    latency: float


@dataclass
class Figure1Result:
    """Fig. 1: e-a-l triangles for (a) single-family sizes, (b) multi-model."""

    single_family: list[EALPoint]
    multi_model: list[EALPoint]
    table: TableData


def _eal_points(ctx: ExperimentContext, models: tuple[str, ...]) -> list[EALPoint]:
    bundle = ctx.bundle
    perfs = {m: bundle.performance[(m, AcceleratorClass.GPU)] for m in models}
    accs = {m: bundle.accuracy[m].mean_iou for m in models}
    e_values = [p.mean_energy_j for p in perfs.values()]
    l_values = [p.mean_latency_s for p in perfs.values()]
    e_low, e_high = min(e_values), max(e_values)
    l_low, l_high = min(l_values), max(l_values)
    acc_high = max(accs.values())
    points = []
    for model in models:
        energy = perfs[model].mean_energy_j
        latency = perfs[model].mean_latency_s
        points.append(
            EALPoint(
                model_name=model,
                accuracy=accs[model] / acc_high,
                energy=1.0 - (energy - e_low) / (e_high - e_low) if e_high > e_low else 1.0,
                latency=1.0 - (latency - l_low) / (l_high - l_low) if l_high > l_low else 1.0,
            )
        )
    return points


def figure1(ctx: ExperimentContext) -> Figure1Result:
    """Fig. 1: single-model size ladder vs multi-model e-a-l trade-off.

    In (a) energy and latency improve monotonically as the YOLOv7 variant
    shrinks while accuracy monotonically drops; in (b) the relationship is
    non-monotonic — the defining observation of the paper's introduction.
    """
    single = _eal_points(ctx, _YOLO_LADDER)
    multi = _eal_points(ctx, _MULTI_MODEL_SET)
    table = TableData(
        title="Figure 1: normalized energy-accuracy-latency per model (GPU)",
        headers=["Set", "Model", "Accuracy", "Energy", "Latency"],
    )
    for point in single:
        table.add_row("single-family", point.model_name, point.accuracy, point.energy, point.latency)
    for point in multi:
        table.add_row("multi-model", point.model_name, point.accuracy, point.energy, point.latency)
    return Figure1Result(single_family=single, multi_model=multi, table=table)


@dataclass
class Figure2Result:
    """Fig. 2: per-model efficiency (IoU/J) timelines on the GPU."""

    window: int
    series: dict[str, list[float]]
    segment_boundaries: list[int]
    table: TableData


def figure2(ctx: ExperimentContext, window: int = 50) -> Figure2Result:
    """Fig. 2: single-model OD efficiency over the scenario-1 stream.

    Efficiency is IoU per joule in a sliding window; the crossing curves
    (small models dominating easy stretches, collapsing on hard ones) are
    the paper's motivation for context-aware model switching.
    """
    scenario = ctx.scenario(_FIG3_SCENARIO)
    series: dict[str, list[float]] = {}
    for spec in ctx.zoo:
        result = ctx.runner.run(SingleModelPolicy(spec.name, "gpu"), scenario)
        series[spec.name] = efficiency_series(result.records, window=window)

    table = TableData(
        title=f"Figure 2: single-model efficiency (IoU/J) per {window}-frame window, GPU",
        headers=["Model"] + [f"w{i}" for i in range(len(next(iter(series.values()))))],
    )
    for model, values in series.items():
        table.add_row(model, *[round(v, 2) for v in values])
    return Figure2Result(
        window=window,
        series=series,
        segment_boundaries=scenario.segment_boundaries(),
        table=table,
    )


@dataclass
class TimelineResult:
    """Figs. 3/4: what each policy ran over one scenario's timeline."""

    scenario_name: str
    window: int
    segment_boundaries: list[int]
    shift_models: list[str]  # per frame
    shift_swap_frames: list[int]
    shift_efficiency: list[float]
    shift_iou: list[float]  # per window
    shift_frame_iou: list[float]  # per frame
    shift_frame_detected: list[bool]  # per frame
    shift_frame_rescheduled: list[bool]  # per frame
    rescheduled_share: float  # fraction of frames with a full Algorithm-1 pass
    marlin_efficiency: list[float]
    oracle_efficiency: list[float]
    table: TableData
    segments: list[str] = field(default_factory=list)


def _windowed_iou(records, window: int) -> list[float]:
    values = []
    for start in range(0, len(records), window):
        chunk = [r for r in records[start : start + window] if r.ground_truth_present]
        values.append(sum(r.iou for r in chunk) / len(chunk) if chunk else 0.0)
    return values


def _timeline(ctx: ExperimentContext, scenario_name: str, window: int) -> TimelineResult:
    scenario = ctx.scenario(scenario_name)
    shift_run = ctx.runner.run(
        ShiftPipeline(ctx.bundle, config=ShiftConfig(), graph=ctx.graph), scenario
    )
    marlin_run = ctx.runner.run(MarlinPolicy("yolov7"), scenario)
    oracle_run = ctx.runner.run(oracle_accuracy(), scenario)

    swap_frames = [r.frame_index for r in shift_run.records if r.swap]
    result = TimelineResult(
        scenario_name=scenario.name,
        window=window,
        segment_boundaries=scenario.segment_boundaries(),
        shift_models=[r.model_name for r in shift_run.records],
        shift_swap_frames=swap_frames,
        shift_efficiency=efficiency_series(shift_run.records, window=window),
        shift_iou=_windowed_iou(shift_run.records, window),
        shift_frame_iou=[r.iou for r in shift_run.records],
        shift_frame_detected=[r.detected for r in shift_run.records],
        shift_frame_rescheduled=[r.rescheduled for r in shift_run.records],
        rescheduled_share=sum(1 for r in shift_run.records if r.rescheduled)
        / len(shift_run.records),
        marlin_efficiency=efficiency_series(marlin_run.records, window=window),
        oracle_efficiency=efficiency_series(oracle_run.records, window=window),
        table=TableData(
            title=f"{scenario.name}: windowed IoU/J (window={window})",
            headers=["Series"] + [f"w{i}" for i in range(len(_windowed_iou(shift_run.records, window)))],
        ),
        segments=[segment.name for segment in scenario.segments
                  for _ in range(segment.frames)],
    )
    result.table.add_row("SHIFT", *[round(v, 2) for v in result.shift_efficiency])
    result.table.add_row("Marlin", *[round(v, 2) for v in result.marlin_efficiency])
    result.table.add_row("Oracle A", *[round(v, 2) for v in result.oracle_efficiency])
    result.table.notes.append(
        f"SHIFT swaps at frames {swap_frames[:20]}{'...' if len(swap_frames) > 20 else ''}; "
        f"segment boundaries at {result.segment_boundaries}"
    )
    return result


def figure3(ctx: ExperimentContext, window: int = 50) -> TimelineResult:
    """Fig. 3: scenario 1 — varying distance across multiple backgrounds."""
    return _timeline(ctx, _FIG3_SCENARIO, window)


def figure4(ctx: ExperimentContext, window: int = 50) -> TimelineResult:
    """Fig. 4: scenario 2 — fixed distance, horizontal crossing."""
    return _timeline(ctx, _FIG4_SCENARIO, window)


def figure5(
    ctx: ExperimentContext,
    full_grid: bool = False,
    scenario_scale: float | None = None,
) -> SensitivityResult:
    """Fig. 5: parameter sensitivity of SHIFT (delegates to the sweep)."""
    return sensitivity_analysis(ctx, full_grid=full_grid, scenario_scale=scenario_scale)
