"""Sensitivity analysis of SHIFT's parameters (paper §V-B, Fig. 5).

Sweeps the scheduler knobs (accuracy/energy/latency), the accuracy goal,
the momentum, and the confidence-graph distance threshold over a grid of
configurations, runs SHIFT under each, and reports the correlation of each
parameter with the achieved mean IoU, energy, and latency.  The grid runs
through :meth:`~repro.runtime.experiment.ExperimentRunner.sweep` of the
context's runner in chunks of :data:`SWEEP_CHUNK` points, so every point
runs on the fast tier, a run store keeps each point for the next
invocation, and only one chunk's pipelines are alive at a time.

The paper's expectations (all reproduced here):
* energy knob up   -> actual energy down (negative correlation),
* latency knob up  -> actual latency down,
* accuracy knob up -> accuracy, energy, and latency all up (more expensive
  models are more accurate),
* accuracy goal up -> primary metrics degrade (unmet goals collapse to
  knob-only optimization),
* momentum         -> minor effect (frame-to-frame results are stable),
* distance threshold up -> average latency down (more models in play).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from ..core import ShiftConfig, ShiftPipeline
from .context import ExperimentContext
from .report import TableData

# Quick grid: 3*3*3*3*2*2 = 324 configurations.
QUICK_GRID: dict[str, tuple[float, ...]] = {
    "knob_accuracy": (0.25, 0.5, 1.0),
    "knob_energy": (0.0, 0.5, 1.0),
    "knob_latency": (0.0, 0.5, 1.0),
    "accuracy_goal": (0.15, 0.30, 0.45),
    "momentum": (1, 30),
    "distance_threshold": (0.3, 0.7),
}

# Full grid: 1,860 configurations, approximating the paper's sweep size.
FULL_GRID: dict[str, tuple[float, ...]] = {
    "knob_accuracy": (0.0, 0.25, 0.5, 0.75, 1.0),
    "knob_energy": (0.0, 0.5, 1.0),
    "knob_latency": (0.0, 0.5, 1.0),
    "accuracy_goal": (0.1, 0.25, 0.4, 0.55),
    "momentum": (1, 15, 30, 60),
    "distance_threshold": (0.25, 0.5, 0.75),
}
# 5*3*3*4*4*3 = 2160; drop the all-zero-knob corner cases at runtime to
# land close to the paper's 1860 (zero weights everywhere make the argmax
# degenerate).

#: Grid points built and swept together.  A pipeline keeps its last run's
#: SoC, engine and scheduler until its sweep returns, so the chunk bounds
#: how many the sweep holds at once; rows come back in grid order either way.
SWEEP_CHUNK = 32


@dataclass(frozen=True)
class SweepPoint:
    """One configuration and the metrics SHIFT achieved under it."""

    config: ShiftConfig
    mean_iou: float
    mean_energy_j: float
    mean_latency_s: float


@dataclass
class SensitivityResult:
    """All sweep points plus per-parameter correlations."""

    points: list[SweepPoint]
    correlations: dict[str, dict[str, float]]  # parameter -> metric -> r
    table: TableData = field(default=None)  # type: ignore[assignment]

    def correlation(self, parameter: str, metric: str) -> float:
        """Pearson correlation of one parameter with one metric."""
        return self.correlations[parameter][metric]


def _pearson(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys, strict=True))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _grid_configs(grid: dict[str, tuple[float, ...]]) -> list[ShiftConfig]:
    names = list(grid)
    configs = []
    for values in itertools.product(*(grid[name] for name in names)):
        params = dict(zip(names, values, strict=True))
        if (
            params["knob_accuracy"] == 0.0
            and params["knob_energy"] == 0.0
            and params["knob_latency"] == 0.0
        ):
            continue  # degenerate: nothing to optimize
        params["momentum"] = int(params["momentum"])
        configs.append(ShiftConfig(**params))
    return configs


def sensitivity_analysis(
    ctx: ExperimentContext,
    full_grid: bool = False,
    scenario_scale: float | None = None,
    scenario_name: str = "s1_multi_background_varying_distance",
) -> SensitivityResult:
    """Sweep the grid on one scenario and correlate parameters to metrics.

    ``scenario_scale`` further shortens the sweep scenario relative to the
    context's scale (each configuration is a full policy run; the paper's
    1,860-point sweep needs a short video to stay tractable).
    """
    grid = FULL_GRID if full_grid else QUICK_GRID
    scenario = ctx.scenario(scenario_name)
    if scenario_scale is not None:
        scenario = scenario.scaled(scenario_scale)

    # One confidence-graph structure serves every configuration: only the
    # bounded-search threshold differs, and re-thresholding is cheap.
    graphs = {
        threshold: ctx.graph.with_distance_threshold(threshold)
        for threshold in grid["distance_threshold"]
    }
    configs = _grid_configs(grid)
    rows = []
    for start in range(0, len(configs), SWEEP_CHUNK):
        pipelines = [
            ShiftPipeline(ctx.bundle, config=config, graph=graphs[config.distance_threshold])
            for config in configs[start:start + SWEEP_CHUNK]
        ]
        # Every pipeline is named "shift", so each sweep's one row list
        # holds a row per configuration, in grid order.
        rows += ctx.runner.sweep(pipelines, [scenario])[ShiftPipeline.name]
    points = [
        SweepPoint(
            config=config,
            mean_iou=metrics.mean_iou,
            mean_energy_j=metrics.mean_energy_j,
            mean_latency_s=metrics.mean_latency_s,
        )
        for config, metrics in zip(configs, rows, strict=True)
    ]

    parameters = list(grid)
    metrics_of = {
        "accuracy": [p.mean_iou for p in points],
        "energy": [p.mean_energy_j for p in points],
        "latency": [p.mean_latency_s for p in points],
    }
    correlations = {
        parameter: {
            metric: _pearson(
                [float(getattr(p.config, parameter)) for p in points], values
            )
            for metric, values in metrics_of.items()
        }
        for parameter in parameters
    }

    table = TableData(
        title=f"Figure 5: sensitivity over {len(points)} configurations "
        f"({'full' if full_grid else 'quick'} grid, scenario {scenario.name})",
        headers=["Parameter", "r(mean accuracy)", "r(mean energy)", "r(mean latency)"],
    )
    for parameter in parameters:
        table.add_row(
            parameter,
            round(correlations[parameter]["accuracy"], 3),
            round(correlations[parameter]["energy"], 3),
            round(correlations[parameter]["latency"], 3),
        )
    return SensitivityResult(points=points, correlations=correlations, table=table)
