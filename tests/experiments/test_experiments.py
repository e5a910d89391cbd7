"""Tests for the experiment harness (tables, figures, sensitivity).

These run at a very small scale: the goal is correctness of the harness
plumbing, not paper-scale numbers (the benchmarks cover those).
"""

import pytest

from repro.core import ShiftConfig
from repro.experiments import (
    ExperimentContext,
    figure1,
    figure2,
    figure3,
    figure4,
    headline_claims,
    sensitivity_analysis,
    table1,
    table2,
    table3,
    table4,
)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(scale=0.05, validation_size=150)


class TestContext:
    def test_lazy_shared_artifacts(self, ctx):
        assert ctx.bundle is ctx.bundle
        assert ctx.graph is ctx.graph
        assert ctx.soc is ctx.soc

    def test_scaled_scenarios(self, ctx):
        scenarios = ctx.scenarios()
        assert len(scenarios) == 6
        assert all(s.total_frames < 200 for s in scenarios)

    def test_scenario_lookup(self, ctx):
        scenario = ctx.scenario("s2_fixed_distance_crossing")
        assert scenario.name == "s2_fixed_distance_crossing"
        with pytest.raises(KeyError):
            ctx.scenario("nope")

    def test_invalid_params_rejected(self):
        for scale in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ExperimentContext(scale=scale)
        with pytest.raises(ValueError):
            ExperimentContext(validation_size=0)


class TestTables:
    def test_table1_rows(self, ctx):
        result = table1(ctx)
        assert len(result.rows) == 3

    def test_table2_static(self):
        result = table2()
        assert len(result.rows) == 6

    def test_table3_structure(self, ctx):
        result = table3(ctx)
        assert set(result.metrics) == {
            "Marlin", "Marlin Tiny", "SHIFT", "Oracle E", "Oracle A", "Oracle L",
        }
        assert len(result.table.rows) == 6
        for runs in result.per_scenario.values():
            assert len(runs) == 6  # one per scenario

    def test_table3_custom_config(self, ctx):
        result = table3(ctx, ShiftConfig(knob_energy=1.0))
        assert "SHIFT" in result.metrics

    def test_table4_all_models(self, ctx):
        result = table4(ctx)
        assert len(result.rows) == 8

    def test_headline_positive_ratios(self, ctx):
        claims = headline_claims(ctx)
        assert claims.energy_improvement > 1.0
        assert claims.iou_ratio > 0.5


class TestFigures:
    def test_figure1_sets(self, ctx):
        result = figure1(ctx)
        assert len(result.single_family) == 4
        assert len(result.multi_model) == 6

    def test_figure2_series(self, ctx):
        result = figure2(ctx, window=10)
        assert set(result.series) == set(ctx.zoo.names())

    def test_figure3_timeline(self, ctx):
        result = figure3(ctx, window=10)
        assert len(result.shift_models) == ctx.scenario(
            "s1_multi_background_varying_distance"
        ).total_frames
        assert 0.0 <= result.rescheduled_share <= 1.0

    def test_figure4_timeline(self, ctx):
        result = figure4(ctx, window=10)
        assert result.scenario_name == "s2_fixed_distance_crossing"
        assert len(result.segments) == len(result.shift_models)


class TestSensitivity:
    def test_small_sweep(self, ctx):
        result = sensitivity_analysis(ctx, scenario_scale=0.5)
        assert len(result.points) > 100
        for parameter, per_metric in result.correlations.items():
            for metric, r in per_metric.items():
                assert -1.0 <= r <= 1.0, (parameter, metric)

    def test_correlation_lookup(self, ctx):
        result = sensitivity_analysis(ctx, scenario_scale=0.5)
        assert result.correlation("knob_energy", "energy") == (
            result.correlations["knob_energy"]["energy"]
        )
