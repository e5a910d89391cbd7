"""Tests for the experiment harness (tables, figures, sensitivity).

These run at a very small scale: the goal is correctness of the harness
plumbing, not paper-scale numbers (the benchmarks cover those).
"""

import dataclasses
import threading

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

    def test_threads_that_first_touch_the_bundle_together_share_one(self, monkeypatch):
        """Two threads released together characterize once and hash each digest once."""
        from repro.characterization import CharacterizationBundle
        from repro.core import ConfidenceGraph
        from repro.experiments import context as context_module

        characterized, digests = [], []
        real_characterize = context_module.characterize

        def counting_characterize(*args, **kwargs):
            characterized.append(None)
            return real_characterize(*args, **kwargs)

        def counting_digest(cls):
            real = cls.fingerprint

            def fingerprint(self):
                if getattr(self, "_fingerprint", None) is None:
                    digests.append(cls.__name__)
                return real(self)

            return fingerprint

        monkeypatch.setattr(context_module, "characterize", counting_characterize)
        for cls in (CharacterizationBundle, ConfidenceGraph):
            monkeypatch.setattr(cls, "fingerprint", counting_digest(cls))

        fresh = ExperimentContext(scale=0.05, validation_size=60)
        barrier = threading.Barrier(2)
        seen = []

        def first_touch():
            barrier.wait()
            bundle, graph = fresh.bundle, fresh.graph
            seen.append((bundle, graph, bundle.fingerprint(), graph.fingerprint()))

        threads = [threading.Thread(target=first_touch) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(characterized) == 1
        (bundle, graph, *_), (other_bundle, other_graph, *_) = seen
        assert bundle is other_bundle and graph is other_graph
        assert sorted(digests) == ["CharacterizationBundle", "ConfidenceGraph"]

    def test_a_replaced_context_gets_its_own_lock(self, ctx):
        copy = dataclasses.replace(ctx, scale=0.1)
        assert copy._lock is not ctx._lock
        assert copy.scale == 0.1 and copy.validation_size == ctx.validation_size


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
