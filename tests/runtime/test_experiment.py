"""Tests for the persistent parallel experiment runner."""

import pytest

from repro.baselines import MarlinPolicy, SingleModelPolicy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import ExperimentRunner, TraceCache, TraceStore, aggregate, run_policy
from repro.sim import gpu_only_soc, xavier_nx_with_oakd


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenarios():
    return [
        scenario_by_name("s3_indoor_close_wall").scaled(0.05),
        scenario_by_name("s4_indoor_clutter").scaled(0.05),
    ]


class TestTraceTier:
    def test_build_traces_warms_cache(self, zoo, scenarios):
        runner = ExperimentRunner(zoo)
        traces = runner.build_traces(scenarios)
        assert len(traces) == len(scenarios)
        assert runner.cache.builds == len(scenarios)
        runner.build_traces(scenarios)
        assert runner.cache.builds == len(scenarios), "warm scenarios must not rebuild"

    def test_parallel_build_traces_matches_serial(self, zoo, scenarios, monkeypatch):
        # Drop both pool guards so the cross-scenario fan-out really runs
        # on these small scenarios; outcomes must match serial exactly.
        import repro.runtime.trace as trace_module

        serial = ExperimentRunner(zoo).build_traces(scenarios)
        monkeypatch.setattr(trace_module, "MIN_MODEL_FRAMES_PER_WORKER", 1)
        monkeypatch.setattr(trace_module, "_available_cpus", lambda: 8)
        pooled = []
        real_pool_build = trace_module._pool_build

        def spy(batch, *args):
            pooled.append(len(batch))
            return real_pool_build(batch, *args)

        monkeypatch.setattr(trace_module, "_pool_build", spy)
        runner = ExperimentRunner(zoo, max_workers=3)
        parallel = runner.build_traces(scenarios)
        assert pooled == [len(scenarios)], "the cross-scenario pool never ran"
        assert runner.cache.builds == len(scenarios)
        for a, b in zip(serial, parallel, strict=True):
            assert a.outcomes == b.outcomes

    def test_store_backed_runner_skips_rebuilds_across_instances(self, zoo, scenarios, tmp_path):
        store = TraceStore(tmp_path)
        first = ExperimentRunner(zoo, store=store)
        first.build_traces(scenarios)
        assert first.cache.builds == len(scenarios)

        files = sorted(
            p for p in tmp_path.rglob("trace-*") if p.suffix in (".json", ".col")
        )
        assert len(files) == len(scenarios), "every built trace must persist"
        mtimes = [f.stat().st_mtime_ns for f in files]

        second = ExperimentRunner(zoo, store=TraceStore(tmp_path))
        second.build_traces(scenarios)
        assert second.cache.builds == 0, "second invocation must reuse persisted traces"
        assert [f.stat().st_mtime_ns for f in files] == mtimes, "reuse must not rewrite files"

    def test_zoo_and_foreign_cache_conflict(self, zoo):
        with pytest.raises(ValueError, match="zoo or a cache"):
            ExperimentRunner(zoo, cache=TraceCache(default_zoo()))


class TestSweep:
    def test_sweep_shape(self, zoo, scenarios):
        runner = ExperimentRunner(zoo)
        results = runner.sweep(
            [SingleModelPolicy("yolov7", "gpu"), MarlinPolicy("yolov7-tiny")], scenarios
        )
        assert set(results) == {"single:yolov7@gpu", "marlin:yolov7-tiny"}
        for rows in results.values():
            assert [m.scenario_name for m in rows] == [s.name for s in scenarios]

    def test_parallel_sweep_equals_serial(self, zoo, scenarios, tmp_path, monkeypatch):
        # The misses' traces build on the cross-scenario pool and persist;
        # a second runner loads them whole from the store.  Both sweeps
        # give the serial rows.
        import repro.runtime.trace as trace_module

        policies = [SingleModelPolicy("yolov7", "gpu"), MarlinPolicy("yolov7-tiny")]
        serial = ExperimentRunner(zoo).sweep(policies, scenarios)
        monkeypatch.setattr(trace_module, "MIN_MODEL_FRAMES_PER_WORKER", 1)
        monkeypatch.setattr(trace_module, "_available_cpus", lambda: 8)
        pooled = []
        real_pool_build = trace_module._pool_build

        def spy(batch, *args):
            pooled.append(len(batch))
            return real_pool_build(batch, *args)

        monkeypatch.setattr(trace_module, "_pool_build", spy)
        parallel = ExperimentRunner(zoo, store=TraceStore(tmp_path), max_workers=2)
        assert parallel.sweep(policies, scenarios) == serial
        assert pooled == [len(scenarios)], "the cross-scenario pool never ran"
        reloaded = ExperimentRunner(zoo, store=TraceStore(tmp_path), max_workers=2)
        assert reloaded.sweep(policies, scenarios) == serial
        assert (reloaded.cache.builds, reloaded.cache.store_hits) == (0, len(scenarios))
        assert pooled == [len(scenarios)], "stored traces must not rebuild"

    def test_soc_factory_is_honoured(self, zoo, scenarios):
        # The runner's cells run on a fresh default platform; another
        # platform (the ablation's GPU-only SoC) is a run_policy argument
        # over the runner's traces.
        runner = ExperimentRunner(zoo)

        def on(factory, policy):
            return [
                aggregate(run_policy(policy, runner.trace(scenario), soc=factory(),
                                     engine_seed=runner.engine_seed))
                for scenario in scenarios
            ]

        # A DLA exists only on the default platform.
        on_dla = SingleModelPolicy("yolov7-tiny", "dla0")
        assert runner.run_policy_on_scenarios(on_dla, scenarios) == on(xavier_nx_with_oakd, on_dla)
        with pytest.raises(KeyError, match="dla0"):
            on(gpu_only_soc, on_dla)
        # Same model on the same GPU: identical accuracy either way.
        policy = SingleModelPolicy("yolov7", "gpu")
        default_metrics = runner.run_policy_on_scenarios(policy, scenarios)
        assert on(xavier_nx_with_oakd, policy) == default_metrics
        metrics = on(gpu_only_soc, policy)
        assert len(metrics) == len(scenarios)
        assert [m.mean_iou for m in metrics] == [m.mean_iou for m in default_metrics]
