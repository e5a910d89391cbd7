"""Tests for the policy runner."""

import ast
from pathlib import Path

import pytest

import repro

from repro.baselines import SingleModelPolicy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import ExperimentRunner, ScenarioTrace, TraceCache, run_policy
from repro.sim import xavier_nx_with_oakd


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def trace(zoo):
    return ScenarioTrace.build(scenario_by_name("s3_indoor_close_wall").scaled(0.05), zoo)


class TestRunPolicy:
    def test_builds_fresh_soc_by_default(self, trace):
        result = run_policy(SingleModelPolicy("yolov7", "gpu"), trace)
        assert result.frame_count == trace.frame_count

    def test_reuses_and_resets_provided_soc(self, trace):
        soc = xavier_nx_with_oakd()
        soc.clock.advance(99.0)
        soc.meter.record_draw("VDD_GPU", 10, 10)
        run_policy(SingleModelPolicy("yolov7", "gpu"), trace, soc=soc)
        # The run reset the platform before starting; its clock reflects
        # only this run's activity.
        assert soc.clock.now < 99.0

    def test_engine_seed_controls_jitter(self, trace):
        a = run_policy(SingleModelPolicy("yolov7", "gpu"), trace, engine_seed=1)
        b = run_policy(SingleModelPolicy("yolov7", "gpu"), trace, engine_seed=2)
        assert a.records[1].latency_s != b.records[1].latency_s

    def test_run_result_names(self, trace):
        result = run_policy(SingleModelPolicy("yolov7", "gpu"), trace)
        assert result.scenario_name == trace.scenario.name
        assert result.policy_name == "single:yolov7@gpu"


class TestRunOnScenarios:
    def test_one_metrics_row_per_scenario(self, zoo):
        scenarios = [
            scenario_by_name("s3_indoor_close_wall").scaled(0.05),
            scenario_by_name("s4_indoor_clutter").scaled(0.05),
        ]
        metrics = ExperimentRunner(zoo).run_policy_on_scenarios(
            SingleModelPolicy("yolov7", "gpu"), scenarios
        )
        assert len(metrics) == 2
        assert metrics[0].scenario_name != metrics[1].scenario_name

    def test_shared_cache_reused(self, zoo):
        scenarios = [scenario_by_name("s3_indoor_close_wall").scaled(0.05)]
        cache = TraceCache(zoo)
        ExperimentRunner(cache=cache).run_policy_on_scenarios(
            SingleModelPolicy("yolov7", "gpu"), scenarios
        )
        assert len(cache) == 1
        ExperimentRunner(cache=cache).run_policy_on_scenarios(
            SingleModelPolicy("yolov7-tiny", "gpu"), scenarios
        )
        assert len(cache) == 1

    def test_forwards_custom_soc_instance(self, zoo):
        # Regression: sweeps used to ignore a caller's SoC and always run
        # on a fresh default platform.
        scenarios = [scenario_by_name("s3_indoor_close_wall").scaled(0.05)]
        soc = xavier_nx_with_oakd()
        assert soc.clock.now == 0.0
        ExperimentRunner(zoo, soc=soc).run_policy_on_scenarios(
            SingleModelPolicy("yolov7", "gpu"), scenarios
        )
        assert soc.clock.now > 0.0, "provided platform was never used"

    def test_forwards_soc_factory(self, zoo):
        scenarios = [scenario_by_name("s3_indoor_close_wall").scaled(0.05)]
        built = []

        def factory():
            soc = xavier_nx_with_oakd()
            built.append(soc)
            return soc

        ExperimentRunner(zoo, soc=factory).run_policy_on_scenarios(
            SingleModelPolicy("yolov7", "gpu"), scenarios
        )
        assert len(built) == len(scenarios)
        assert all(soc.clock.now > 0.0 for soc in built)


class TestOneExecutor:
    def test_only_the_executor_and_the_checks_call_run_policy(self):
        # Every command runs its cells through ExperimentRunner; the
        # scalar loop is called directly only by the executor itself and
        # by the differential checks that compare against it.
        package = Path(repro.__file__).resolve().parent
        callers = []
        for path in sorted(package.rglob("*.py")):
            module = path.relative_to(package).as_posix()
            if module in ("runtime/runner.py", "runtime/experiment.py") or module.startswith(
                "verify/"
            ):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "run_policy":
                    callers.append(f"{module}:{node.lineno}")
        assert callers == []
