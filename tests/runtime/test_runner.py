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
        # A caller with its own platform runs the runner's traces through
        # run_policy(soc=...): the instance it passes is the one each run
        # uses, reset between scenarios, so every row equals the runner's
        # own run on a fresh platform.
        scenarios = [
            scenario_by_name("s3_indoor_close_wall").scaled(0.05),
            scenario_by_name("s4_indoor_clutter").scaled(0.05),
        ]
        runner = ExperimentRunner(zoo)
        policy = SingleModelPolicy("yolov7", "gpu")
        soc = xavier_nx_with_oakd()
        assert soc.clock.now == 0.0
        for scenario in scenarios:
            result = run_policy(policy, runner.trace(scenario), soc=soc,
                                engine_seed=runner.engine_seed)
            assert soc.clock.now > 0.0, "provided platform was never used"
            assert result.records == runner.run(policy, scenario).records


def calls_outside(name, allowed):
    """``module:line`` of every call to ``name`` in a repro module ``allowed`` rejects."""
    package = Path(repro.__file__).resolve().parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if allowed(module):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                calls.append(f"{module}:{node.lineno}")
    return calls


class TestOneExecutor:
    def test_only_the_executor_and_the_checks_call_run_policy(self):
        # Every command runs its cells through ExperimentRunner; the
        # scalar loop is called directly only by the executor itself and
        # by the differential checks that compare against it.
        executors = ("runtime/runner.py", "runtime/experiment.py")
        assert calls_outside(
            "run_policy", lambda module: module in executors or module.startswith("verify/")
        ) == []


class TestOneProcessPool:
    def test_only_the_trace_builder_starts_a_process_pool(self):
        # Trace builds fan out on one pool (runtime/trace.py::_pool_build);
        # cells run in the calling process, and process-parallel cells are
        # the queue fleet's worker processes, never a second pool.
        assert calls_outside(
            "ProcessPoolExecutor", lambda module: module == "runtime/trace.py"
        ) == []
