"""Fast-run tier: engine equivalence, run-store reuse, counters.

The contract under test is the PR's headline: ``fast=True`` changes
nothing but wall-clock, and a run-store-backed runner never recomputes
what it can reload — across policies, scenarios, concurrent cells, and
repeat invocations.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.baselines import MarlinPolicy, SingleModelPolicy, oracle_energy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import (
    ExperimentRunner,
    RunStore,
    ScenarioTrace,
    TraceStore,
    run_policy,
)
from repro.core.policy import Policy
from repro.sim import xavier_nx_with_oakd


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenarios():
    return [
        scenario_by_name("s3_indoor_close_wall").scaled(0.05),
        scenario_by_name("s4_indoor_clutter").scaled(0.05),
    ]


@pytest.fixture(scope="module")
def trace(scenarios, zoo):
    return ScenarioTrace.build(scenarios[0], zoo)


class TestFastRunEquality:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SingleModelPolicy("yolov7-tiny", "gpu"),
            lambda: MarlinPolicy("yolov7"),
            lambda: oracle_energy(),
        ],
        ids=["single", "marlin", "oracle"],
    )
    def test_fast_records_equal_reference(self, trace, factory):
        reference = run_policy(factory(), trace, fast=False)
        fast = run_policy(factory(), trace, fast=True)
        assert fast.records == reference.records

    def test_fast_flag_honours_engine_seed(self, trace):
        a = run_policy(SingleModelPolicy("yolov7"), trace, engine_seed=1, fast=True)
        b = run_policy(SingleModelPolicy("yolov7"), trace, engine_seed=2, fast=True)
        assert a.records != b.records


class TestRunStoreBackedRunner:
    def test_warm_sweep_runs_nothing_and_matches(self, zoo, scenarios, tmp_path):
        policies = [MarlinPolicy("yolov7"), SingleModelPolicy("yolov7-tiny")]
        cold_runner = ExperimentRunner(
            zoo, store=TraceStore(tmp_path / "traces"), run_store=RunStore(tmp_path / "runs")
        )
        cold = cold_runner.sweep(policies, scenarios)
        assert cold_runner.runs_executed == len(policies) * len(scenarios)
        assert cold_runner.run_store_hits == 0

        warm_runner = ExperimentRunner(
            zoo, store=TraceStore(tmp_path / "traces"), run_store=RunStore(tmp_path / "runs")
        )
        warm = warm_runner.sweep(policies, scenarios)
        assert warm == cold
        assert warm_runner.runs_executed == 0
        assert warm_runner.run_store_hits == len(policies) * len(scenarios)
        # A fully warm sweep never touches the trace tier at all.
        assert warm_runner.cache.builds == 0
        assert len(warm_runner.cache) == 0

    def test_warm_sweep_matches_scalar_reference(self, zoo, scenarios, tmp_path):
        policies = [SingleModelPolicy("yolov7-tiny")]
        store_runner = ExperimentRunner(zoo, run_store=RunStore(tmp_path / "runs"))
        stored = store_runner.sweep(policies, scenarios)
        reference = ExperimentRunner(zoo, fast=False).sweep(policies, scenarios)
        assert stored == reference
        rewarmed = ExperimentRunner(zoo, run_store=RunStore(tmp_path / "runs"))
        assert rewarmed.sweep(policies, scenarios) == reference

    def test_run_returns_full_records_from_store(self, zoo, scenarios, tmp_path):
        runner = ExperimentRunner(zoo, run_store=RunStore(tmp_path))
        policy = SingleModelPolicy("yolov7-tiny")
        first = runner.run(policy, scenarios[0])
        again = runner.run(policy, scenarios[0])
        assert runner.run_store_hits == 1
        assert again.records == first.records

    def test_seed_change_invalidates(self, zoo, scenarios, tmp_path):
        policy = SingleModelPolicy("yolov7-tiny")
        a = ExperimentRunner(zoo, run_store=RunStore(tmp_path), engine_seed=1)
        a.run(policy, scenarios[0])
        b = ExperimentRunner(zoo, run_store=RunStore(tmp_path), engine_seed=2)
        b.run(policy, scenarios[0])
        assert b.run_store_hits == 0 and b.runs_executed == 1

    def test_unfingerprinted_policy_bypasses_store(self, zoo, scenarios, tmp_path):
        class Anonymous(Policy):
            name = "anonymous"

            def begin(self, services):
                self._services = services

            def step(self, frame):
                outcome = self._services.trace.outcome("yolov7-tiny", frame.index)
                inference = self._services.engine.run_inference(
                    "yolov7-tiny", self._services.soc.accelerator("gpu")
                )
                from repro.core.records import FrameRecord

                return FrameRecord(
                    frame_index=frame.index,
                    model_name="yolov7-tiny",
                    accelerator_name="gpu",
                    box=outcome.box,
                    confidence=outcome.confidence,
                    iou=outcome.iou,
                    ground_truth_present=frame.ground_truth is not None,
                    detected=outcome.detected,
                    latency_s=inference.latency_s,
                    inference_s=inference.latency_s,
                    stall_s=0.0,
                    overhead_s=0.0,
                    energy_j=inference.energy_j,
                    swap=False,
                    cold_load=False,
                )

        store = RunStore(tmp_path)
        runner = ExperimentRunner(zoo, run_store=store)
        runner.run(Anonymous(), scenarios[0])
        runner.run(Anonymous(), scenarios[0])
        assert runner.runs_executed == 2  # executed twice — never cached
        assert len(store) == 0

    def test_duplicate_policy_names_keep_every_row(self, zoo, scenarios):
        # Two same-named policies: all executed rows come back,
        # concatenated in policy order (never silently dropped).
        policies = [SingleModelPolicy("yolov7-tiny"), SingleModelPolicy("yolov7-tiny")]
        runner = ExperimentRunner(zoo)
        result = runner.sweep(policies, scenarios)
        assert list(result) == ["single:yolov7-tiny@gpu"]
        rows = result["single:yolov7-tiny@gpu"]
        assert len(rows) == 2 * len(scenarios)
        assert rows[: len(scenarios)] == rows[len(scenarios):]

    def test_parallel_runs_persist_and_rehit(self, zoo, scenarios, tmp_path):
        # The cell executor is thread-safe: cells run on concurrent threads
        # of one runner (as the sweep service runs them) share one build per
        # trace, persist, and a fresh runner rehits every one.
        policies = [SingleModelPolicy("yolov7-tiny"), SingleModelPolicy("yolov7")]
        cells = [(policy, scenario) for policy in policies for scenario in scenarios]
        shared = ExperimentRunner(
            zoo, store=TraceStore(tmp_path / "traces"), run_store=RunStore(tmp_path / "runs")
        )
        with ThreadPoolExecutor(max_workers=len(cells)) as pool:
            results = list(pool.map(lambda cell: shared.run(*cell), cells))
        reference = ExperimentRunner(zoo, fast=False)
        assert [r.records for r in results] == [reference.run(*cell).records for cell in cells]
        assert shared.runs_executed == len(cells)
        assert shared.cache.builds == len(scenarios)
        warm = ExperimentRunner(
            zoo, store=TraceStore(tmp_path / "traces"), run_store=RunStore(tmp_path / "runs")
        )
        assert warm.sweep(policies, scenarios) == reference.sweep(policies, scenarios)
        assert warm.runs_executed == 0
        assert warm.run_store_hits == len(cells)
