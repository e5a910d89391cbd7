"""Tests for constraint-satisfaction reporting."""

import pytest

from repro.runtime import RunResult, evaluate_constraints
from repro.core.records import FrameRecord


def _record(index, latency, energy):
    return FrameRecord(
        frame_index=index,
        model_name="m",
        accelerator_name="gpu",
        box=None,
        confidence=0.5,
        iou=0.5,
        ground_truth_present=True,
        detected=True,
        latency_s=latency,
        inference_s=latency,
        stall_s=0.0,
        overhead_s=0.0,
        energy_j=energy,
        swap=False,
        cold_load=False,
    )


def _run(latencies, energies=None):
    energies = energies or [1.0] * len(latencies)
    records = [_record(i, lat, e) for i, (lat, e) in enumerate(zip(latencies, energies, strict=True))]
    return RunResult("p", "s", records)


class TestDeadline:
    def test_all_frames_meet_deadline(self):
        report = evaluate_constraints(_run([0.01, 0.02, 0.03]), deadline_s=0.05)
        assert report.deadline_hit_rate == 1.0
        assert report.deadline_met

    def test_partial_misses(self):
        report = evaluate_constraints(_run([0.01, 0.08, 0.02, 0.09]), deadline_s=0.05)
        assert report.deadline_hit_rate == 0.5
        assert not report.deadline_met

    def test_no_deadline_always_met(self):
        report = evaluate_constraints(_run([10.0]))
        assert report.deadline_met

    def test_worst_and_p99(self):
        latencies = [0.01] * 99 + [0.5]
        report = evaluate_constraints(_run(latencies), deadline_s=0.05)
        assert report.worst_latency_s == 0.5
        assert report.p99_latency_s >= 0.01

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            evaluate_constraints(_run([0.1]), deadline_s=0.0)


class TestBudget:
    def test_within_budget(self):
        report = evaluate_constraints(_run([0.1] * 3, [1.0, 1.0, 1.0]), energy_budget_j=5.0)
        assert report.within_budget
        assert report.budget_exhausted_at_frame is None
        assert report.total_energy_j == pytest.approx(3.0)

    def test_budget_exhaustion_frame(self):
        report = evaluate_constraints(_run([0.1] * 4, [2.0, 2.0, 2.0, 2.0]), energy_budget_j=5.0)
        assert not report.within_budget
        assert report.budget_exhausted_at_frame == 2  # cumulative 6.0 > 5.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            evaluate_constraints(_run([0.1]), energy_budget_j=-1.0)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            evaluate_constraints(RunResult("p", "s"))


class TestIntegration:
    def test_shift_meets_camera_deadline_more_than_single_model(self):
        from repro.baselines import SingleModelPolicy
        from repro.characterization import characterize
        from repro.data import CAMERA_FPS, scenario_by_name
        from repro.models import default_zoo
        from repro.runtime import ScenarioTrace, run_policy
        from repro.core import ShiftPipeline
        from repro.sim import xavier_nx_with_oakd

        zoo = default_zoo()
        bundle = characterize(zoo, xavier_nx_with_oakd(), validation_size=100, perf_repeats=3)
        trace = ScenarioTrace.build(
            scenario_by_name("s3_indoor_close_wall").scaled(0.1), zoo
        )
        deadline = 1.0 / CAMERA_FPS  # real-time: one camera period
        shift = evaluate_constraints(
            run_policy(ShiftPipeline(bundle), trace), deadline_s=deadline
        )
        single = evaluate_constraints(
            run_policy(SingleModelPolicy("yolov7", "gpu"), trace), deadline_s=deadline
        )
        # YoloV7@GPU (130 ms) can never make a 33 ms camera deadline;
        # SHIFT's cheap models mostly can.
        assert single.deadline_hit_rate == 0.0
        assert shift.deadline_hit_rate > 0.5
