"""Tests for metric aggregation."""

import pytest

from repro.runtime import RunResult, aggregate, average_metrics, efficiency_series
from repro.core.records import FrameRecord
from repro.vision import BoundingBox


def _record(
    index=0,
    iou=0.6,
    energy=1.0,
    latency=0.1,
    truth=True,
    accel="gpu",
    swap=False,
    cold=False,
    detected=True,
    overhead=0.0,
):
    return FrameRecord(
        frame_index=index,
        model_name="yolov7",
        accelerator_name=accel,
        box=BoundingBox(0, 0, 10, 10) if detected else None,
        confidence=0.7,
        iou=iou,
        ground_truth_present=truth,
        detected=detected,
        latency_s=latency,
        inference_s=latency,
        stall_s=0.0,
        overhead_s=overhead,
        energy_j=energy,
        swap=swap,
        cold_load=cold,
    )


class TestFrameRecord:
    def test_success_threshold(self):
        assert _record(iou=0.5).success
        assert not _record(iou=0.49).success

    def test_non_gpu(self):
        assert _record(accel="dla0").non_gpu
        assert not _record(accel="gpu").non_gpu

    def test_pair(self):
        assert _record().pair == ("yolov7", "gpu")


class TestAggregate:
    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            aggregate(RunResult(policy_name="p", scenario_name="s"))

    def test_iou_only_over_truth_frames(self):
        records = [_record(iou=0.8), _record(iou=0.0, truth=False), _record(iou=0.4)]
        metrics = aggregate(RunResult("p", "s", records))
        assert metrics.mean_iou == pytest.approx(0.6)
        assert metrics.success_rate == pytest.approx(0.5)

    def test_energy_and_latency_over_all_frames(self):
        records = [_record(energy=1.0, latency=0.1), _record(energy=3.0, latency=0.3, truth=False)]
        metrics = aggregate(RunResult("p", "s", records))
        assert metrics.mean_energy_j == pytest.approx(2.0)
        assert metrics.mean_latency_s == pytest.approx(0.2)
        assert metrics.total_energy_j == pytest.approx(4.0)

    def test_counts(self):
        records = [
            _record(swap=False, cold=False),
            _record(swap=True, cold=True, accel="dla0"),
            _record(swap=True, accel="oakd"),
        ]
        metrics = aggregate(RunResult("p", "s", records))
        assert metrics.swaps == 2
        assert metrics.cold_loads == 1
        assert metrics.non_gpu_share == pytest.approx(2 / 3)
        assert metrics.pairs_used == 3

    def test_no_truth_frames_gives_zero_accuracy(self):
        metrics = aggregate(RunResult("p", "s", [_record(truth=False)]))
        assert metrics.mean_iou == 0.0
        assert metrics.success_rate == 0.0

    def test_efficiency_property(self):
        metrics = aggregate(RunResult("p", "s", [_record(iou=0.5, energy=2.0)]))
        assert metrics.efficiency_iou_per_joule == pytest.approx(0.25)

    def test_detected_share(self):
        records = [_record(detected=True), _record(detected=False)]
        metrics = aggregate(RunResult("p", "s", records))
        assert metrics.detected_share == 0.5


class TestAverageMetrics:
    def test_averages_rates_and_sums_counts(self):
        a = aggregate(RunResult("p", "s1", [_record(iou=0.8, energy=1.0, swap=True)]))
        b = aggregate(RunResult("p", "s2", [_record(iou=0.4, energy=3.0)]))
        avg = average_metrics([a, b], "p")
        assert avg.mean_iou == pytest.approx(0.6)
        assert avg.mean_energy_j == pytest.approx(2.0)
        assert avg.swaps == 1
        assert avg.frames == 2
        assert avg.scenario_name == "average"

    def test_pairs_used_fractional(self):
        a = aggregate(RunResult("p", "s1", [_record(), _record(accel="dla0")]))
        b = aggregate(RunResult("p", "s2", [_record()]))
        avg = average_metrics([a, b], "p")
        assert avg.pairs_used == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_metrics([], "p")


class TestEfficiencySeries:
    def test_windowing(self):
        records = [_record(iou=0.5, energy=1.0) for _ in range(10)]
        series = efficiency_series(records, window=5)
        assert len(series) == 2
        assert series[0] == pytest.approx(0.5)

    def test_zero_energy_window(self):
        records = [_record(iou=0.5, energy=0.0)]
        assert efficiency_series(records, window=5) == [0.0]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            efficiency_series([], window=0)

    def test_partial_final_window(self):
        records = [_record(iou=0.5, energy=1.0) for _ in range(7)]
        assert len(efficiency_series(records, window=5)) == 2
