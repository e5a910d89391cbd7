"""Tests for the offline characterization profiler."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.characterization import (
    characterize,
    profile_accuracy,
    profile_load_costs,
    profile_performance,
)
from repro.data import build_validation_set
from repro.models import default_zoo
from repro.sim import AcceleratorClass, perf_point, xavier_nx_with_oakd


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def samples():
    return build_validation_set(150, seed=7151)


@pytest.fixture(scope="module")
def soc():
    return xavier_nx_with_oakd()


class TestProfileAccuracy:
    def test_traits_for_every_model(self, zoo, samples):
        traits, observations = profile_accuracy(zoo, samples)
        assert set(traits) == set(zoo.names())
        assert len(observations) == len(samples)

    def test_trait_ranges(self, zoo, samples):
        traits, _ = profile_accuracy(zoo, samples)
        for trait in traits.values():
            assert 0.0 <= trait.mean_iou <= 1.0
            assert 0.0 <= trait.success_rate <= 1.0
            assert 0.0 <= trait.mean_confidence <= 1.0
            assert trait.sample_count > 0

    def test_observations_cover_all_models(self, zoo, samples):
        _, observations = profile_accuracy(zoo, samples)
        for obs in observations[:10]:
            assert set(obs.readings) == set(zoo.names())
            for confidence, iou in obs.readings.values():
                assert 0.0 <= confidence <= 1.0
                assert 0.0 <= iou <= 1.0

    def test_yolov7_most_accurate(self, zoo, samples):
        traits, _ = profile_accuracy(zoo, samples)
        best = max(traits.values(), key=lambda t: t.mean_iou)
        assert best.model_name == "yolov7"

    def test_empty_samples_rejected(self, zoo):
        with pytest.raises(ValueError):
            profile_accuracy(zoo, [])


class TestProfilePerformance:
    def test_measured_means_near_profiles(self, zoo, soc):
        perf = profile_performance(zoo, soc, repeats=60, seed=5)
        point = perf[("yolov7", AcceleratorClass.GPU)]
        expected = perf_point("yolov7", AcceleratorClass.GPU)
        assert point.mean_latency_s == pytest.approx(expected.latency_s, rel=0.05)
        assert point.mean_power_w == pytest.approx(expected.power_w, rel=0.05)

    def test_only_supported_pairs_profiled(self, zoo, soc):
        perf = profile_performance(zoo, soc, repeats=3)
        assert ("ssd-resnet50", AcceleratorClass.OAKD) not in perf
        assert ("yolov7", AcceleratorClass.OAKD) in perf

    def test_cpu_profiled_for_table1(self, zoo, soc):
        perf = profile_performance(zoo, soc, repeats=3)
        assert ("yolov7", AcceleratorClass.CPU) in perf

    def test_invalid_repeats_rejected(self, zoo, soc):
        with pytest.raises(ValueError):
            profile_performance(zoo, soc, repeats=0)


class TestProfileLoadCosts:
    def test_costs_for_supported_pairs(self, zoo, soc):
        costs = profile_load_costs(zoo, soc)
        assert ("yolov7", AcceleratorClass.GPU) in costs
        assert ("ssd-resnet50", AcceleratorClass.OAKD) not in costs

    def test_bundle_order_does_not_follow_the_hash_seed(self):
        # Fingerprints sort their inputs, but a saved bundle's bytes keep
        # dict order: characterize under two hash seeds and compare.
        code = (
            "import json\n"
            "from repro.characterization import bundle_to_dict, characterize\n"
            "from repro.models import default_zoo\n"
            "from repro.sim import xavier_nx_with_oakd\n"
            "bundle = characterize(default_zoo(), xavier_nx_with_oakd(),"
            " validation_size=20, perf_repeats=2)\n"
            "print(json.dumps(bundle_to_dict(bundle)))\n"
        )
        package_root = Path(repro.__file__).resolve().parent.parent
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": str(package_root), "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]


class TestCharacterize:
    def test_bundle_complete(self, zoo, soc):
        bundle = characterize(zoo, soc, validation_size=60, perf_repeats=3)
        assert set(bundle.accuracy) == set(zoo.names())
        assert len(bundle.observations) == 60
        assert bundle.performance
        assert bundle.load_costs
        assert bundle.model_names() == zoo.names()

    def test_custom_samples(self, zoo, soc, samples):
        bundle = characterize(zoo, soc, samples=samples, perf_repeats=3)
        assert len(bundle.observations) == len(samples)
