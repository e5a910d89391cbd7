"""Tests for characterization bundle persistence."""

import json

import pytest

from repro.characterization import (
    BundleSchemaError,
    bundle_from_dict,
    bundle_to_dict,
    characterize,
)
from repro.core import ConfidenceGraph, ShiftPipeline
from repro.models import default_zoo
from repro.runtime import load_bundle, save_bundle
from repro.sim import xavier_nx_with_oakd


@pytest.fixture(scope="module")
def bundle():
    return characterize(
        default_zoo(), xavier_nx_with_oakd(), validation_size=80, perf_repeats=3
    )


class TestRoundTrip:
    def test_dict_round_trip_exact(self, bundle):
        rebuilt = bundle_from_dict(bundle_to_dict(bundle))
        assert rebuilt.accuracy == bundle.accuracy
        assert rebuilt.performance == bundle.performance
        assert rebuilt.load_costs == bundle.load_costs
        assert rebuilt.observations == bundle.observations

    def test_file_round_trip(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        rebuilt = load_bundle(path)
        assert rebuilt.accuracy == bundle.accuracy
        assert len(rebuilt.observations) == len(bundle.observations)

    def test_serialized_form_is_plain_json(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert "yolov7" in payload["accuracy"]

    def test_loaded_bundle_drives_pipeline(self, bundle, tmp_path):
        """A bundle restored from disk must be usable end to end."""
        from repro.data import scenario_by_name
        from repro.runtime import ScenarioTrace, run_policy

        path = tmp_path / "bundle.json"
        save_bundle(bundle, path)
        rebuilt = load_bundle(path)
        trace = ScenarioTrace.build(
            scenario_by_name("s3_indoor_close_wall").scaled(0.02), default_zoo()
        )
        result = run_policy(ShiftPipeline(rebuilt), trace)
        assert result.frame_count == trace.frame_count

    def test_graph_identical_from_restored_observations(self, bundle):
        rebuilt = bundle_from_dict(bundle_to_dict(bundle))
        original = ConfidenceGraph.build(bundle.observations)
        restored = ConfidenceGraph.build(rebuilt.observations)
        assert original.node_keys() == restored.node_keys()
        assert original.predict("yolov7", 0.6) == restored.predict("yolov7", 0.6)


class TestSchemaErrors:
    def test_wrong_version_rejected(self, bundle):
        payload = bundle_to_dict(bundle)
        payload["schema_version"] = 99
        with pytest.raises(BundleSchemaError, match="schema"):
            bundle_from_dict(payload)

    def test_missing_section_rejected(self, bundle):
        payload = bundle_to_dict(bundle)
        del payload["performance"]
        with pytest.raises(BundleSchemaError):
            bundle_from_dict(payload)

    def test_malformed_accel_class_rejected(self, bundle):
        payload = bundle_to_dict(bundle)
        payload["performance"][0]["accel_class"] = "quantum"
        with pytest.raises(BundleSchemaError):
            bundle_from_dict(payload)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BundleSchemaError):
            load_bundle(path)
