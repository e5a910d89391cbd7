"""Each store's entry format: golden bytes, and load and scrub agreeing.

A store has one decoder per entry kind, and its load, its lazy trace
outcomes, scrub, audit and the quarantine re-check all call it.  So an
entry that one of them cannot decode is corrupt to all of them: a load
is a quarantined miss that recomputes, and scrub quarantines it too.
The golden digests pin the bytes each kind's encoder writes for literal
objects, so a store written by an older build is read warm by a newer
one.
"""

import hashlib
import json
import math
import struct
from types import SimpleNamespace

import pytest

from repro.baselines import SingleModelPolicy
from repro.characterization import (
    AccuracyTrait,
    CharacterizationBundle,
    ConfidenceObservation,
    PerformanceTrait,
)
from repro.core.records import FrameRecord, RunResult
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.models.detector import DetectionOutcome
from repro.runtime import (
    ExperimentRunner,
    RunKey,
    RunStore,
    ScenarioTrace,
    TraceCache,
    TraceStore,
    aggregate,
)
from repro.runtime.bundlestore import BundleKey, BundleStore
from repro.runtime.colfmt import ColumnFormatError
from repro.sim import LoadCost
from repro.sim.profiles import AcceleratorClass
from repro.vision.bbox import BoundingBox

SUBNORMAL = 5e-324


def poke(path, column, index, value):
    """Overwrite element ``index`` of a float64 column in place."""
    data = bytearray(path.read_bytes())
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12 : 12 + header_len])
    descriptor = next(d for d in header["columns"] if d["name"] == column)
    assert descriptor["dtype"] == "<f8"
    data_start = -(-(12 + header_len) // 64) * 64
    struct.pack_into("<d", data, data_start + descriptor["offset"] + 8 * index, value)
    path.write_bytes(bytes(data))


# ------------------------------------------------------------ literal entries


def literal_trace():
    scenario = SimpleNamespace(name="golden", fingerprint=lambda: "ab" * 32, total_frames=3)
    zoo = SimpleNamespace(fingerprint=lambda: "cd" * 32)

    def outcome(model, box, confidence, iou, quality, detected, false_positive):
        return DetectionOutcome(model, None if box is None else BoundingBox(*box),
                                confidence, iou, quality, detected, false_positive)

    outcomes = {
        "zeta": [
            outcome("zeta", (1.0, 2.0, 3.5, 4.25), 0.5, -0.0, SUBNORMAL, True, False),
            outcome("zeta", None, 0.0, 0.0, 0.25, False, False),
            outcome("zeta", (-0.0, 0.0, 1e-300, 2.0), 1.0, 0.75, 1.0, True, True),
        ],
        "alpha": [
            outcome("alpha", None, SUBNORMAL, 0.0, -0.0, False, False),
            outcome("alpha", (10.0, 20.0, 30.0, 40.0), 0.875, 0.5, 0.125, True, False),
            outcome("alpha", None, 0.1, 0.0, 0.3, False, False),
        ],
    }
    return ScenarioTrace(scenario=scenario, frames=None, outcomes=outcomes), zoo


def literal_run():
    def record(index, model, accelerator, box, iou, truth, latency, energy, **flags):
        return FrameRecord(
            frame_index=index, model_name=model, accelerator_name=accelerator,
            box=None if box is None else BoundingBox(*box), confidence=SUBNORMAL * index,
            iou=iou, ground_truth_present=truth, detected=box is not None,
            latency_s=latency, inference_s=0.01, stall_s=-0.0, overhead_s=1e-9,
            energy_j=energy, swap=flags.get("swap", False), cold_load=flags.get("cold", False),
            used_tracker=flags.get("tracked", False), rescheduled=flags.get("rescheduled", False),
            similarity=flags.get("similarity", 0.0),
        )

    records = [
        record(0, "yolo-b", "gpu", (1.0, 1.0, 2.0, 2.0), 0.5, True, 0.02, 0.1, cold=True),
        record(1, "yolo-a", "dla", None, math.nan, True, math.inf, 0.2, swap=True, similarity=-0.0),
        record(2**40, "yolo-a", "gpu", (0.0, -0.0, SUBNORMAL, 3.0), 0.0, False, 0.03, -math.inf,
               tracked=True, rescheduled=True, similarity=0.9),
    ]
    result = RunResult(policy_name="golden-policy", scenario_name="golden", records=records)
    key = RunKey("golden-policy", "p" * 64, "ab" * 32, "cd" * 32, "ef" * 32, 7)
    return result, key


def literal_bundle():
    gpu, dla = AcceleratorClass.GPU, AcceleratorClass.DLA
    bundle = CharacterizationBundle(
        accuracy={
            "zeta": AccuracyTrait("zeta", 0.5, 0.25, 0.75, 3),
            "alpha": AccuracyTrait("alpha", -0.0, SUBNORMAL, 1.0, 3),
        },
        performance={
            ("zeta", gpu): PerformanceTrait("zeta", gpu, 0.02, 10.0, 0.2, 5),
            ("alpha", dla): PerformanceTrait("alpha", dla, 0.05, 4.5, 0.225, 5),
        },
        load_costs={("zeta", gpu): LoadCost(120.0, 0.5, 8.0)},
        observations=[
            ConfidenceObservation(0, -0.0, {"zeta": (0.5, 0.25), "alpha": (SUBNORMAL, 0.0)}),
            ConfidenceObservation(2**50, math.inf, {"zeta": (1.0, math.nan), "alpha": (0.0, 1.0)}),
            ConfidenceObservation(3, SUBNORMAL, {"zeta": (-math.inf, 0.5), "alpha": (0.125, -0.0)}),
        ],
    )
    return bundle, BundleKey("01" * 32, "23" * 32, 3, 9, perf_repeats=5)


#: sha256 of each entry written for the literal objects above.
GOLDEN = {
    "trace": "8d9b14a80fd2ad6dd0f3591fc78346f49522a6d02a84069c0348930f8147699f",
    "run": "f53f262abd7b57f4ff5b6a81eff996d4930e42555be991fd01743123f7d5bdca",
    "bundle": "56d8d2831bf38bf5c8064c6d5e970cd9c5209eaa290afd7cac0d58b5c5a3c1e2",
}


class TestGoldenBytes:
    """The encoders write, for literal objects, the bytes pinned here."""

    def digest(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_trace_entry(self, tmp_path):
        trace, zoo = literal_trace()
        assert self.digest(TraceStore(tmp_path).save(trace, zoo)) == GOLDEN["trace"]

    def test_run_entry(self, tmp_path):
        result, key = literal_run()
        metrics = aggregate(result)
        assert math.isnan(metrics.mean_iou) and metrics.mean_latency_s == math.inf
        assert metrics.total_energy_j == -math.inf
        assert self.digest(RunStore(tmp_path).save(result, key)) == GOLDEN["run"]

    def test_bundle_entry(self, tmp_path):
        bundle, key = literal_bundle()
        assert self.digest(BundleStore(tmp_path).save(bundle, key)) == GOLDEN["bundle"]

    def test_each_entry_decodes_to_its_objects(self, tmp_path):
        trace, zoo = literal_trace()
        traces = TraceStore(tmp_path / "t")
        traces.save(trace, zoo)
        assert traces.load(trace.scenario, zoo).outcomes == trace.outcomes
        result, key = literal_run()
        runs = RunStore(tmp_path / "r")
        runs.save(result, key)
        loaded = runs.load(key)
        for got, want in zip(loaded.records, result.records, strict=True):
            assert repr(got) == repr(want)  # NaN != NaN: compare the reprs
        bundle, bundle_key = literal_bundle()
        bundles = BundleStore(tmp_path / "b")
        bundles.save(bundle, bundle_key)
        assert bundles.load(bundle_key).fingerprint() == bundle.fingerprint()
        for store in (traces, runs, bundles):
            assert store.audit() == (1, [])


# --------------------------------------------------------- load and scrub agree


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("s3_indoor_close_wall").scaled(0.05)


@pytest.fixture(scope="module")
def policy():
    return SingleModelPolicy("yolov7-tiny", "gpu")


class TestLoadAndScrubAgree:
    """An entry one reader cannot decode is corrupt to every reader."""

    def test_a_run_with_a_nan_box_coordinate_is_a_quarantined_miss(
        self, tmp_path, zoo, scenario, policy
    ):
        store = RunStore(tmp_path)
        cold = ExperimentRunner(zoo, run_store=store)
        want = cold.run(policy, scenario)
        key = cold.run_key(policy, scenario.fingerprint())
        path = store.path_for(key)
        frame = next(i for i, record in enumerate(want.records) if record.box is not None)
        poke(path, "box", 4 * frame + 2, math.nan)
        tampered = path.read_bytes()

        [problem] = store.audit()[1]
        assert path.name in problem and path.exists()
        report = store.scrub()
        assert report.quarantined == 1 and len(report.problems) == 1
        assert not path.exists()

        path.write_bytes(tampered)
        assert store.load(key) is None
        assert store.corrupt_entries == 1 and not path.exists()

        path.write_bytes(tampered)
        runner = ExperimentRunner(zoo, run_store=RunStore(tmp_path))
        assert runner.run(policy, scenario).records == want.records
        assert (runner.runs_executed, runner.run_store_hits) == (1, 0)
        assert runner.run_store.corrupt_entries == 1
        assert runner.run_store.load(key).records == want.records

    def test_a_trace_with_a_nan_box_coordinate_is_a_quarantined_miss(
        self, tmp_path, zoo, scenario, policy
    ):
        trace = ScenarioTrace.build(scenario, zoo)
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        models = list(trace.outcomes)
        m, f = next((m, f) for m, model in enumerate(models)
                    for f, outcome in enumerate(trace.outcomes[model]) if outcome.box is not None)
        poke(path, "box", 4 * (m * trace.frame_count + f) + 1, math.nan)
        tampered = path.read_bytes()

        report = store.scrub()
        assert report.quarantined == 1 and len(report.problems) == 1
        assert not path.exists()

        path.write_bytes(tampered)
        loaded = store.load(scenario, zoo)  # the header probe reads no column
        with pytest.raises(ColumnFormatError, match=path.name):
            loaded.outcomes  # noqa: B018 - the first access decodes
        assert store.corrupt_entries == 1 and not path.exists()
        assert store.load(scenario, zoo) is None
        cache = TraceCache(zoo, store=store)
        assert cache.get(scenario).outcomes == trace.outcomes
        assert (cache.builds, cache.store_hits) == (1, 0)

        # The cache decodes a stored trace before it publishes it: an entry
        # that does not decode is a miss built in the same call, never a
        # trace whose outcomes fail on every later read.
        path.write_bytes(tampered)
        cache = TraceCache(zoo, store=TraceStore(tmp_path))
        for _ in range(2):
            assert cache.get(scenario).outcomes == trace.outcomes
        assert (cache.builds, cache.store_hits) == (1, 0)
        assert cache.store.corrupt_entries == 1

        path.write_bytes(tampered)
        want = ExperimentRunner(zoo).run(policy, scenario)
        runner = ExperimentRunner(zoo, store=TraceStore(tmp_path))
        assert runner.run(policy, scenario).records == want.records
        assert (runner.cache.builds, runner.cache.store.corrupt_entries) == (1, 1)

    def test_a_bundle_with_a_renamed_trait_key_is_a_quarantined_miss(
        self, tmp_path, rewrite_header
    ):
        bundle, key = literal_bundle()
        store = BundleStore(tmp_path)
        path = store.save(bundle, key)

        def rename(header):
            traits = header["meta"]["bundle"]["accuracy"]["zeta"]
            traits["mean_iou_renamed"] = traits.pop("mean_iou")

        rewrite_header(path, rename)
        tampered = path.read_bytes()
        report = store.scrub()
        assert report.quarantined == 1 and not path.exists()

        path.write_bytes(tampered)
        assert store.load(key) is None
        assert store.corrupt_entries == 1 and not path.exists()

        path.write_bytes(tampered)
        builds = []
        assert store.get(key, lambda: builds.append(1) or bundle) is bundle
        assert builds == [1] and store.corrupt_entries == 2
        assert store.load(key).fingerprint() == bundle.fingerprint()
