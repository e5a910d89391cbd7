"""Tests for the characterization-bundle store.

A stored bundle must be indistinguishable from a fresh characterization:
every field, every dict order, the fingerprint, and the confidence graph
built from it.  A different key must miss, and a torn entry must cost a
re-characterization, never a wrong bundle.
"""

import math
import struct

import numpy as np
import pytest

import repro.experiments.context as context_module
from repro.characterization import BundleSchemaError, characterize
from repro.core import ConfidenceGraph
from repro.experiments import ExperimentContext
from repro.models import default_zoo
from repro.runtime import TraceStore, colfmt, iolayer
from repro.runtime.bundlestore import (
    BUNDLE_DIR,
    BundleKey,
    BundleStore,
    bundle_entry_to_dict,
    load_bundle,
    save_bundle,
)
from repro.runtime.iolayer import RETRY_ATTEMPTS, FsFaultEvent, FsFaultPlan, StoreDegraded
from repro.sim import gpu_only_soc, xavier_nx_with_oakd

VALIDATION = 60
SEED = 7151


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def soc():
    return xavier_nx_with_oakd()


@pytest.fixture(scope="module")
def bundle(zoo, soc):
    return characterize(zoo, soc, validation_size=VALIDATION, validation_seed=SEED)


def make_key(zoo, soc, size=VALIDATION, seed=SEED):
    return BundleKey(
        zoo_fingerprint=zoo.fingerprint(),
        soc_fingerprint=soc.fingerprint(),
        validation_size=size,
        validation_seed=seed,
    )


@pytest.fixture()
def key(zoo, soc):
    return make_key(zoo, soc)


def assert_same_bundle(loaded, original):
    assert loaded == original
    # Dataclass equality ignores dict order; the runtime does not.
    assert list(loaded.accuracy) == list(original.accuracy)
    assert list(loaded.performance) == list(original.performance)
    assert list(loaded.load_costs) == list(original.load_costs)
    for got, want in zip(loaded.observations, original.observations, strict=True):
        assert list(got.readings) == list(want.readings)
        assert type(got.sample_index) is type(want.sample_index)
    assert loaded.fingerprint() == original.fingerprint()


def dense_bytes(graph):
    dense = graph.dense()
    return dense.accuracy.tobytes(), dense.distance.tobytes(), dense.valid.tobytes()


class TestRoundTrip:
    def test_loaded_bundle_equals_the_characterized_one(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        store.save(bundle, key)
        loaded = store.load(key)
        assert_same_bundle(loaded, bundle)

    def test_fingerprint_is_recomputed_not_read_back(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        store.save(bundle, key)
        header = colfmt.read_header(store.path_for(key))
        assert bundle.fingerprint() not in repr(header)
        assert getattr(store.load(key), "_fingerprint", None) is None

    def test_graph_from_loaded_bundle_is_bit_equal(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        store.save(bundle, key)
        fresh = ConfidenceGraph.build(bundle.observations)
        loaded = ConfidenceGraph.build(store.load(key).observations)
        assert loaded.fingerprint() == fresh.fingerprint()
        assert dense_bytes(loaded) == dense_bytes(fresh)
        # A tight threshold leaves targets unreachable: NaN cells, which
        # must sit in the same places.
        fresh, loaded = (graph.with_distance_threshold(0.05) for graph in (fresh, loaded))
        assert dense_bytes(loaded) == dense_bytes(fresh)
        assert np.array_equal(np.isnan(loaded.dense().accuracy), np.isnan(fresh.dense().accuracy))
        assert np.isnan(fresh.dense().accuracy).any()

    def test_non_finite_readings_survive(self, tmp_path, bundle, key):
        from repro.characterization import ConfidenceObservation

        first = bundle.observations[0]
        model = next(iter(first.readings))
        odd = ConfidenceObservation(
            sample_index=first.sample_index,
            difficulty=math.inf,
            readings={**first.readings, model: (math.nan, -math.inf)},
        )
        edited = type(bundle)(
            accuracy=bundle.accuracy,
            performance=bundle.performance,
            load_costs=bundle.load_costs,
            observations=[odd, *bundle.observations[1:]],
        )
        store = BundleStore(tmp_path)
        store.save(edited, key)
        reading = store.load(key).observations[0]
        assert reading.difficulty == math.inf
        assert math.isnan(reading.readings[model][0])
        assert reading.readings[model][1] == -math.inf

    def test_columns_decode_to_numpys_values(self, tmp_path, bundle, key):
        # The decoder reads bundle columns with struct, not NumPy: every value
        # must be the one np.frombuffer(...).tolist() reads, bit for bit.
        from repro.characterization import ConfidenceObservation

        edges = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.25)
        observations = [
            ConfidenceObservation(
                sample_index=2**62 - i,
                difficulty=edges[i % len(edges)],
                readings={model: (edges[(i + j) % len(edges)], edges[(i + j + 1) % len(edges)])
                          for j, model in enumerate(obs.readings)},
            )
            for i, obs in enumerate(bundle.observations)
        ]
        edited = type(bundle)(accuracy=bundle.accuracy, performance=bundle.performance,
                              load_costs=bundle.load_costs, observations=observations)
        store = BundleStore(tmp_path)
        path = store.save(edited, key)
        data = path.read_bytes()
        data_start = -(-(12 + int.from_bytes(data[8:12], "little")) // 64) * 64
        numpys = {
            d["name"]: np.frombuffer(data, dtype=d["dtype"], count=math.prod(d["shape"]),
                                     offset=data_start + d["offset"]).tolist()
            for d in colfmt.read_header(path)["columns"]
        }
        loaded = store.load(key).observations
        decoded = {
            "sample_index": [obs.sample_index for obs in loaded],
            "difficulty": [obs.difficulty for obs in loaded],
            "confidence": [reading[0] for obs in loaded for reading in obs.readings.values()],
            "iou": [reading[1] for obs in loaded for reading in obs.readings.values()],
        }
        for name, values in decoded.items():
            code = "<q" if name == "sample_index" else "<d"
            assert [type(value) for value in values] == [type(value) for value in numpys[name]]
            assert ([struct.pack(code, value) for value in values]
                    == [struct.pack(code, value) for value in numpys[name]]), name
        assert max(decoded["sample_index"]) == 2**62
        assert {struct.pack("<d", value) for value in edges} <= {
            struct.pack("<d", value) for value in decoded["confidence"]}
        assert store.load(key).fingerprint() == edited.fingerprint()

    def test_ragged_readings_cannot_be_packed(self, bundle, key):
        payload = bundle_entry_to_dict(bundle, key)
        observations = payload["bundle"]["observations"]
        observations[1]["readings"] = dict(reversed(observations[1]["readings"].items()))
        with pytest.raises(colfmt.ColumnFormatError, match="observation 1"):
            colfmt.encode_bundle(payload)

    def test_maintenance_reads_dispatch_the_bundle_kind(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        path = store.save(bundle, key)
        payload = colfmt.load_entry_payload(path)
        assert payload == bundle_entry_to_dict(bundle, key)
        assert list(payload["bundle"]["accuracy"]) == list(bundle.accuracy)


class TestKeying:
    def test_exact_key_hits(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        store.save(bundle, key)
        assert_same_bundle(store.load(key), bundle)

    @pytest.mark.parametrize("change", ["size", "seed", "zoo", "soc", "repeats"])
    def test_any_changed_input_misses(self, tmp_path, bundle, key, zoo, soc, change):
        store = BundleStore(tmp_path)
        store.save(bundle, key)
        if change == "size":
            other = make_key(zoo, soc, size=VALIDATION + 1)
        elif change == "seed":
            other = make_key(zoo, soc, seed=SEED + 1)
        elif change == "zoo":
            smaller = default_zoo()
            smaller.remove("yolov7-tiny")
            other = make_key(smaller, soc)
        elif change == "soc":
            other = make_key(zoo, gpu_only_soc())
        else:
            other = BundleKey(key.zoo_fingerprint, key.soc_fingerprint,
                              VALIDATION, SEED, perf_repeats=key.perf_repeats + 1)
        assert other.digest() != key.digest()
        assert store.load(other) is None

    def test_tampered_identity_is_loud(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        payload = bundle_entry_to_dict(bundle, key)
        payload["validation_seed"] = SEED + 1
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(colfmt.encode_bundle(payload))
        with pytest.raises(BundleSchemaError, match="validation_seed"):
            store.load(key)


class TestTornEntry:
    def test_torn_entry_is_a_quarantined_miss(self, tmp_path, bundle, key):
        store = BundleStore(tmp_path)
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="partial_write", param=0.5,
                         match="bundle-*"),
        ))
        with iolayer.fault_plan(plan):
            path = store.save(bundle, key)
        assert store.load(key) is None
        assert store.corrupt_entries == 1
        assert not path.exists()
        assert_same_bundle(store.get(key, lambda: bundle), bundle)


class TestBundleFiles:
    """``characterize --out`` / ``--shift-bundle`` files go through the I/O seam."""

    @pytest.fixture(autouse=True)
    def _clean_seam(self):
        yield
        iolayer.disarm_fault_plan()
        iolayer.reset_state()

    def test_enospc_burst_degrades_the_root_and_leaves_no_temp(self, tmp_path, bundle):
        target = tmp_path / "bundle.json"
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="enospc", count=RETRY_ATTEMPTS + 2),
        ))
        with iolayer.fault_plan(plan):
            with pytest.raises(StoreDegraded):
                save_bundle(bundle, target)
        assert iolayer.is_degraded(tmp_path)
        assert list(tmp_path.iterdir()) == []  # no bundle, no *.tmp* left beside it

    def test_eio_on_load_is_retried_counted_and_the_bundle_loads(self, tmp_path, bundle):
        target = tmp_path / "bundle.json"
        save_bundle(bundle, target)
        plan = FsFaultPlan(events=(FsFaultEvent(op="read", index=0, kind="eio"),))
        iolayer.arm_fault_plan(plan)
        loaded = load_bundle(target)
        assert iolayer.disarm_fault_plan() == 1
        assert iolayer.io_error_count(tmp_path) == 1
        assert_same_bundle(loaded, bundle)


class TestExperimentContext:
    @pytest.fixture()
    def calls(self, monkeypatch):
        counter = []
        real = context_module.characterize

        def counting(*args, **kwargs):
            counter.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(context_module, "characterize", counting)
        return counter

    def test_second_context_loads_instead_of_characterizing(self, tmp_path, calls, bundle):
        first = ExperimentContext(validation_size=VALIDATION, trace_store=tmp_path)
        assert_same_bundle(first.bundle, bundle)
        assert len(calls) == 1
        assert (tmp_path / BUNDLE_DIR).is_dir()
        second = ExperimentContext(validation_size=VALIDATION, trace_store=tmp_path)
        assert_same_bundle(second.bundle, bundle)
        assert len(calls) == 1
        assert second.graph.fingerprint() == first.graph.fingerprint()

    def test_store_less_context_always_characterizes(self, calls):
        ExperimentContext(validation_size=VALIDATION).bundle
        ExperimentContext(validation_size=VALIDATION).bundle
        assert len(calls) == 2

    def test_a_bundle_leaves_the_trace_audit_clean(self, tmp_path, calls):
        ctx = ExperimentContext(validation_size=VALIDATION, trace_store=tmp_path)
        ctx.bundle
        ctx.cache.get(ctx.scenario("s3_indoor_close_wall").scaled(0.05))
        traces = TraceStore(tmp_path)
        assert traces.audit() == (1, [])
        assert traces.scrub().problems == []
        assert len(traces) == 1
        assert BundleStore.under(tmp_path).audit() == (1, [])

    def test_scrub_quarantines_a_torn_bundle_and_the_next_context_rebuilds(
        self, tmp_path, calls, bundle
    ):
        ExperimentContext(validation_size=VALIDATION, trace_store=tmp_path).bundle
        store = BundleStore.under(tmp_path)
        [path] = list(store.root.rglob("bundle-*.col"))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        report = store.scrub()
        assert report.quarantined == 1 and not path.exists()
        assert len(calls) == 1
        rebuilt = ExperimentContext(validation_size=VALIDATION, trace_store=tmp_path).bundle
        assert len(calls) == 2
        assert_same_bundle(rebuilt, bundle)
        assert store.audit() == (1, [])

