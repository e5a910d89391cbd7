"""Tests for the binary columnar container and the read-path bugfixes.

Three contracts share this file because they share one failure surface:

* each store's entries must round-trip their objects *bit-identically*
  through the ``colfmt`` container — edge floats included;
* store loads stay lazy on the column payload, and corrupt entries are
  quarantined rather than served;
* transient read errors must never destroy data — an EIO on a valid
  entry is a miss, not a quarantine, while non-finite floats must never
  produce invalid JSON on disk.
"""

import dataclasses
import json
import math

import pytest

from repro.characterization import characterize
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import (
    ExperimentRunner,
    RunKey,
    RunStore,
    ScenarioTrace,
    TraceCache,
    TraceStore,
    run_policy,
)
from repro.runtime import bundlestore, colfmt, iolayer, runstore, store as tracestore
from repro.runtime.bundlestore import BundleKey, BundleStore
from repro.runtime.iolayer import RETRY_ATTEMPTS, FsFaultEvent, FsFaultPlan
from repro.runtime.metrics import aggregate
from repro.baselines import SingleModelPolicy
from repro.sim import xavier_nx_with_oakd
from repro.util import jsonsafe


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("s3_indoor_close_wall").scaled(0.05)


@pytest.fixture(scope="module")
def trace(scenario, zoo):
    return ScenarioTrace.build(scenario, zoo)


@pytest.fixture(scope="module")
def policy():
    return SingleModelPolicy("yolov7-tiny", "gpu")


@pytest.fixture(scope="module")
def result(policy, trace):
    return run_policy(policy, trace)


@pytest.fixture(scope="module")
def key(policy, scenario, zoo):
    return RunKey(
        policy_name=policy.name,
        policy_fingerprint=policy.fingerprint(),
        scenario_fingerprint=scenario.fingerprint(),
        zoo_fingerprint=zoo.fingerprint(),
        soc_fingerprint=xavier_nx_with_oakd().fingerprint(),
        engine_seed=1234,
    )


@pytest.fixture(scope="module")
def bundle(zoo):
    return characterize(zoo, xavier_nx_with_oakd(), validation_size=40, validation_seed=3)


@pytest.fixture(scope="module")
def bundle_key(zoo):
    return BundleKey(zoo.fingerprint(), xavier_nx_with_oakd().fingerprint(), 40, 3)


@pytest.fixture(autouse=True)
def clean_seam():
    iolayer.disarm_fault_plan()
    yield
    iolayer.disarm_fault_plan()


#: Floats whose bits a decode must keep: signed zero, NaN, infinities,
#: the smallest subnormal and the largest double.
EDGES = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308)


class TestContainer:
    def test_trace_payload_round_trips_bit_identically(self, trace, zoo, tmp_path):
        # The store's one decoder gives back the meta its encoder wrote and
        # the outcomes it encoded, and encoding those again writes the
        # same bytes.
        store = TraceStore(tmp_path)
        data = store.save(trace, zoo).read_bytes()
        meta, outcomes = store._decode(store.path_for(trace.scenario, zoo))
        assert meta == tracestore._meta_to_dict(trace, zoo)
        assert outcomes == trace.outcomes
        decoded = ScenarioTrace(scenario=trace.scenario, frames=None, outcomes=outcomes)
        assert tracestore._encode(decoded, meta) == data

    def test_run_payload_round_trips_bit_identically(self, result, key, tmp_path):
        store = RunStore(tmp_path)
        data = store.save(result, key).read_bytes()
        meta, decoded = store._decode(store.path_for(key))
        assert jsonsafe.dumps(meta, sort_keys=True) == jsonsafe.dumps(
            runstore._meta_to_dict(result, key), sort_keys=True
        )  # NaN != NaN: compare the header text a metric NaN writes
        assert decoded.records == result.records
        assert runstore._encode(decoded, key) == data

    def test_edge_values_decode_bit_for_bit(self, trace, zoo, result, key, tmp_path):
        # Re-saving a loaded entry gives the same bytes only if every value
        # came back with the bits it went in with (NaN != NaN, so comparing
        # objects could not show it).
        outcomes = {
            model: [
                dataclasses.replace(outcome, confidence=EDGES[(m + f) % 6],
                                    iou=EDGES[(m + f + 1) % 6], quality=EDGES[(m + f + 2) % 6])
                for f, outcome in enumerate(rows)
            ]
            for m, (model, rows) in enumerate(trace.outcomes.items())
        }
        edged = ScenarioTrace(scenario=trace.scenario, frames=None, outcomes=outcomes)
        data = TraceStore(tmp_path / "t1").save(edged, zoo).read_bytes()
        loaded = TraceStore(tmp_path / "t1").load(trace.scenario, zoo)
        assert TraceStore(tmp_path / "t2").save(loaded, zoo).read_bytes() == data
        records = [
            dataclasses.replace(record, frame_index=2**62 - i, **{
                name: EDGES[(i + slot) % 6] for slot, name in enumerate(runstore._FLOAT_FIELDS)
            })
            for i, record in enumerate(result.records)
        ]
        edged = type(result)(result.policy_name, result.scenario_name, records)
        data = RunStore(tmp_path / "r1").save(edged, key).read_bytes()
        loaded = RunStore(tmp_path / "r1").load(key)
        assert RunStore(tmp_path / "r2").save(loaded, key).read_bytes() == data

    def test_model_order_is_preserved(self, trace, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        store.save(trace, zoo)
        assert list(store.load(scenario, zoo).outcomes) == list(trace.outcomes)

    def test_corrupt_magic_raises(self, trace, zoo, tmp_path):
        path = TraceStore(tmp_path).save(trace, zoo)
        path.write_bytes(b"JUNK" + path.read_bytes()[4:])
        with pytest.raises(colfmt.ColumnFormatError, match="magic"):
            colfmt.read_header(path, tracestore.LAYOUT)

    def test_another_kind_raises(self, result, key, tmp_path):
        path = RunStore(tmp_path).save(result, key)
        with pytest.raises(colfmt.ColumnFormatError, match="expected trace container"):
            colfmt.read_columns(path, tracestore.LAYOUT)

    def test_truncation_raises(self, result, key, tmp_path):
        path = RunStore(tmp_path).save(result, key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(colfmt.ColumnFormatError):
            colfmt.read_columns(path, runstore.LAYOUT)

    def test_header_carries_no_bulk_data(self, result, key, tmp_path):
        path = RunStore(tmp_path).save(result, key)
        meta = colfmt.read_header(path, runstore.LAYOUT)["meta"]
        assert "records" not in meta
        assert meta["metrics"] == runstore._metrics_row(aggregate(result))


class TestCrossFormat:
    """Store-level behaviour of the container: lazy decode, corrupt entries."""

    def test_lazy_outcomes_until_first_access(self, trace, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        store.save(trace, zoo)
        loaded = store.load(scenario, zoo)
        assert not loaded.outcomes_materialized, "binary load must defer column decode"
        assert loaded.outcomes == trace.outcomes
        assert loaded.outcomes_materialized

    def test_corrupt_binary_quarantines_like_corrupt_json(self, result, key, tmp_path):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        path.write_bytes(b"RPROCOL1" + b"\xff" * 32)  # right magic, garbage header
        assert store.load(key) is None
        assert store.corrupt_entries == 1
        assert not path.exists(), "corrupt entry must be quarantined"
        quarantined = list((tmp_path / "_quarantine").iterdir())
        assert len(quarantined) == 1


def retag(data, column, change):
    """A container with one column's descriptor rewritten; every column byte stays put."""
    header_len = int.from_bytes(data[8:12], "little")
    header = jsonsafe.loads(data[12 : 12 + header_len].decode("utf-8"))
    descriptor = next(d for d in header["columns"] if d["name"] == column)
    descriptor.update(change(descriptor))
    text = jsonsafe.dumps(header, sort_keys=True).encode("utf-8")
    data_start = -(-(12 + header_len) // 64) * 64
    padding = bytes(-(-(12 + len(text)) // 64) * 64 - 12 - len(text))
    return data[:8] + len(text).to_bytes(4, "little") + text + padding + data[data_start:]


def retag_file(path, column, change):
    path.write_bytes(retag(path.read_bytes(), column, change))


#: Descriptor edits the header parser must refuse.
TAMPERS = {
    "unknown-dtype": lambda d: {"dtype": "not-a-dtype"},
    "non-string-dtype": lambda d: {"dtype": ["<f8"]},
    # Twice the elements in the same bytes: a read would run on into the next column.
    "shape-past-nbytes": lambda d: {"shape": [2 * d["shape"][0], *d["shape"][1:]]},
    # Another 8-byte type: the same bytes would decode to other numbers.
    "relabelled-dtype": lambda d: {"dtype": "<f8" if d["dtype"] == "<i8" else "<i8"},
    # Same element count and size: only the shape its encoder writes tells it apart.
    "reshaped-in-own-bytes": lambda d: {"shape": [*d["shape"], 1]},
}


class TestMalformedDescriptors:
    """A tampered column descriptor is a quarantined miss, and the next load recomputes.

    Each kind's tampered column has another after it, so an over-long
    read stays inside the file and would be served.
    """

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_trace_entry_is_rebuilt(self, tamper, trace, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        retag_file(store.save(trace, zoo), "confidence", TAMPERS[tamper])
        cache = TraceCache(zoo, store=store)
        assert cache.get(scenario).outcomes == trace.outcomes
        assert (cache.builds, cache.store_hits, store.corrupt_entries) == (1, 0, 1)
        assert len(list((tmp_path / "_quarantine").iterdir())) == 1
        assert store.load(scenario, zoo).outcomes == trace.outcomes

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_run_entry_is_re_run(self, tamper, policy, scenario, zoo, tmp_path):
        store = RunStore(tmp_path)
        cold = ExperimentRunner(zoo, run_store=store)
        want = cold.sweep([policy], [scenario])
        retag_file(store.path_for(cold.run_key(policy, scenario.fingerprint())), "frame_index",
                   TAMPERS[tamper])
        runner = ExperimentRunner(zoo, run_store=store)
        assert runner.sweep([policy], [scenario]) == want
        assert (runner.runs_executed, runner.run_store_hits, store.corrupt_entries) == (1, 0, 1)
        assert len(list((tmp_path / "_quarantine").iterdir())) == 1

    @pytest.mark.parametrize("tamper", TAMPERS)
    def test_bundle_entry_is_re_characterized(self, tamper, bundle, bundle_key, tmp_path):
        store = BundleStore(tmp_path)
        retag_file(store.save(bundle, bundle_key), "difficulty", TAMPERS[tamper])
        builds = []
        loaded = store.get(bundle_key, lambda: builds.append(1) or bundle)
        assert loaded is bundle and builds == [1] and store.corrupt_entries == 1
        assert len(list((tmp_path / "_quarantine").iterdir())) == 1
        assert store.load(bundle_key).fingerprint() == bundle.fingerprint()

    def test_the_header_probe_refuses_a_reshaped_column(
        self, trace, zoo, result, key, bundle, bundle_key, tmp_path
    ):
        # A trace load reads only the header; its columns decode later, so
        # the probe must catch this.
        for path, column, layout in (
            (TraceStore(tmp_path / "t").save(trace, zoo), "confidence", tracestore.LAYOUT),
            (RunStore(tmp_path / "r").save(result, key), "frame_index", runstore.LAYOUT),
            (BundleStore(tmp_path / "b").save(bundle, bundle_key), "difficulty",
             bundlestore.LAYOUT),
        ):
            retag_file(path, column, TAMPERS["reshaped-in-own-bytes"])
            with pytest.raises(colfmt.ColumnFormatError, match="shapes"):
                colfmt.read_header(path, layout)

    def test_a_column_listed_twice_is_a_quarantined_miss(
        self, result, key, tmp_path, rewrite_header
    ):
        # Every name is one the layout gives, in its dtype, shape and
        # bounds; only the count of descriptors tells the extra one apart.
        store = RunStore(tmp_path)
        path = store.save(result, key)
        rewrite_header(path, lambda header: header["columns"].append(dict(header["columns"][0])))
        with pytest.raises(colfmt.ColumnFormatError, match="not what its encoder writes"):
            colfmt.read_header(path, runstore.LAYOUT)
        assert store.load_metrics(key) is None
        assert store.corrupt_entries == 1
        assert len(list((tmp_path / "_quarantine").iterdir())) == 1

    def test_a_run_code_past_its_vocabulary_is_a_quarantined_miss(self, result, key, tmp_path):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        data = bytearray(path.read_bytes())
        header = colfmt.read_header(path, runstore.LAYOUT)
        assert len(header["meta"]["model_names"]) == 1
        descriptor = next(d for d in header["columns"] if d["name"] == "model_code")
        header_len = int.from_bytes(data[8:12], "little")
        data_start = -(-(12 + header_len) // 64) * 64
        data[data_start + descriptor["offset"]] = 7  # u2 little-endian: code 7
        path.write_bytes(bytes(data))
        assert store.load(key) is None
        assert store.corrupt_entries == 1
        assert len(list((tmp_path / "_quarantine").iterdir())) == 1


class TestTransientReadErrors:
    """The PR's headline bugfix: an EIO must never destroy a valid entry."""

    def _read_eio_plan(self, match):
        return FsFaultPlan(events=(
            FsFaultEvent(op="read", index=0, kind="eio",
                         count=RETRY_ATTEMPTS * 4, match=match),
        ))

    def test_eio_on_run_read_is_a_miss_not_a_quarantine(self, result, key, tmp_path):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        with iolayer.fault_plan(self._read_eio_plan("run-*")):
            assert store.load(key) is None, "unreadable entry must be a miss"
        assert store.corrupt_entries == 0, "an I/O error is not corruption"
        assert path.exists(), "the entry must survive the flaky disk"
        assert iolayer.io_error_count(tmp_path) > 0, "retries must be accounted"
        assert not iolayer.is_degraded(tmp_path), "reads never degrade a root"
        # Disk recovered: the same entry serves again, bit-identical.
        assert store.load(key).records == result.records

    def test_eio_on_trace_read_is_a_miss_not_a_quarantine(
        self, trace, scenario, zoo, tmp_path
    ):
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        with iolayer.fault_plan(self._read_eio_plan("trace-*")):
            assert store.load(scenario, zoo) is None
        assert store.corrupt_entries == 0
        assert path.exists()
        assert store.load(scenario, zoo).outcomes == trace.outcomes

    def test_scrub_reports_unreadable_entries_without_quarantining(
        self, result, key, tmp_path
    ):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        with iolayer.fault_plan(self._read_eio_plan("run-*")):
            report = store.scrub()
        assert report.quarantined == 0
        assert any("left in place" in problem for problem in report.problems)
        assert path.exists()


class TestNonFiniteJson:
    def test_jsonsafe_round_trips_non_finite(self):
        payload = {"a": float("nan"), "b": float("inf"), "c": -float("inf"), "d": 1.5}
        text = jsonsafe.dumps(payload)
        json.loads(text, parse_constant=pytest.fail)  # spec-valid: no NaN/Infinity
        restored = jsonsafe.loads(text)
        assert math.isnan(restored["a"])
        assert restored["b"] == float("inf") and restored["c"] == -float("inf")
        assert restored["d"] == 1.5

    def test_nan_metric_survives_binary_round_trip(self, result, key, tmp_path):
        [first, *rest] = result.records
        records = [dataclasses.replace(first, iou=math.nan, ground_truth_present=True), *rest]
        store = RunStore(tmp_path)
        store.save(type(result)(result.policy_name, result.scenario_name, records), key)
        assert math.isnan(store.load_metrics(key).mean_iou)
