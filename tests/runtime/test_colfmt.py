"""Tests for the binary columnar entry format and the read-path bugfixes.

Three contracts share this file because they share one failure surface:

* the ``colfmt`` container and codecs must round-trip payloads
  *bit-identically* — the binary format is an encoding of the dict
  payload, never a reinterpretation of it;
* store loads stay lazy on the column payload, and corrupt entries are
  quarantined rather than served;
* transient read errors must never destroy data — an EIO on a valid
  entry is a miss, not a quarantine (the bug this PR fixes), while
  non-finite floats must never produce invalid JSON on disk.
"""

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
    run_to_dict,
    trace_to_dict,
)
from repro.runtime import colfmt, iolayer
from repro.runtime.bundlestore import BundleKey, BundleStore, bundle_entry_to_dict
from repro.runtime.export import load_metrics_dicts, save_metrics
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


class TestContainer:
    def test_trace_payload_round_trips_bit_identically(self, trace, zoo):
        payload = trace_to_dict(trace, zoo)
        assert colfmt.decode_trace(colfmt.encode_trace(payload)) == payload

    def test_run_payload_round_trips_bit_identically(self, result, key):
        payload = run_to_dict(result, key)
        assert colfmt.decode_run(colfmt.encode_run(payload)) == payload

    def test_edge_values_decode_bit_for_bit(self, trace, zoo, result, key):
        # Re-encoding a decoded payload gives the same bytes only if every
        # value came back with the bits it went in with (NaN != NaN, so
        # comparing payloads could not show it).
        edges = (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308)
        payload = trace_to_dict(trace, zoo)
        for m, rows in enumerate(payload["outcomes"].values()):
            for f, row in enumerate(rows):
                row[1:4] = [edges[(m + f + k) % len(edges)] for k in range(3)]
                if row[0] is not None:
                    row[0] = [edges[(f + k) % len(edges)] for k in range(4)]
        data = colfmt.encode_trace(payload)
        assert colfmt.encode_trace(colfmt.decode_trace(data)) == data
        payload = run_to_dict(result, key)
        for i, row in enumerate(payload["records"]):
            row[0] = 2**62 - i
            for slot in (4, 5, 8, 9, 10, 11, 12, 17):
                row[slot] = edges[(i + slot) % len(edges)]
        data = colfmt.encode_run(payload)
        assert colfmt.encode_run(colfmt.decode_run(data)) == data

    def test_model_order_is_preserved(self, trace, zoo):
        payload = trace_to_dict(trace, zoo)
        decoded = colfmt.decode_trace(colfmt.encode_trace(payload))
        assert list(decoded["outcomes"]) == list(payload["outcomes"])

    def test_corrupt_magic_raises(self, trace, zoo):
        data = bytearray(colfmt.encode_trace(trace_to_dict(trace, zoo)))
        data[:4] = b"JUNK"
        with pytest.raises(colfmt.ColumnFormatError, match="magic"):
            colfmt.decode_trace(bytes(data))

    def test_truncation_raises(self, result, key):
        data = colfmt.encode_run(run_to_dict(result, key))
        with pytest.raises(colfmt.ColumnFormatError):
            colfmt.decode_run(data[: len(data) // 2])

    def test_header_carries_no_bulk_data(self, result, key, tmp_path):
        payload = run_to_dict(result, key)
        path = tmp_path / ("run-x" + colfmt.COL_SUFFIX)
        path.write_bytes(colfmt.encode_run(payload))
        header = colfmt.read_run_header(path)
        assert "records" not in header
        assert header["metrics"] == payload["metrics"]


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
        # A trace load reads only the header; its columns decode later,
        # outside the store's quarantine, so the probe must catch this.
        for data, column in (
            (colfmt.encode_trace(trace_to_dict(trace, zoo)), "confidence"),
            (colfmt.encode_run(run_to_dict(result, key)), "frame_index"),
            (colfmt.encode_bundle(bundle_entry_to_dict(bundle, bundle_key)), "difficulty"),
        ):
            path = tmp_path / f"{column}.col"
            path.write_bytes(retag(data, column, TAMPERS["reshaped-in-own-bytes"]))
            with pytest.raises(colfmt.ColumnFormatError, match="shapes"):
                colfmt.read_header(path)

    def test_a_run_code_past_its_vocabulary_is_a_quarantined_miss(self, result, key, tmp_path):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        data = bytearray(path.read_bytes())
        header = colfmt.read_header(path)
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

    def test_metrics_with_nan_export_as_valid_json(self, result, tmp_path):
        metrics = aggregate(result)
        import dataclasses

        broken = dataclasses.replace(metrics, mean_iou=float("nan"))
        path = tmp_path / "metrics.jsonl"
        save_metrics([broken, metrics], path)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=pytest.fail)
        rows = load_metrics_dicts(path)
        assert math.isnan(rows[0]["mean_iou"])
        assert rows[1]["mean_iou"] == metrics.mean_iou

    def test_nan_metric_survives_binary_round_trip(self, result, key, tmp_path):
        payload = run_to_dict(result, key)
        payload["metrics"]["mean_iou"] = float("nan")
        decoded = colfmt.decode_run(colfmt.encode_run(payload))
        assert math.isnan(decoded["metrics"]["mean_iou"])


class TestTornMetricsTail:
    def _rows(self, result):
        return [aggregate(result)]

    def test_torn_final_line_is_partial_not_fatal(self, result, tmp_path):
        path = tmp_path / "metrics.jsonl"
        save_metrics(self._rows(result) * 3, path)
        text = path.read_text()
        path.write_text(text.rstrip("\n")[:-20])  # kill the writer mid-line
        rows = load_metrics_dicts(path)
        assert rows.partial, "a torn tail must be reported"
        assert len(rows) == 2, "complete rows before the tear still serve"

    def test_torn_middle_line_still_raises(self, result, tmp_path):
        path = tmp_path / "metrics.jsonl"
        lines = [jsonsafe.dumps({"ok": i}) for i in range(3)]
        lines[1] = '{"torn'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_metrics_dicts(path)

    def test_clean_file_is_not_partial(self, result, tmp_path):
        path = tmp_path / "metrics.jsonl"
        save_metrics(self._rows(result), path)
        rows = load_metrics_dicts(path)
        assert not rows.partial and len(rows) == 1
