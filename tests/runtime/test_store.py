"""Tests for the on-disk trace store."""

import dataclasses
import json

import pytest

from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import (
    ScenarioTrace,
    TraceCache,
    TraceSchemaError,
    TraceStore,
    trace_from_dict,
    trace_to_dict,
)
from repro.runtime import colfmt, iolayer
from repro.runtime.iolayer import FsFaultEvent, FsFaultPlan


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenario():
    return scenario_by_name("s3_indoor_close_wall").scaled(0.05)


@pytest.fixture(scope="module")
def trace(scenario, zoo):
    return ScenarioTrace.build(scenario, zoo)


class TestRoundTrip:
    def test_dict_round_trip_is_identical(self, trace, scenario, zoo):
        payload = json.loads(json.dumps(trace_to_dict(trace, zoo)))
        restored = trace_from_dict(payload, scenario, zoo)
        assert restored.outcomes == trace.outcomes
        assert restored.frame_count == trace.frame_count
        assert restored.scenario == scenario

    def test_save_load_round_trip(self, trace, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        assert path.exists()
        assert len(store) == 1
        assert (scenario, zoo) in store
        loaded = store.load(scenario, zoo)
        assert loaded is not None
        assert loaded.outcomes == trace.outcomes

    def test_loaded_frames_match_fresh_render(self, trace, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        store.save(trace, zoo)
        loaded = store.load(scenario, zoo)
        assert [f.scene for f in loaded.frames] == [f.scene for f in trace.frames]

    def test_load_is_lazy_until_frames_are_read(self, trace, scenario, zoo, tmp_path):
        # Outcome-only consumers must never pay for rendering on reload.
        store = TraceStore(tmp_path)
        store.save(trace, zoo)
        loaded = store.load(scenario, zoo)
        assert not loaded.frames_materialized
        assert loaded.frame_count == scenario.total_frames
        assert loaded.outcome(trace.model_names()[0], 0) == trace.outcomes[trace.model_names()[0]][0]
        assert not loaded.frames_materialized  # outcomes never touched pixels
        loaded.frames  # noqa: B018 - materialize on demand
        assert loaded.frames_materialized

    def test_missing_returns_none(self, scenario, zoo, tmp_path):
        assert TraceStore(tmp_path).load(scenario, zoo) is None


class TestValidation:
    def test_wrong_schema_version_fails_loudly(self, trace, scenario, zoo, tmp_path):
        # Tamper with the payload, then re-encode it at the entry path.
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        payload = trace_to_dict(trace, zoo)
        payload["schema_version"] = 99
        path.write_bytes(colfmt.encode_trace(payload))
        with pytest.raises(TraceSchemaError, match="schema"):
            store.load(scenario, zoo)

    def test_scenario_fingerprint_mismatch_fails(self, trace, scenario, zoo):
        payload = trace_to_dict(trace, zoo)
        other = dataclasses.replace(scenario, seed=scenario.seed + 1)
        with pytest.raises(TraceSchemaError, match="different scenario"):
            trace_from_dict(payload, other, zoo)

    def test_zoo_fingerprint_mismatch_fails(self, trace, scenario, zoo):
        payload = trace_to_dict(trace, zoo)
        smaller = default_zoo()
        smaller.remove("yolov7")
        with pytest.raises(TraceSchemaError, match="zoo"):
            trace_from_dict(payload, scenario, smaller)

    def test_malformed_rows_fail(self, trace, scenario, zoo):
        payload = trace_to_dict(trace, zoo)
        payload["outcomes"]["yolov7"][0] = ["not", "a", "row"]
        with pytest.raises(TraceSchemaError, match="malformed"):
            trace_from_dict(payload, scenario, zoo)


class TestStoreBackedCache:
    def test_second_cache_reuses_persisted_trace(self, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        first = TraceCache(zoo, store=store)
        built = first.get(scenario)
        assert first.builds == 1

        # A fresh process would see exactly this: new cache, same store.
        second = TraceCache(zoo, store=store)
        loaded = second.get(scenario)
        assert second.builds == 0, "persisted trace should make rebuilds unnecessary"
        assert loaded.outcomes == built.outcomes

    def test_store_get_builds_once(self, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        a = TraceCache(zoo, store=store).get(scenario)
        assert len(store) == 1
        cache = TraceCache(zoo, store=store)
        b = cache.get(scenario)
        assert (cache.builds, cache.store_hits) == (0, 1)
        assert a.outcomes == b.outcomes

    def test_different_zoo_gets_its_own_entry(self, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        TraceCache(zoo, store=store).get(scenario)
        smaller = default_zoo()
        smaller.remove("yolov7")
        trace = TraceCache(smaller, store=store).get(scenario)
        assert len(store) == 2
        assert "yolov7" not in trace.model_names()

    def test_clear(self, scenario, zoo, tmp_path):
        store = TraceStore(tmp_path)
        TraceCache(zoo, store=store).get(scenario)
        assert store.clear() == 1
        assert len(store) == 0


class TestTornEntry:
    def test_torn_entry_with_intact_header_is_a_counted_miss(
        self, trace, scenario, zoo, tmp_path
    ):
        # A partial write that keeps the header but loses columns must not
        # load as a lazy trace whose outcomes fail later: the header probe
        # checks the column directory against the file size.
        store = TraceStore(tmp_path)
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="partial_write", param=0.5,
                         match="trace-*"),
        ))
        with iolayer.fault_plan(plan):
            path = store.save(trace, zoo)
        assert path.stat().st_size < len(colfmt.encode_trace(trace_to_dict(trace, zoo)))
        assert store.load(scenario, zoo) is None
        assert store.corrupt_entries == 1
        assert not path.exists(), "the torn entry must be quarantined"
        cache = TraceCache(zoo, store=store)
        rebuilt = cache.get(scenario)  # miss -> rebuild -> persist
        assert cache.builds == 1
        assert rebuilt.outcomes == trace.outcomes
        assert store.load(scenario, zoo).outcomes == trace.outcomes
