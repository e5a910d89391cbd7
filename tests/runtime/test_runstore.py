"""Tests for the on-disk run store.

The run store's one job is to never lie: a hit must be bit-identical to
re-running the policy, and *anything* else — schema drift, corruption,
a changed policy config, trace, platform, or seed — must be a miss or a
loud :class:`RunSchemaError`, never a silently wrong run.
"""

import multiprocessing
import os

import pytest

from repro.baselines import MarlinPolicy, SingleModelPolicy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import (
    RunKey,
    RunSchemaError,
    RunStore,
    ScenarioTrace,
    aggregate,
    run_policy,
)
from repro.runtime import colfmt, iolayer
from repro.runtime.iolayer import FsFaultEvent, FsFaultPlan
from repro.runtime.runstore import RUN_ALGORITHM_VERSION
from repro.sim import gpu_only_soc, xavier_nx_with_oakd


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


def make_key(policy, scenario, zoo, soc=None, seed=1234):
    return RunKey(
        policy_name=policy.name,
        policy_fingerprint=policy.fingerprint(),
        scenario_fingerprint=scenario.fingerprint(),
        zoo_fingerprint=zoo.fingerprint(),
        soc_fingerprint=(soc or xavier_nx_with_oakd()).fingerprint(),
        engine_seed=seed,
    )


@pytest.fixture
def key(policy, scenario, zoo):
    return make_key(policy, scenario, zoo)


class TestRoundTrip:
    def test_save_load_round_trip_is_identical(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        assert path.exists()
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.policy_name == result.policy_name
        assert loaded.scenario_name == result.scenario_name
        assert loaded.records == result.records  # full FrameRecord equality

    def test_metrics_load_matches_aggregation_exactly(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        store.save(result, key)
        assert store.load_metrics(key) == aggregate(result)

    def test_missing_key_is_a_miss(self, tmp_path, key):
        store = RunStore(tmp_path)
        assert store.load(key) is None
        assert store.load_metrics(key) is None
        assert key not in store

    def test_contains_len_clear(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        store.save(result, key)
        assert key in store
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0


def set_meta(**fields):
    """A header change that sets ``fields`` in an entry's meta block."""
    return lambda header: header["meta"].update(fields)


class TestSchemaRejection:
    def _saved(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        return store, path

    def test_unreadable_entry_is_a_counted_miss(self, tmp_path, result, key):
        # Unified miss accounting: an entry that cannot even be parsed
        # (torn write, disk corruption) behaves exactly like a missing
        # one — a miss — but is surfaced via corrupt_entries and removed
        # so it can never shadow a future rebuild.
        store, path = self._saved(tmp_path, result, key)
        path.write_text("not a column container", encoding="utf-8")
        assert store.load(key) is None
        assert store.corrupt_entries == 1
        assert not path.exists(), "corrupt entry must be quarantined"
        store.save(result, key)  # the slot is reusable after cleanup
        assert store.load(key).records == result.records

    def test_non_object_entry_is_a_counted_miss(self, tmp_path, result, key):
        # Right magic, but the header is a JSON array rather than an object.
        store, path = self._saved(tmp_path, result, key)
        header = b"[1, 2, 3]"
        path.write_bytes(colfmt.MAGIC + len(header).to_bytes(4, "little") + header)
        assert store.load_metrics(key) is None
        assert store.corrupt_entries == 1
        assert not path.exists()

    def test_rejects_wrong_schema_version(self, tmp_path, result, key, rewrite_header):
        store, path = self._saved(tmp_path, result, key)
        rewrite_header(path, set_meta(schema_version=99))
        with pytest.raises(RunSchemaError, match="unsupported run schema"):
            store.load(key)

    def test_rejects_truncated_records(self, tmp_path, result, key, rewrite_header):
        # A header that declares more frames than its columns hold
        # contradicts itself: the entry does not decode, so every reader
        # sees a quarantined miss, never a loud error or a short run.
        store, path = self._saved(tmp_path, result, key)
        rewrite_header(path, set_meta(frame_count=result.frame_count + 1))
        assert store.load(key) is None
        assert store.corrupt_entries == 1 and not path.exists()
        store.save(result, key)
        assert store.load(key).records == result.records

    def test_rejects_malformed_metrics_block(self, tmp_path, result, key, rewrite_header):
        # The metrics block is the header half of the run decoder: one that
        # RunMetrics cannot take is corrupt to the warm probe, the full
        # load and scrub alike.
        store, path = self._saved(tmp_path, result, key)
        rewrite_header(path, lambda header: header["meta"]["metrics"].pop("swaps"))
        tampered = path.read_bytes()
        [problem] = store.audit()[1]
        assert path.name in problem and "run metrics do not decode" in problem
        assert store.load_metrics(key) is None
        assert store.corrupt_entries == 1 and not path.exists()
        path.write_bytes(tampered)
        assert store.load(key) is None
        assert store.corrupt_entries == 2 and not path.exists()
        path.write_bytes(tampered)
        assert store.scrub().quarantined == 1 and not path.exists()
        store.save(result, key)
        assert store.load_metrics(key) == aggregate(result)

    def test_algorithm_version_bump_orphans_files(self, tmp_path, result, key):
        # A bumped algorithm version changes the file name, so stale runs
        # are misses — never errors, never silent reuse.
        store = RunStore(tmp_path)
        old = store.save(result, key)
        assert f"run-v{RUN_ALGORITHM_VERSION}-" in old.name
        renamed = old.with_name(old.name.replace(f"-v{RUN_ALGORITHM_VERSION}-", "-v999-"))
        os.replace(old, renamed)
        assert store.load(key) is None


class TestInvalidation:
    """Every dimension of the run key must invalidate independently."""

    def test_policy_config_change_misses(self, tmp_path, result, key, scenario, zoo):
        store = RunStore(tmp_path)
        store.save(result, key)
        other = make_key(SingleModelPolicy("yolov7", "gpu"), scenario, zoo)
        assert store.load(other) is None

    def test_policy_fingerprint_covers_thresholds(self):
        a = MarlinPolicy("yolov7", redetect_interval=12)
        b = MarlinPolicy("yolov7", redetect_interval=13)
        assert a.fingerprint() != b.fingerprint()

    def test_trace_fingerprint_change_misses(self, tmp_path, result, key, policy, zoo):
        store = RunStore(tmp_path)
        store.save(result, key)
        other_scenario = scenario_by_name("s4_indoor_clutter").scaled(0.05)
        assert store.load(make_key(policy, other_scenario, zoo)) is None

    def test_soc_change_misses(self, tmp_path, result, key, policy, scenario, zoo):
        store = RunStore(tmp_path)
        store.save(result, key)
        assert store.load(make_key(policy, scenario, zoo, soc=gpu_only_soc())) is None

    def test_policy_rename_misses(self, tmp_path, result, key, scenario, zoo):
        # Same config, different display name: the persisted rows carry
        # the old name, so a renamed policy must miss, never return rows
        # labelled with a stale name.
        store = RunStore(tmp_path)
        store.save(result, key)
        renamed = SingleModelPolicy("yolov7-tiny", "gpu")
        renamed.name = "renamed-tiny"
        assert renamed.fingerprint() == key.policy_fingerprint
        assert store.load(make_key(renamed, scenario, zoo)) is None

    def test_seed_change_misses(self, tmp_path, result, key, policy, scenario, zoo):
        store = RunStore(tmp_path)
        store.save(result, key)
        assert store.load(make_key(policy, scenario, zoo, seed=999)) is None

    def test_tampered_identity_block_is_rejected(self, tmp_path, result, key, rewrite_header):
        # A file whose *name* matches but whose identity block does not
        # (hand-edited, or a digest collision) fails loudly.
        store = RunStore(tmp_path)
        path = store.save(result, key)
        rewrite_header(path, set_meta(engine_seed=4321))
        with pytest.raises(RunSchemaError, match="engine seed"):
            store.load(key)


class TestTornEntry:
    def test_torn_entry_with_intact_header_is_recommitted(self, tmp_path, result, key):
        # A partial write that keeps the header but loses record columns
        # must not satisfy the header-only probe: commit has to see a
        # miss, quarantine the torn bytes, and write the run again.
        store = RunStore(tmp_path)
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="partial_write", param=0.5,
                         match="run-*"),
        ))
        with iolayer.fault_plan(plan):
            path = store.save(result, key)
        assert path.stat().st_size < RunStore(tmp_path / "whole").save(result, key).stat().st_size
        assert store.commit(result, key) == (path, True)
        assert store.corrupt_entries == 1
        assert store.load(key).records == result.records
        assert store.commit(result, key) == (path, False)


def _concurrent_writer(args):
    root, payload_result, key_parts = args
    store = RunStore(root)
    key = RunKey(*key_parts)
    for _ in range(10):
        store.save(payload_result, key)
    return True


class TestConcurrency:
    def test_atomic_rename_leaves_no_torn_files(self, tmp_path, result, key):
        """Racing writers on the same key always leave one complete file."""
        parts = (
            key.policy_name,
            key.policy_fingerprint,
            key.scenario_fingerprint,
            key.zoo_fingerprint,
            key.soc_fingerprint,
            key.engine_seed,
        )
        with multiprocessing.Pool(2) as pool:
            outcomes = pool.map(
                _concurrent_writer, [(str(tmp_path), result, parts)] * 2
            )
        assert all(outcomes)
        store = RunStore(tmp_path)
        assert len(store) == 1
        loaded = store.load(key)  # parses cleanly — no torn write
        assert loaded is not None and loaded.records == result.records
        assert not list(tmp_path.rglob("*.tmp*")), "temp files must not linger"

    def test_store_rejects_file_path_root(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("x", encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            RunStore(target)
