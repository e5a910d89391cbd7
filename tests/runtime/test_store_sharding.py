"""Sharded-store subsystem tests: layout, locks, crashes, corruption.

The service tier points many worker threads — and CI many processes — at
one TraceStore/RunStore pair, so the stores' concurrency story has to be
*proven*, not assumed:

* entries land in fingerprint-prefix shards, and a shard is nothing but
  its entry files (one write per save, no index);
* legacy entries (pre-sharding flat files, pre-binary JSON) and a
  leftover shard index are ignored: the entries are plain misses;
* parallel writers of the same key leave exactly one valid entry;
* a writer killed mid-write (stale temp file) is cleaned on next open and
  its leftovers are never served as hits;
* an unreadable entry behaves exactly like a missing one (a miss), is
  counted in ``corrupt_entries``, and is quarantined.
"""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.baselines import SingleModelPolicy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import RunKey, RunStore, ScenarioTrace, TraceCache, TraceStore, run_policy
from repro.runtime import iolayer, shards
from repro.runtime.colfmt import ColumnFormatError
from repro.runtime.iolayer import RETRY_ATTEMPTS, FsFaultEvent, FsFaultPlan
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


class TestShardLayout:
    def test_trace_entry_lands_in_fingerprint_shard(self, tmp_path, trace, scenario, zoo):
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        assert path.parent == tmp_path / scenario.fingerprint()[:2]
        assert path == store.path_for(scenario, zoo)
        assert store.load(scenario, zoo).outcomes == trace.outcomes

    def test_run_entry_lands_in_digest_shard(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        assert path.parent == tmp_path / key.digest()[:2]
        assert store.load(key).records == result.records

    def test_a_save_is_one_write_and_leaves_no_index(
        self, tmp_path, trace, zoo, result, key, monkeypatch
    ):
        from repro.runtime import iolayer

        written = []
        real_write_bytes, real_write_text = iolayer.write_bytes, iolayer.write_text

        def write_bytes(path, data, **kwargs):
            written.append(Path(path).name)
            return real_write_bytes(path, data, **kwargs)

        def write_text(path, text, **kwargs):
            written.append(Path(path).name)
            return real_write_text(path, text, **kwargs)

        monkeypatch.setattr(iolayer, "write_bytes", write_bytes)
        monkeypatch.setattr(iolayer, "write_text", write_text)
        saved = [TraceStore(tmp_path / "t").save(trace, zoo),
                 RunStore(tmp_path / "r").save(result, key)]
        assert written == [path.name for path in saved]
        assert not list(tmp_path.rglob("index.json"))

    def test_audit_clean_store(self, tmp_path, trace, zoo, result, key):
        tstore = TraceStore(tmp_path / "t")
        tstore.save(trace, zoo)
        rstore = RunStore(tmp_path / "r")
        rstore.save(result, key)
        for store in (tstore, rstore):
            checked, problems = store.audit()
            assert checked == 1
            assert problems == []

    def test_audit_flags_unsound_entry_files_and_moves_nothing(self, tmp_path, trace, zoo):
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        stray = path.with_name("trace-v1-" + "0" * 16 + "-" + "0" * 12 + ".col")
        stray.write_text("{}", encoding="utf-8")
        checked, problems = store.audit()
        assert checked == 2
        assert len(problems) == 1 and stray.name in problems[0] and "unparseable" in problems[0]
        assert stray.exists() and not (tmp_path / shards.QUARANTINE_DIR).exists()

    def test_shard_dirs_lists_only_hex_prefix_directories(self, tmp_path):
        for name in ("ff", "0a", "7c"):
            (tmp_path / name).mkdir()
        for name in ("_quarantine", "zz", "abc", "0A"):
            (tmp_path / name).mkdir()
        (tmp_path / "3e").write_text("a file, not a shard", encoding="utf-8")
        assert [p.name for p in shards.shard_dirs(tmp_path)] == ["0a", "7c", "ff"]
        assert all(p.parent == tmp_path for p in shards.shard_dirs(tmp_path))
        assert shards.shard_dirs(tmp_path / "missing") == []

    def test_len_contains_clear_over_shards(self, tmp_path, trace, scenario, zoo):
        store = TraceStore(tmp_path)
        store.save(trace, zoo)
        smaller = default_zoo()
        smaller.remove("yolov7")
        store.save(ScenarioTrace.build(scenario, smaller), smaller)
        assert len(store) == 2
        assert (scenario, zoo) in store
        assert store.clear() == 2
        assert len(store) == 0
        checked, problems = store.audit()
        assert checked == 0 and problems == []


class TestLegacyLayouts:
    """Entries and indexes from older layouts are ignored, never read."""

    def test_legacy_json_entries_and_a_leftover_index_are_ignored(
        self, tmp_path, trace, scenario, zoo, result, key
    ):
        tstore, rstore = TraceStore(tmp_path / "t"), RunStore(tmp_path / "r")
        # A flat JSON trace entry (a store from before sharding) and a
        # sharded JSON run entry (from before the binary format) ...
        flat = tstore.root / tstore.path_for(scenario, zoo).with_suffix(".json").name
        flat.write_text(jsonsafe.dumps({
            "schema_version": 1, "algorithm_version": 1, "scenario_name": scenario.name,
            "scenario_fingerprint": scenario.fingerprint(), "zoo_fingerprint": zoo.fingerprint(),
            "frame_count": trace.frame_count, "outcomes": {},
        }), encoding="utf-8")
        sharded = rstore.path_for(key).with_suffix(".json")
        sharded.parent.mkdir()
        sharded.write_text(jsonsafe.dumps({
            "schema_version": 1, "algorithm_version": 1, "policy_name": key.policy_name,
            "engine_seed": key.engine_seed, "frame_count": result.frame_count, "records": [],
        }), encoding="utf-8")
        # ... and a shard index listing an entry that is not there.
        (sharded.parent / "index.json").write_text(jsonsafe.dumps(
            {"schema_version": 1, "entries": {rstore.path_for(key).name: {}}}
        ), encoding="utf-8")

        tstore, rstore = TraceStore(tmp_path / "t"), RunStore(tmp_path / "r")
        assert flat.exists() and sharded.exists(), "opening a store must not touch them"
        assert tstore.load(scenario, zoo) is None
        assert rstore.load_metrics(key) is None
        assert tstore.corrupt_entries == rstore.corrupt_entries == 0
        assert len(tstore) == len(rstore) == 0
        assert tstore.audit() == rstore.audit() == (0, [])
        assert rstore.scrub().entries_checked == 0 and sharded.exists()
        rstore.save(result, key)
        assert rstore.load(key).records == result.records
        assert rstore.audit() == (1, [])


class TestCrashConsistency:
    def test_stale_temps_cleaned_on_open(self, tmp_path, trace, scenario, zoo):
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        # Simulate a writer killed mid-write: temp files at both layers.
        (path.parent / (path.name + ".tmp99999.1")).write_text("{half a wri", encoding="utf-8")
        (tmp_path / "trace-v1-dead.json.tmp4242").write_text("{", encoding="utf-8")
        reopened = TraceStore(tmp_path)
        assert reopened.stale_temps_cleaned == 2
        assert not list(tmp_path.rglob("*.tmp*"))
        # The complete entry survived and still serves hits.
        assert reopened.load(scenario, zoo).outcomes == trace.outcomes

    def test_temp_files_are_never_served_as_hits(self, tmp_path, scenario, zoo):
        # Even *before* cleanup runs, a leftover temp can't satisfy a
        # lookup: loads only probe the final entry name.
        store = TraceStore(tmp_path)
        target = store.path_for(scenario, zoo)
        target.parent.mkdir(parents=True, exist_ok=True)
        (target.parent / (target.name + ".tmp1.1")).write_text("{torn", encoding="utf-8")
        assert store.load(scenario, zoo) is None

    def test_unreadable_trace_entry_is_counted_miss_and_rebuildable(
        self, tmp_path, trace, scenario, zoo
    ):
        # Regression for the miss-accounting unification: TraceStore used
        # to raise on unreadable entries where RunStore missed; both now
        # miss, count, and quarantine identically.
        store = TraceStore(tmp_path)
        path = store.save(trace, zoo)
        path.write_text("{torn mid-wri", encoding="utf-8")
        assert store.load(scenario, zoo) is None
        assert store.corrupt_entries == 1
        assert not path.exists()
        cache = TraceCache(zoo, store=store)
        rebuilt = cache.get(scenario)  # miss -> rebuild -> persist
        assert cache.builds == 1
        assert rebuilt.outcomes == trace.outcomes
        assert store.load(scenario, zoo) is not None

    def test_quarantine_re_runs_the_callers_decoder(self, tmp_path, result, key):
        # The re-check under the shard lock is the decoder that refused the
        # entry: one it now decodes (a writer repaired it) stays put, one it
        # still refuses moves to the quarantine with its bytes.
        store = RunStore(tmp_path)
        path = store.save(result, key)
        data = path.read_bytes()

        def refuse(entry):
            raise ColumnFormatError(f"{entry.name} refused")

        assert not shards.quarantine_corrupt_entry(tmp_path, path.parent, path.name, store._decode)
        assert path.exists()
        assert shards.quarantine_corrupt_entry(tmp_path, path.parent, path.name, refuse)
        assert not path.exists()
        [moved] = (tmp_path / shards.QUARANTINE_DIR).iterdir()
        assert moved.read_bytes() == data

    def test_quarantine_leaves_an_unreadable_or_gone_entry(self, tmp_path, result, key):
        store = RunStore(tmp_path)
        path = store.save(result, key)
        eio = FsFaultPlan(events=(
            FsFaultEvent(op="read", index=0, kind="eio", count=RETRY_ATTEMPTS * 4, match="run-*"),
        ))
        with iolayer.fault_plan(eio):
            assert not shards.quarantine_corrupt_entry(
                tmp_path, path.parent, path.name, store._decode
            )
        assert path.exists(), "unreadable is not corrupt"
        path.unlink()
        assert not shards.quarantine_corrupt_entry(tmp_path, path.parent, path.name, store._decode)
        assert not (tmp_path / shards.QUARANTINE_DIR).exists() or not any(
            (tmp_path / shards.QUARANTINE_DIR).iterdir()
        )


class TestParallelWriters:
    def test_racing_thread_writers_leave_one_valid_entry(self, tmp_path, trace, zoo):
        store = TraceStore(tmp_path)

        def hammer(_):
            for _ in range(5):
                store.save(trace, zoo)
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(hammer, range(8)))
        assert len(store) == 1
        loaded = store.load(trace.scenario, zoo)
        assert loaded is not None and loaded.outcomes == trace.outcomes
        assert not list(tmp_path.rglob("*.tmp*"))
        checked, problems = store.audit()
        assert checked == 1 and problems == []

    def test_racing_run_writers_keep_index_consistent(self, tmp_path, result, key):
        store = RunStore(tmp_path)

        def hammer(_):
            for _ in range(5):
                store.save(result, key)
            return store.load(key) is not None

        with ThreadPoolExecutor(max_workers=6) as pool:
            assert all(pool.map(hammer, range(6)))
        assert len(store) == 1
        assert store.corrupt_entries == 0
        checked, problems = store.audit()
        assert checked == 1 and problems == []
