"""Tests for self-healing store maintenance (scrub / GC).

The load-bearing property is metamorphic: a full scrub+gc pass over a
healthy store or job queue is a byte-level no-op for every servable
entry — maintenance only ever touches corrupt or expired artifacts.  The
remaining tests pin each pass's one job from both sides: the broken
artifact it must remove and the healthy twin it must leave alone.
"""

import pytest

from repro.baselines import SingleModelPolicy
from repro.data import scenario_by_name
from repro.models import default_zoo
from repro.runtime import RunKey, RunStore, ScenarioTrace, TraceStore, run_policy
from repro.runtime import shards
from repro.runtime.maintenance import DEFAULT_TTL_SECONDS
from repro.sim import xavier_nx_with_oakd

WEEK = DEFAULT_TTL_SECONDS


@pytest.fixture(scope="module")
def zoo():
    return default_zoo()


@pytest.fixture(scope="module")
def scenarios():
    return [
        scenario_by_name("s3_indoor_close_wall").scaled(0.05),
        scenario_by_name("s4_indoor_clutter").scaled(0.05),
    ]


@pytest.fixture(scope="module")
def policies():
    return [SingleModelPolicy("yolov7-tiny", "gpu"), SingleModelPolicy("yolov7", "gpu")]


def populate(run_root, trace_root, zoo, scenarios, policies):
    """Real traces + runs on disk; returns the run keys saved."""
    trace_store = TraceStore(trace_root)
    run_store = RunStore(run_root)
    soc_fp = xavier_nx_with_oakd().fingerprint()
    keys = []
    for scenario in scenarios:
        trace = ScenarioTrace.build(scenario, zoo)
        trace_store.save(trace, zoo)
        for policy in policies:
            result = run_policy(policy, trace, engine_seed=1234, fast=True)
            key = RunKey(policy.name, policy.fingerprint(), scenario.fingerprint(),
                         zoo.fingerprint(), soc_fp, 1234)
            run_store.save(result, key)
            keys.append(key)
    return run_store, trace_store, keys


def populate_queue(root, scenarios, policies):
    """A job queue with one job done and the rest pending."""
    from repro.service import JobQueue
    from repro.service.jobs import UnitJob

    queue = JobQueue(root)
    queue.enqueue_all(
        [UnitJob(policy_spec=f"single:{p.model_name}@gpu", scenario=s)
         for p in policies for s in scenarios],
        engine_seed=1234,
    )
    queue.complete(queue.claim("w1"))
    return queue


def tree_bytes(root):
    """Every data file under ``root`` -> its bytes (locks and temps excluded)."""
    snapshot = {}
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".json", ".col") or ".tmp" in path.name:
            continue
        snapshot[path.relative_to(root)] = path.read_bytes()
    return snapshot


def entry_paths(root, pattern):
    return sorted(p for p in root.rglob(pattern) if ".tmp" not in p.name)


class TestMetamorphicNoOp:
    def test_scrub_and_gc_leave_servable_entries_bit_identical(
        self, tmp_path, zoo, scenarios, policies
    ):
        run_store, trace_store, keys = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        before_runs = tree_bytes(tmp_path / "runs")
        before_traces = tree_bytes(tmp_path / "traces")
        loaded_before = [run_store.load_metrics(key) for key in keys]

        queue = populate_queue(tmp_path / "queue", scenarios, policies)
        before_queue = tree_bytes(tmp_path / "queue")

        for store in (run_store, trace_store, queue):
            scrub = store.scrub()
            assert scrub.quarantined == 0 and not scrub.problems
            gc = store.gc(dry_run=False)
            assert gc.bytes_reclaimed == 0

        assert tree_bytes(tmp_path / "runs") == before_runs
        assert tree_bytes(tmp_path / "traces") == before_traces
        assert tree_bytes(tmp_path / "queue") == before_queue
        assert [run_store.load_metrics(key) for key in keys] == loaded_before
        assert all(m is not None for m in loaded_before)


class TestScrub:
    def test_scrub_quarantines_torn_entries_and_keeps_the_rest(
        self, tmp_path, zoo, scenarios, policies
    ):
        run_store, _, keys = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        victim = entry_paths(tmp_path / "runs", "run-*.col")[0]
        victim.write_text('{"torn', encoding="utf-8")

        report = run_store.scrub()
        assert report.quarantined == 1
        assert len(report.problems) == 1
        assert "unparseable" in report.problems[0]
        assert not victim.exists()
        quarantined = list((tmp_path / "runs" / "_quarantine").iterdir())
        assert len(quarantined) == 1
        # Exactly one key now misses; every other entry still serves.
        assert sum(run_store.load_metrics(k) is None for k in keys) == 1

    def test_scrub_catches_misfiled_entries(self, tmp_path, zoo, scenarios, policies):
        run_store, _, _ = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        source = entry_paths(tmp_path / "runs", "run-*.col")[0]
        # Refile the entry under a shard its digest does not name: scrub
        # must spot the drift by recomputation.
        wrong = tmp_path / "runs" / ("00" if source.parent.name != "00" else "ff")
        wrong.mkdir(exist_ok=True)
        with shards.shard_lock(wrong):
            shards.write_entry_locked(wrong, source.name, source.read_bytes())
        report = run_store.scrub()
        assert report.quarantined == 1
        assert any("filed in shard" in problem for problem in report.problems)

    def test_scrub_quarantines_an_unparseable_stray(self, tmp_path, zoo, scenarios, policies):
        # A torn file under an entry name no save ever wrote (a crash
        # outside the atomic helpers): scrub walks files, so it finds it.
        run_store, _, keys = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        shard = entry_paths(tmp_path / "runs", "run-*.col")[0].parent
        junk = shard / "run-v1-deadbeefdeadbeefdeadbeefdeadbeef.col"
        junk.write_text('{"torn', encoding="utf-8")
        [problem] = run_store.audit()[1]
        assert problem.startswith(f"{shard.name}/{junk.name}: unparseable")
        assert junk.exists(), "audit reports; only scrub quarantines"
        report = run_store.scrub()
        assert report.entries_checked == len(keys) + 1
        assert report.quarantined == 1 and "unparseable" in report.problems[0]
        assert not junk.exists()
        assert all(run_store.load_metrics(key) is not None for key in keys)


class TestGc:
    def test_gc_is_dry_run_by_default_with_byte_accounting(
        self, tmp_path, zoo, scenarios, policies
    ):
        run_store, _, _ = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        victim = entry_paths(tmp_path / "runs", "run-*.col")[0]
        size = victim.stat().st_size
        victim.write_text('{"torn', encoding="utf-8")
        run_store.scrub()  # -> _quarantine
        quarantined = list((tmp_path / "runs" / "_quarantine").iterdir())
        assert quarantined
        later = quarantined[0].stat().st_mtime + WEEK + 1

        dry = run_store.gc(now=later)
        assert dry.dry_run and dry.quarantine_removed == 1
        assert dry.bytes_reclaimed > 0 and dry.bytes_reclaimed < size
        assert all(path.exists() for path in quarantined)  # nothing deleted

        wet = run_store.gc(dry_run=False, now=later)
        assert wet.bytes_reclaimed == dry.bytes_reclaimed
        assert not any(path.exists() for path in quarantined)

    def test_gc_respects_the_ttl(self, tmp_path, zoo, scenarios, policies):
        run_store, _, _ = populate(
            tmp_path / "runs", tmp_path / "traces", zoo, scenarios, policies
        )
        stale = tmp_path / "runs" / "junk.tmp123"
        stale.write_text("abandoned")
        fresh_now = stale.stat().st_mtime + 60.0  # a minute later, not a week
        report = run_store.gc(dry_run=False, now=fresh_now)
        assert report.temps_removed == 0
        assert report.skipped_young >= 1
        assert stale.exists()
        aged = run_store.gc(dry_run=False, now=fresh_now + WEEK)
        assert aged.temps_removed == 1
        assert not stale.exists()


class TestQueueMaintenance:
    def test_dead_letters_are_collected_done_records_never(self, tmp_path):
        from repro.service import JobQueue
        from repro.service.jobs import UnitJob

        queue = JobQueue(tmp_path / "q", lease_duration=0.1, max_attempts=1)
        scenario = scenario_by_name("s3_indoor_close_wall").scaled(0.05)
        queue.enqueue_all(
            [UnitJob(policy_spec="single:yolov7-tiny@gpu", scenario=scenario)],
            engine_seed=1234,
        )
        lease = queue.claim("w1")
        assert lease is not None
        queue.fail(lease, "boom")  # max_attempts=1 -> dead letter
        assert queue.counts()["dead"] == 1

        record_path = next((tmp_path / "q").rglob("job-*.json"))
        later = record_path.stat().st_mtime + WEEK + 1
        report = queue.gc(dry_run=False, now=later)
        assert report.entries_removed == 1
        assert queue.counts()["total"] == 0

        # Done records are never collected: they are what makes a warm
        # re-submit free.
        queue.enqueue_all(
            [UnitJob(policy_spec="single:yolov7-tiny@gpu", scenario=scenario)],
            engine_seed=1234,
        )
        lease = queue.claim("w1")
        queue.complete(lease)
        record_path = next((tmp_path / "q").rglob("job-*.json"))
        report = queue.gc(dry_run=False, now=record_path.stat().st_mtime + 2 * WEEK)
        assert report.entries_removed == 0
        assert queue.counts()["done"] == 1

    def test_gc_expires_dead_letters_by_name_and_reads_no_record(self, tmp_path, monkeypatch):
        from repro.runtime import iolayer
        from repro.service import JobQueue
        from repro.service.jobs import UnitJob

        queue = JobQueue(tmp_path / "q", lease_duration=0.1, max_attempts=1)
        scenario = scenario_by_name("s3_indoor_close_wall").scaled(0.05)
        queue.enqueue_all(
            [UnitJob(policy_spec=f"single:{model}@gpu", scenario=scenario)
             for model in ("yolov7-tiny", "yolov7")],
            engine_seed=1234,
        )
        queue.complete(queue.claim("w1"))
        queue.fail(queue.claim("w1"), "boom")  # max_attempts=1 -> dead letter
        assert (queue.counts()["done"], queue.counts()["dead"]) == (1, 1)
        later = max(path.stat().st_mtime for path in (tmp_path / "q").rglob("job-*")) + WEEK + 1

        def no_read(*args, **kwargs):
            raise AssertionError("gc read an entry")

        monkeypatch.setattr(iolayer, "read_text", no_read)
        monkeypatch.setattr(iolayer, "read_bytes", no_read)
        report = queue.gc(dry_run=False, now=later)
        monkeypatch.undo()
        assert report.entries_removed == 1
        assert [path.name.split(".", 1)[1] for path in (tmp_path / "q").rglob("job-*")] == [
            "done.json"]
