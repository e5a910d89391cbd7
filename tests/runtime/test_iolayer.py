"""Tests for the injectable I/O seam (fault plans, retry, degraded mode).

The seam's contract has three faces: deterministic fault plans (the same
schedule fires the same way run after run), bounded retry with typed
degradation (transient capacity errors never surface as bare OSErrors
from a store write), and probe-based recovery (the first success after
space returns clears the flag).  Each face is pinned here from both
sides — the failure that must fire and the healthy twin that must not.
"""

import random

import pytest

from repro.runtime import iolayer
from repro.runtime.iolayer import (
    RETRY_ATTEMPTS,
    FsFaultEvent,
    FsFaultPlan,
    StoreDegraded,
    StoreError,
)


@pytest.fixture(autouse=True)
def _clean_seam():
    """Every test starts and ends with no armed plan and no degraded roots."""
    iolayer.disarm_fault_plan()
    iolayer.reset_state()
    yield
    iolayer.disarm_fault_plan()
    iolayer.reset_state()


def enospc_plan(count: int, op: str = "write", match: str | None = None) -> FsFaultPlan:
    return FsFaultPlan(
        events=(FsFaultEvent(op=op, index=0, kind="enospc", count=count, match=match),)
    )


def _call_entry_point(entry: str, root):
    """Call one of the seam's six entry points on a prepared file under ``root``."""
    source = root / "source.bin"
    source.write_bytes(b"payload")
    if entry == "write_text":
        return iolayer.write_text(root / "entry", "payload", root=root)
    if entry == "write_bytes":
        return iolayer.write_bytes(root / "entry", b"payload", root=root)
    if entry == "read_text":
        return iolayer.read_text(source, root=root)
    if entry == "read_bytes":
        return iolayer.read_bytes(source, root=root)
    if entry == "replace":
        return iolayer.replace(source, root / "entry", root=root)
    return iolayer.scan(root, "*", root=root)


#: entry point -> the fault-plan op its attempts tick.
ENTRY_OPS = {
    "write_text": "write", "write_bytes": "write", "read_text": "read",
    "read_bytes": "read", "replace": "replace", "scan": "scan",
}


class TestOneRetryLoop:
    """All six entry points share one discipline; only the op decides the outcome."""

    @pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
    @pytest.mark.parametrize("entry", list(ENTRY_OPS))
    def test_persistent_faults_run_the_shared_discipline(
        self, tmp_path, monkeypatch, entry, degraded
    ):
        op = ENTRY_OPS[entry]
        # The per-attempt functions are looked up at call time, so a
        # wrapper on the module (how perfbench counts attempts) sees each.
        once_calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                once_calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for name in ("_write_once", "_read_once"):
            monkeypatch.setattr(iolayer, name, counting(getattr(iolayer, name)))
        if degraded:
            iolayer.mark_degraded(tmp_path, "test")
        plan = FsFaultPlan(events=(
            FsFaultEvent(op=op, index=0, kind="eio", count=RETRY_ATTEMPTS + 5),
        ))
        with iolayer.fault_plan(plan):
            with pytest.raises((OSError, StoreDegraded)) as excinfo:
                _call_entry_point(entry, tmp_path)
            fired = iolayer.disarm_fault_plan()
        probing = degraded and op == "write"
        assert fired == (1 if probing else RETRY_ATTEMPTS)
        assert iolayer.io_error_count(tmp_path) == fired
        if op in ("write", "read"):
            assert len(once_calls) == fired
        degrades = op in ("write", "replace")
        assert type(excinfo.value) is (StoreDegraded if degrades else OSError)
        assert iolayer.is_degraded(tmp_path) is (degrades or degraded)

    @pytest.mark.parametrize("entry", list(ENTRY_OPS))
    def test_a_landing_first_attempt_builds_no_backoff_rng(self, tmp_path, monkeypatch, entry):
        built = []
        real = random.Random
        monkeypatch.setattr(iolayer.random, "Random", lambda *a: built.append(a) or real(*a))
        _call_entry_point(entry, tmp_path)
        assert built == []
        plan = FsFaultPlan(events=(FsFaultEvent(op=ENTRY_OPS[entry], index=0, kind="eio"),))
        with iolayer.fault_plan(plan):
            _call_entry_point(entry, tmp_path)
        assert len(built) == 1


class TestFaultPlanShape:
    def test_event_validation_rejects_impossible_combinations(self):
        with pytest.raises(ValueError):
            FsFaultEvent(op="write", index=0, kind="lost_rename")
        with pytest.raises(ValueError):
            FsFaultEvent(op="replace", index=0, kind="partial_write")
        with pytest.raises(ValueError):
            FsFaultEvent(op="chmod", index=0, kind="eio")
        with pytest.raises(ValueError):
            FsFaultEvent(op="fsync", index=0, kind="eio")  # the seam never fsyncs
        with pytest.raises(ValueError):
            FsFaultEvent(op="write", index=-1, kind="eio")


class TestWriteSeam:
    def test_plain_write_lands_atomically(self, tmp_path):
        target = tmp_path / "entry.json"
        iolayer.write_text(target, "payload", root=tmp_path)
        assert target.read_text(encoding="utf-8") == "payload"
        assert not list(tmp_path.glob("*.tmp*"))

    def test_single_transient_error_is_retried_invisibly(self, tmp_path):
        target = tmp_path / "entry.json"
        with iolayer.fault_plan(enospc_plan(1)):
            iolayer.write_text(target, "payload", root=tmp_path)
        assert target.read_text(encoding="utf-8") == "payload"
        assert not iolayer.is_degraded(tmp_path)
        assert iolayer.io_error_count(tmp_path) == 1

    def test_exhausted_retries_degrade_the_root(self, tmp_path):
        target = tmp_path / "entry.json"
        with iolayer.fault_plan(enospc_plan(RETRY_ATTEMPTS + 5)):
            with pytest.raises(StoreDegraded) as excinfo:
                iolayer.write_text(target, "payload", root=tmp_path)
        assert iolayer.is_degraded(tmp_path)
        assert "degraded" in str(excinfo.value)
        assert excinfo.value.root == str(tmp_path)
        assert excinfo.value.op == "write"
        assert isinstance(excinfo.value, StoreError)
        assert not target.exists()

    def test_degraded_root_makes_single_probing_attempts(self, tmp_path):
        iolayer.mark_degraded(tmp_path, "test")
        target = tmp_path / "entry.json"
        # Still failing: one attempt, one new io_error, still degraded.
        with iolayer.fault_plan(enospc_plan(1)):
            with pytest.raises(StoreDegraded):
                iolayer.write_text(target, "payload", root=tmp_path)
        assert iolayer.io_error_count(tmp_path) == 1
        assert iolayer.is_degraded(tmp_path)
        # Space returned: the first successful write clears the flag.
        iolayer.write_text(target, "payload", root=tmp_path)
        assert not iolayer.is_degraded(tmp_path)
        assert target.read_text(encoding="utf-8") == "payload"

    def test_non_transient_errors_pass_through_untouched(self, tmp_path):
        missing_dir = tmp_path / "nope" / "entry.json"
        with pytest.raises(OSError) as excinfo:
            iolayer.write_text(missing_dir, "payload", root=tmp_path)
        assert not isinstance(excinfo.value, StoreDegraded)
        assert not iolayer.is_degraded(tmp_path)

    def test_partial_write_appears_to_succeed_but_tears_the_file(self, tmp_path):
        target = tmp_path / "entry.json"
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=0, kind="partial_write", param=0.5),
        ))
        with iolayer.fault_plan(plan):
            iolayer.write_text(target, "0123456789", root=tmp_path)
        assert target.read_text(encoding="utf-8") == "01234"
        assert not iolayer.is_degraded(tmp_path)

    def test_lost_rename_appears_to_succeed_but_drops_the_file(self, tmp_path):
        target = tmp_path / "entry.json"
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="replace", index=0, kind="lost_rename"),
        ))
        with iolayer.fault_plan(plan):
            iolayer.write_text(target, "payload", root=tmp_path)
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp*"))  # the temp is gone too

    def test_lost_rename_of_a_move_keeps_the_source(self, tmp_path):
        # Like a lost write, which keeps the old file: the move did not
        # happen, so nothing is deleted.
        src, dst = tmp_path / "entry.json", tmp_path / "moved.json"
        src.write_text("payload", encoding="utf-8")
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="replace", index=0, kind="lost_rename"),
        ))
        with iolayer.fault_plan(plan):
            iolayer.replace(src, dst, root=tmp_path)
        assert src.read_text(encoding="utf-8") == "payload"
        assert not dst.exists()


class TestTargetedEvents:
    def test_match_counts_only_matching_names(self, tmp_path):
        # Index 1 with match="run-*": the SECOND run-* write tears, no
        # matter how many other writes interleave.
        plan = FsFaultPlan(events=(
            FsFaultEvent(op="write", index=1, kind="partial_write",
                         param=0.0, match="run-*"),
        ))
        with iolayer.fault_plan(plan):
            iolayer.write_text(tmp_path / "index.json", "index", root=tmp_path)
            iolayer.write_text(tmp_path / "run-a.json", "aaaa", root=tmp_path)
            iolayer.write_text(tmp_path / "index2.json", "index", root=tmp_path)
            iolayer.write_text(tmp_path / "run-b.json", "bbbb", root=tmp_path)
        assert (tmp_path / "run-a.json").read_text() == "aaaa"
        assert (tmp_path / "run-b.json").read_text() == ""  # torn
        assert (tmp_path / "index.json").read_text() == "index"

    def test_disarm_reports_fired_count(self, tmp_path):
        iolayer.arm_fault_plan(enospc_plan(1))
        # The single ENOSPC fires on attempt 0 and the retry lands clean:
        # invisible to the caller, but counted by the armed plan.
        iolayer.write_text(tmp_path / "x", "x", root=tmp_path)
        assert iolayer.disarm_fault_plan() == 1
        assert iolayer.disarm_fault_plan() == 0  # idempotent when unarmed


class TestScan:
    def test_scan_lists_sorted_matches(self, tmp_path):
        (tmp_path / "b.json").write_text("{}")
        (tmp_path / "a.json").write_text("{}")
        names = [p.name for p in iolayer.scan(tmp_path, "*.json", root=tmp_path)]
        assert names == ["a.json", "b.json"]

    def test_persistent_scan_faults_raise_oserror_not_degraded(self, tmp_path):
        with iolayer.fault_plan(enospc_plan(RETRY_ATTEMPTS + 2, op="scan")):
            with pytest.raises(OSError) as excinfo:
                iolayer.scan(tmp_path, "*", root=tmp_path)
        assert not isinstance(excinfo.value, StoreDegraded)
        assert not iolayer.is_degraded(tmp_path)  # reads never degrade
        assert iolayer.io_error_count(tmp_path) == RETRY_ATTEMPTS


class TestProbe:
    def test_probe_on_healthy_root_is_free(self, tmp_path):
        assert iolayer.probe(tmp_path) is True

    def test_probe_fails_while_capacity_is_exhausted(self, tmp_path):
        iolayer.mark_degraded(tmp_path, "test")
        with iolayer.fault_plan(enospc_plan(10)):
            assert iolayer.probe(tmp_path) is False
        assert iolayer.is_degraded(tmp_path)

    def test_probe_recovers_the_root_and_cleans_up(self, tmp_path):
        iolayer.mark_degraded(tmp_path, "test")
        assert iolayer.probe(tmp_path) is True
        assert not iolayer.is_degraded(tmp_path)
        assert not list(tmp_path.iterdir())  # probe file removed
