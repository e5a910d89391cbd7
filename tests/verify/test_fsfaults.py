"""Filesystem fault-injection harness tests: plan, taxonomy, full sweep.

The sibling of :mod:`tests.verify.test_faults` for the disk-fault
harness.  CI trusts the ``fsfaults`` verdict, so the pieces behind it
are pinned independently: the fixed check plan's coverage contract
(capacity, torn, and lost-rename faults all scheduled, run entries
targeted by name), the outcome failure taxonomy (every contract clause
names its own defect), and one real seeded sweep that must survive its
plan end to end.
"""

import pytest

from repro.data import ScenarioMatrix
from repro.verify import (
    FsFaultOutcome,
    fs_fault_plan_for_check,
    run_fsfault_sweep,
)

TINY = ScenarioMatrix(
    name="fsft",
    compositions=(("loiter",),),
    regimes=("day",),
    seeds=(3,),
    frame_budgets=(16,),
)


class TestCheckPlan:
    def test_covers_the_contracted_fault_kinds(self):
        plan = fs_fault_plan_for_check()
        kinds = {event.kind for event in plan.events}
        # Capacity exhaustion (degraded mode), a transient error, and
        # both silent-corruption shapes must all be on the schedule.
        assert {"enospc", "eio", "partial_write", "lost_rename"} <= kinds

    def test_destructive_kinds_target_run_entries_only(self):
        # Tearing a *pending* job record is the easy case (the submitter
        # re-offers it); the check wants the hard one — a job marked done
        # whose committed effect is torn or missing.
        for event in fs_fault_plan_for_check().events:
            if event.kind in ("partial_write", "lost_rename"):
                assert event.match == "run-*"

    def test_enospc_burst_exhausts_a_whole_retry_budget(self):
        from repro.runtime.iolayer import RETRY_ATTEMPTS

        [burst] = [e for e in fs_fault_plan_for_check().events if e.kind == "enospc"]
        assert burst.count > RETRY_ATTEMPTS


class TestOutcomeTaxonomy:
    def base(self, **overrides) -> FsFaultOutcome:
        fields = dict(job_count=2, run_entries=2, expected_entries=2,
                      faults_fired=5, expect_torn=True, corrupt_quarantined=1)
        fields.update(overrides)
        return FsFaultOutcome(**fields)

    def test_clean_outcome_passes(self):
        outcome = self.base()
        assert outcome.failures() == []
        assert outcome.passed

    def test_each_defect_is_named(self):
        assert "lost" in self.base(lost_jobs=["abc=pending"]).failures()[0]
        assert "disk" in self.base(dead_jobs=["abc"]).failures()[0]
        assert "entries" in self.base(run_entries=5).failures()[0]
        assert "diverge" in self.base(serial_mismatches=["x"]).failures()[0]
        assert "timed out" in self.base(timed_out=True).failures()[0].lower()
        assert "never fired" in self.base(faults_fired=0).failures()[0]
        assert "degraded" in self.base(still_degraded=["runs"]).failures()[0]
        assert "quarantined" in self.base(corrupt_quarantined=0).failures()[0]
        assert "audit" in self.base(audit_problems=["drift"]).failures()[0]

    def test_quarantine_only_required_when_torn_faults_scheduled(self):
        enospc_only = self.base(expect_torn=False, corrupt_quarantined=0)
        assert enospc_only.passed


class TestSweep:
    def test_seeded_sweep_survives_its_plan(self, tmp_path):
        [scenario] = TINY.scenarios()
        outcome = run_fsfault_sweep(
            [scenario], ["marlin-tiny", "single:yolov7-tiny@gpu"], tmp_path
        )
        assert outcome.passed, outcome.failures()
        assert outcome.faults_fired >= 3
        # The ENOSPC burst still exhausts a whole retry budget, so a root
        # goes degraded.  Whether a claim then lands inside the burst (a
        # degraded refusal) depends on how the two workers interleave.
        from repro.runtime.iolayer import RETRY_ATTEMPTS

        assert outcome.io_errors >= RETRY_ATTEMPTS
        assert outcome.run_entries == outcome.expected_entries == 2
        assert not outcome.still_degraded

    def test_sweep_without_faults_is_flagged_not_passed(self, tmp_path):
        from repro.runtime.iolayer import FsFaultPlan

        [scenario] = TINY.scenarios()
        outcome = run_fsfault_sweep(
            [scenario], ["single:yolov7-tiny@gpu"], tmp_path,
            plan=FsFaultPlan(events=()),
        )
        # A plan that never fires means the harness missed the seam —
        # that is a harness defect, and the outcome must say so.
        assert not outcome.passed
        assert any("never fired" in failure for failure in outcome.failures())
