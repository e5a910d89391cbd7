"""Deterministic *filesystem* fault injection for the persistence tier.

The sibling of :mod:`repro.verify.faults`: that module kills workers,
this one breaks their disk.  An :class:`~repro.runtime.iolayer.FsFaultPlan`
— ENOSPC bursts, EIO, lost renames, partial writes, slow I/O, scheduled
by ``(operation, per-op index)`` with optional file-name targeting — is
armed process-wide while a worker fleet drains a real on-disk queue, and
:func:`run_fsfault_sweep` then audits the aftermath against the
degraded-mode contract:

* **zero lost jobs** — every enqueued job ends ``done`` once capacity
  returns;
* **zero dead-letters from disk pressure** — capacity failures release
  leases (attempt refunded) instead of burning the retry budget;
* **torn writes quarantined, never served** — a partial write or lost
  rename that slipped through as a "successful" commit is detected by
  scrub/load, moved to ``_quarantine``, and healed by re-execution;
* **bit equality once space returns** — after the recovery pass, every
  committed run is field-for-field identical to a serial
  :func:`~repro.runtime.runner.run_policy` of the same job;
* **full recovery** — no root is still degraded when the sweep ends.

The recovery discipline between the faulted drain and the audit is the
documented operational playbook, exercised end to end: probe each root
(space returned), scrub both stores and the queue (quarantine torn
entries), re-offer the job set idempotently, and re-pend any job whose
committed effect went missing — then drain again on a healthy disk.

Seeding, the thread-fleet drain and the audit are the shared core in
:mod:`repro.verify.faults` (:class:`~repro.verify.faults.DrainHarness`);
this module adds the plan, the recovery pass, and the disk-specific
outcome clauses.  The ``fsfaults`` differential check replays a fixed
plan over a tiny matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence
from typing import ClassVar

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo
from ..runtime import iolayer
from ..runtime.iolayer import FsFaultEvent, FsFaultPlan
from ..runtime.trace import ScenarioTrace
from .faults import SWEEP_TIMEOUT, DrainHarness, DrainOutcome


def fs_fault_plan_for_check() -> FsFaultPlan:
    """The fixed plan the ``fsfaults`` differential check replays.

    Coverage by construction: the ENOSPC burst is wide enough to exhaust
    one write's whole retry budget (degrading a root) and spill into the
    single-attempt probe-on-write regime; the EIO event exercises the
    transient-retry path without degrading; the partial write and lost
    rename target run entries by name, so exactly the commit path is
    torn regardless of how many queue-record writes interleave; slow I/O
    stretches one early write.  Job records are never targeted by the
    destructive kinds — losing *pending* state is the submitter's
    re-offer to heal, and the check wants the harder case: a job marked
    ``done`` whose effect is torn or missing.
    """
    return FsFaultPlan(
        events=(
            FsFaultEvent(op="write", index=1, kind="slow_io", param=0.01),
            FsFaultEvent(op="write", index=3, kind="enospc", count=8),
            FsFaultEvent(op="write", index=14, kind="eio"),
            FsFaultEvent(op="write", index=0, kind="partial_write",
                         param=0.4, match="run-*"),
            FsFaultEvent(op="replace", index=1, kind="lost_rename", match="run-*"),
        ),
    )


@dataclass
class FsFaultOutcome(DrainOutcome):
    """Everything :func:`run_fsfault_sweep` can assert about the aftermath."""

    faults_fired: int = 0
    expect_torn: bool = False
    healed_jobs: int = 0
    degraded_refusals: int = 0
    io_errors: int = 0
    still_degraded: list[str] = field(default_factory=list)

    dead_letter_cause: ClassVar[str] = " by pure disk pressure"

    @property
    def torn_injected(self) -> bool:
        return self.expect_torn

    def _plan_failures(self) -> list[str]:
        problems: list[str] = []
        if not self.faults_fired:
            problems.append("the fault plan never fired (harness misses the seam)")
        if self.still_degraded:
            problems.append(
                f"roots still degraded after recovery: {self.still_degraded}"
            )
        return problems


def _repend_missing(harness: DrainHarness) -> int:
    """Re-pend every job marked done whose committed effect is torn or
    missing — the one case lease expiry cannot heal; jobs re-pended.

    The probing load itself quarantines a torn entry it trips over
    (counted by the harness audit).
    """
    healed = 0
    for digest, key in harness.keys.items():
        if harness.run_store.load_metrics(key) is None:
            healed += 1
            harness.master.repend(digest)
    return healed


def run_fsfault_sweep(
    scenarios: Sequence[Scenario],
    specs: Sequence[str],
    root: str | Path,
    *,
    plan: FsFaultPlan | None = None,
    engine_seed: int = 1234,
    zoo: ModelZoo | None = None,
    prebuilt: Sequence[ScenarioTrace] = (),
) -> FsFaultOutcome:
    """Drain ``specs`` x ``scenarios`` through a fleet on an injected-fault disk.

    Phase 1 (faulted): traces are pre-seeded, the plan is armed, and the
    fleet drains the queue while writes fail, tear, and vanish on
    schedule.  Phase 2 (recovery): the plan is disarmed ("space
    returned"), each root is probed, stores and queue are scrubbed, the
    job set is re-offered idempotently, jobs whose committed effect is
    missing are re-pended, and a fresh fleet drains the remainder on a
    healthy disk.  The returned
    :class:`FsFaultOutcome` carries the full audit; callers assert
    :attr:`FsFaultOutcome.passed`.
    """
    if plan is None:
        plan = fs_fault_plan_for_check()
    # The harness seeds traces before the plan is armed: the plan aims at
    # the run/queue write paths, and a warm trace store keeps the check's
    # wall-clock low.
    harness = DrainHarness(
        root, scenarios, specs, zoo=zoo, prebuilt=prebuilt, engine_seed=engine_seed
    )
    for store_root in harness.roots:
        iolayer.reset_state(store_root)

    deadline = time.monotonic() + SWEEP_TIMEOUT
    outcome = FsFaultOutcome(
        job_count=len(harness.unique_jobs),
        expect_torn=any(
            event.kind in ("partial_write", "lost_rename") for event in plan.events
        ),
    )

    # ------------------------------------------------------ phase 1: faulted
    iolayer.arm_fault_plan(plan)
    try:
        # Leave headroom for recovery even if phase 1 wedges: a torn
        # commit can mark its job done, so this drain's verdict is not
        # the sweep's.
        harness.drain(deadline=time.monotonic() + SWEEP_TIMEOUT * 0.6, tag="fs")
    finally:
        outcome.faults_fired = iolayer.disarm_fault_plan()
    outcome.io_errors = sum(iolayer.io_error_count(r) for r in harness.roots)
    outcome.degraded_refusals = sum(w.queue.degraded_refusals for w in harness.fleet)

    # ----------------------------------------------------- phase 2: recovery
    for store_root in harness.roots:
        iolayer.probe(store_root)  # space returned: clear any degraded flag
    maintained = (harness.run_store, harness.trace_store, harness.master)
    outcome.corrupt_quarantined += sum(store.scrub().quarantined for store in maintained)
    # Submitter idempotence: re-offering the whole set restores any job
    # record a fault destroyed outright (enqueue is a no-op otherwise).
    harness.master.enqueue_all(harness.jobs, engine_seed=engine_seed)
    outcome.healed_jobs = _repend_missing(harness)
    outcome.timed_out = harness.drain(deadline=deadline, tag="heal")

    # -------------------------------------------------------------- audit
    outcome.still_degraded = [
        str(store_root) for store_root in harness.roots if iolayer.is_degraded(store_root)
    ]
    harness.audit(outcome)
    return outcome
