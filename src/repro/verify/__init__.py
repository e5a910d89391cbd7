"""Differential verification: cross-engine equality checks and fuzz sweeps.

Turns any scenario — hand-written or grammar-generated — into a
correctness witness: scalar vs batched detection, per-frame vs
segment-batched rendering, store round-trips, and trace/scheduler
invariants all have to agree before a scenario counts as healthy.  See
:mod:`repro.verify.differential` for the checks and
:mod:`repro.verify.fuzz` for the matrix sweep driver behind
``python -m repro verify`` and the CI ``fuzz-smoke`` job.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "differential": (
        "CHECKS", "CheckResult", "ScenarioReport", "check_render_equality",
        "check_detect_equality", "check_store_roundtrip", "check_trace_invariants",
        "check_run_invariants", "check_fast_run_equivalence", "check_service_equivalence",
        "check_fault_tolerance", "check_fs_fault_tolerance", "default_fast_run_policy_factories",
        "verify_scenario",
    ),
    "faults": (
        "FAULT_KINDS", "FaultEvent", "FaultHooks", "FaultOutcome", "FaultPlan",
        "ProcessFaultHooks", "fault_plan_for_check", "run_fault_sweep",
    ),
    "fsfaults": ("FsFaultOutcome", "fs_fault_plan_for_check", "run_fsfault_sweep"),
    "fuzz": (
        "DEFAULT_SAMPLE", "SCENARIOS_ENV", "FuzzReport", "default_sample_count", "fuzz_matrix",
        "fuzz_scenarios", "sample_matrix",
    ),
})
