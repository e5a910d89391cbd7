"""Continuous-detection runtime: traces, stores, policies, runner, metrics."""

from .constraints import ConstraintReport, evaluate_constraints
from .export import (
    load_metrics_dicts,
    metrics_to_dict,
    record_to_dict,
    result_to_dict,
    save_metrics,
)
from .segments import SegmentMetrics, segment_metrics
from .metrics import (
    SUCCESS_IOU_THRESHOLD,
    RunMetrics,
    aggregate,
    average_metrics,
    efficiency_series,
)
from .bundlestore import BundleKey, BundleStore, load_bundle, save_bundle
from .experiment import ExperimentRunner
from .iolayer import FsFaultEvent, FsFaultPlan, StoreDegraded, StoreError
from .maintenance import GcReport, RepairReport, ScrubReport
from ..core.policy import Policy, RuntimeServices
from ..core.records import FrameRecord, RunResult
from .runner import run_policy
from .runstore import RunKey, RunSchemaError, RunStore, run_from_dict, run_to_dict
from .store import TraceSchemaError, TraceStore, trace_from_dict, trace_to_dict
from .trace import ScenarioTrace, TraceCache

__all__ = [
    "ConstraintReport",
    "evaluate_constraints",
    "SegmentMetrics",
    "segment_metrics",
    "metrics_to_dict",
    "record_to_dict",
    "result_to_dict",
    "save_metrics",
    "load_metrics_dicts",
    "RunMetrics",
    "aggregate",
    "average_metrics",
    "efficiency_series",
    "SUCCESS_IOU_THRESHOLD",
    "FsFaultEvent",
    "FsFaultPlan",
    "StoreError",
    "StoreDegraded",
    "ScrubReport",
    "GcReport",
    "RepairReport",
    "Policy",
    "RuntimeServices",
    "FrameRecord",
    "RunResult",
    "run_policy",
    "ScenarioTrace",
    "TraceCache",
    "ExperimentRunner",
    "BundleKey",
    "BundleStore",
    "save_bundle",
    "load_bundle",
    "TraceStore",
    "TraceSchemaError",
    "trace_to_dict",
    "trace_from_dict",
    "RunStore",
    "RunKey",
    "RunSchemaError",
    "run_to_dict",
    "run_from_dict",
]
