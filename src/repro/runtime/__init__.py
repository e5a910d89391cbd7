"""Continuous-detection runtime: traces, stores, policies, runner, metrics."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "constraints": ("ConstraintReport", "evaluate_constraints"),
    "segments": ("SegmentMetrics", "segment_metrics"),
    "metrics": (
        "RunMetrics", "aggregate", "average_metrics", "efficiency_series",
        "SUCCESS_IOU_THRESHOLD",
    ),
    "iolayer": ("FsFaultEvent", "FsFaultPlan", "StoreError", "StoreDegraded"),
    "maintenance": ("ScrubReport", "GcReport"),
    "..core.policy": ("Policy", "RuntimeServices"),
    "..core.records": ("FrameRecord", "RunResult"),
    "runner": ("run_policy",),
    "trace": ("ScenarioTrace",),
    "tracecache": ("TraceCache",),
    "experiment": ("ExperimentRunner",),
    "bundlestore": ("BundleKey", "BundleStore", "save_bundle", "load_bundle"),
    "store": ("TraceStore", "TraceSchemaError"),
    "runstore": ("RunStore", "RunKey", "RunSchemaError"),
})
