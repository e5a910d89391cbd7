"""Continuous-detection runtime: traces, stores, policies, runner, metrics."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "constraints": ("ConstraintReport", "evaluate_constraints"),
    "segments": ("SegmentMetrics", "segment_metrics"),
    "export": (
        "metrics_to_dict", "record_to_dict", "result_to_dict", "save_metrics",
        "load_metrics_dicts",
    ),
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
    "store": ("TraceStore", "TraceSchemaError", "trace_to_dict", "trace_from_dict"),
    "runstore": ("RunStore", "RunKey", "RunSchemaError", "run_to_dict", "run_from_dict"),
})
