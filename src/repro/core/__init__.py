"""SHIFT core: confidence graph, scheduler, loader, pipeline."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "policy": ("Policy", "RuntimeServices"),
    "records": ("FrameRecord", "RunResult"),
    "presets": ("config_for_objective", "objective_names"),
    "confidence_graph": (
        "ConfidenceGraph", "Prediction", "DEFAULT_BIN_WIDTH", "DEFAULT_DISTANCE_THRESHOLD",
    ),
    "config": ("ShiftConfig", "PAPER_CONFIG"),
    "context": ("ContextDetector",),
    "loader": ("DynamicModelLoader", "LoadOutcome"),
    "pipeline": ("ShiftPipeline",),
    "scheduler": ("ShiftScheduler", "SchedulingDecision"),
    "traits": ("TraitTable", "PairTraits", "Pair"),
})
