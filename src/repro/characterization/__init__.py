"""Offline ODM characterization (paper §III-A)."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "builder": ("characterize",),
    "profiler": (
        "AccuracyTrait", "PerformanceTrait", "ConfidenceObservation", "CharacterizationBundle",
        "profile_accuracy", "profile_performance", "profile_load_costs",
    ),
    "serialization": ("bundle_to_dict", "bundle_from_dict", "BundleSchemaError", "SCHEMA_VERSION"),
})
