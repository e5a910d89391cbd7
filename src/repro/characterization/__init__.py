"""Offline ODM characterization (paper §III-A)."""

from .builder import characterize
from .profiler import (
    AccuracyTrait,
    CharacterizationBundle,
    ConfidenceObservation,
    PerformanceTrait,
    profile_accuracy,
    profile_load_costs,
    profile_performance,
)
from .serialization import (
    SCHEMA_VERSION,
    BundleSchemaError,
    bundle_from_dict,
    bundle_to_dict,
)

__all__ = [
    "characterize",
    "AccuracyTrait",
    "PerformanceTrait",
    "ConfidenceObservation",
    "CharacterizationBundle",
    "profile_accuracy",
    "profile_performance",
    "profile_load_costs",
    "bundle_to_dict",
    "bundle_from_dict",
    "BundleSchemaError",
    "SCHEMA_VERSION",
]
