"""Baseline policies: single-model, Marlin, and the Oracles."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "marlin": (
        "MarlinPolicy", "DEFAULT_REDETECT_INTERVAL", "DEFAULT_SCENE_CHANGE_NCC",
        "TRACKER_LATENCY_S", "TRACKER_POWER_W",
    ),
    "oracle": (
        "OraclePolicy", "OracleObjective", "oracle_energy", "oracle_accuracy", "oracle_latency",
        "ORACLE_IOU_THRESHOLD",
    ),
    "single_model": ("SingleModelPolicy",),
})
