"""Simulated object-detection model zoo."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "detector": (
        "DetectionOutcome", "SceneBatch", "detect", "detect_batch", "shared_scene_noise",
        "ContextId", "SCENE_NOISE_SIGMA",
    ),
    "families": ("paper_specs", "YOLO_FAMILY", "SSD_FAMILY"),
    "spec": ("ModelSpec", "SkillCurve", "ConfidenceCalibration"),
    "zoo": ("ModelZoo", "default_zoo"),
})
