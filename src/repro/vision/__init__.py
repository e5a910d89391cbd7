"""Vision primitives: boxes, IoU, NMS, NCC, rendering, and tracking."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bbox": ("BoundingBox", "center_distance", "enclosing_box", "iou", "mean_iou", "success_rate"),
    "ncc": ("ncc", "stacked_ncc", "crop", "resize_nearest", "box_ncc", "frame_similarity"),
    "nms": (
        "ScoredBox", "non_max_suppression", "best_detection", "DEFAULT_IOU_THRESHOLD",
        "DEFAULT_CONFIDENCE_THRESHOLD",
    ),
    "rendering": (
        "BackgroundStyle", "render_frame", "render_segment_frames", "frame_difference_energy",
        "DEFAULT_FRAME_SIZE",
    ),
    "tracker": ("TemplateTracker", "TrackResult"),
})
