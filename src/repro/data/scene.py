"""Scene state: the latent context behind every simulated frame.

The paper's central observation is that the *context* of a frame — how far
the drone is, how cluttered and low-contrast the background is, how fast
things move — determines how accurate each object-detection model will be.
This module makes that context explicit: a :class:`SceneState` captures the
latent variables, and :func:`scene_difficulty` collapses them into a single
difficulty score in ``[0, 1]`` that drives the simulated detectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..vision.bbox import BoundingBox
from ..vision.style import DEFAULT_FRAME_SIZE, BackgroundStyle

# Gray level the target is painted with; difficulty rises as the background
# brightness approaches it (camouflage).
TARGET_GRAY_LEVEL = 0.08

# Apparent target width in pixels at distance 0 (nearest) for a 96-px frame.
NEAR_TARGET_WIDTH = 30.0
# Fraction of the near width that remains at distance 1 (farthest).
FAR_WIDTH_FRACTION = 0.12
# Drones render wider than tall in our scenarios (quadcopter profile).
TARGET_ASPECT = 0.62

# Speed (pixels/frame) past which motion blur saturates the difficulty term.
MOTION_SATURATION_SPEED = 6.0


@dataclass(frozen=True)
class SceneState:
    """Latent state of the world at one frame.

    ``distance`` is normalized: 0 means nearest approach, 1 means farthest.
    ``cx``/``cy`` are the target center in pixels; ``speed`` is the target's
    apparent speed in pixels/frame; ``drift`` is background pan in pixels.
    ``visible`` is False when the target is outside the camera frustum.
    """

    background: BackgroundStyle
    background_name: str
    cx: float
    cy: float
    distance: float
    speed: float = 0.0
    drift: float = 0.0
    visible: bool = True
    frame_size: int = DEFAULT_FRAME_SIZE

    def __post_init__(self) -> None:
        if not 0.0 <= self.distance <= 1.0:
            raise ValueError(f"distance must be within [0, 1], got {self.distance}")
        if self.speed < 0.0:
            raise ValueError(f"speed must be non-negative, got {self.speed}")
        if self.frame_size <= 0:
            raise ValueError("frame_size must be positive")

    @property
    def target_width(self) -> float:
        """Apparent target width in pixels, shrinking with distance."""
        scale = FAR_WIDTH_FRACTION + (1.0 - FAR_WIDTH_FRACTION) * (1.0 - self.distance)
        return NEAR_TARGET_WIDTH * scale * (self.frame_size / DEFAULT_FRAME_SIZE)

    @property
    def target_height(self) -> float:
        """Apparent target height in pixels."""
        return self.target_width * TARGET_ASPECT

    def ground_truth_box(self) -> BoundingBox | None:
        """The target's true bounding box, clipped to the frame.

        Returns None when the target is not visible or its box falls
        entirely outside the frame.
        """
        if not self.visible:
            return None
        box = BoundingBox.from_center(self.cx, self.cy, self.target_width, self.target_height)
        clipped = box.clipped(float(self.frame_size), float(self.frame_size))
        if clipped.is_degenerate():
            return None
        return clipped

    def with_position(self, cx: float, cy: float) -> "SceneState":
        """Copy with a new target position."""
        return replace(self, cx=cx, cy=cy)


def _size_term(scene: SceneState) -> float:
    """Smaller apparent targets are harder; saturates for large targets."""
    relative_width = scene.target_width / scene.frame_size
    # Targets spanning >=24% of the frame are trivially easy (term 0); the
    # smallest far targets approach 1.
    return float(min(1.0, max(0.0, 1.0 - relative_width / 0.24)))


def _clutter_term(scene: SceneState) -> float:
    """Busy textures produce distractor responses."""
    return scene.background.complexity


def _camouflage_term(scene: SceneState) -> float:
    """Low brightness gap between target and background hides the target."""
    gap = abs(scene.background.brightness - TARGET_GRAY_LEVEL)
    # Gap of >=0.5 gray levels gives full separation.
    separation = min(1.0, gap / 0.5)
    # Strong texture contrast additionally masks the silhouette.
    masking = 0.35 * scene.background.contrast
    return float(min(1.0, max(0.0, 1.0 - separation + masking)))


def _motion_term(scene: SceneState) -> float:
    """Fast apparent motion blurs the target."""
    combined = scene.speed + 0.5 * abs(scene.drift)
    return float(min(1.0, combined / MOTION_SATURATION_SPEED))


def _edge_term(scene: SceneState) -> float:
    """Targets near the frame edge are partially cropped and harder."""
    half = scene.frame_size / 2.0
    dx = abs(scene.cx - half) / half
    dy = abs(scene.cy - half) / half
    eccentricity = max(dx, dy)
    # Only the outer 25% of travel toward the edge matters.
    return float(min(1.0, max(0.0, (eccentricity - 0.75) / 0.25)))


# Blend weights for the difficulty factors; chosen so distance dominates
# (matching the paper's scenarios, where range drives model choice), with
# background clutter/camouflage next and motion/edge effects as refinements.
DIFFICULTY_WEIGHTS = {
    "size": 0.40,
    "clutter": 0.22,
    "camouflage": 0.22,
    "motion": 0.10,
    "edge": 0.06,
}


def difficulty_components(scene: SceneState) -> dict[str, float]:
    """Per-factor difficulty contributions, each in [0, 1]."""
    return {
        "size": _size_term(scene),
        "clutter": _clutter_term(scene),
        "camouflage": _camouflage_term(scene),
        "motion": _motion_term(scene),
        "edge": _edge_term(scene),
    }


def combine_difficulty(components: dict[str, float]) -> float:
    """The weighted blend of :func:`difficulty_components`, in [0, 1].

    Callers that already hold the components (batched sweeps) combine them
    directly; frames whose target is invisible or fully clipped are
    difficulty 1.0 by definition and must not reach this blend.
    """
    value = sum(DIFFICULTY_WEIGHTS[name] * term for name, term in components.items())
    return float(min(1.0, max(0.0, value)))


def scene_difficulty(scene: SceneState) -> float:
    """Collapse the scene's latent factors into a difficulty in [0, 1].

    0 is an easy frame every model nails (close target, clean contrasted
    background); 1 is a frame where even the largest model struggles.
    An invisible target has difficulty 1 by definition — no detector can
    localize it.
    """
    if not scene.visible or scene.ground_truth_box() is None:
        return 1.0
    return combine_difficulty(difficulty_components(scene))


def approach_profile(start: float, end: float, count: int) -> list[float]:
    """Smooth (cosine-eased) distance profile from ``start`` to ``end``."""
    if count <= 0:
        return []
    if count == 1:
        return [end]
    profile = []
    for i in range(count):
        t = i / (count - 1)
        eased = (1.0 - math.cos(math.pi * t)) / 2.0
        profile.append(start + (end - start) * eased)
    return profile
