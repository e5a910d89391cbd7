"""What a synthetic frame is rendered from: its size and background style.

These are plain numbers, kept apart from :mod:`repro.vision.rendering`
so that the scenario library (backgrounds, scenes) loads without NumPy;
the renderer imports it when the first frame is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_FRAME_SIZE = 96


@dataclass(frozen=True)
class BackgroundStyle:
    """Parametric description of a background texture.

    ``complexity`` in [0, 1] scales high-frequency clutter; ``brightness``
    sets the mean gray level; ``contrast`` scales the texture amplitude;
    ``pattern_seed`` freezes the underlying random field so one background
    renders identically across frames (only the slow drift moves).
    """

    complexity: float
    brightness: float
    contrast: float
    pattern_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.complexity <= 1.0:
            raise ValueError(f"complexity must be within [0, 1], got {self.complexity}")
        if not 0.0 <= self.brightness <= 1.0:
            raise ValueError(f"brightness must be within [0, 1], got {self.brightness}")
        if not 0.0 <= self.contrast <= 1.0:
            raise ValueError(f"contrast must be within [0, 1], got {self.contrast}")
