"""Template-matching object tracker.

Marlin (Apicharttrisorn et al., SenSys'19) alternates a full DNN detection
with a lightweight tracker: the DNN fires occasionally, the tracker follows
the object in between at a fraction of the energy.  This module implements
the tracker half as normalized-cross-correlation template matching over a
local search window — the classic low-power approach Marlin-style systems
use on mobile SoCs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bbox import BoundingBox
from .ncc import crop, resize_nearest


@dataclass(frozen=True)
class TrackResult:
    """Outcome of one tracking step.

    ``box`` is the tracker's new estimate; ``score`` is the peak NCC match
    in [−1, 1]; ``lost`` flags that the match fell below the tracker's
    confidence floor and the caller should re-run a detector.
    """

    box: BoundingBox | None
    score: float
    lost: bool


class TemplateTracker:
    """NCC template tracker with a bounded search window.

    The tracker keeps a grayscale template of the target from the last
    anchor detection, with the template's centered values and norm.  Each
    ``track`` call scans a ``search_radius`` window around the previous
    position (stride-1 exhaustive match on the small simulated frames) and
    reports the best location.  When the best NCC falls below
    ``loss_threshold`` the target is declared lost.
    """

    def __init__(
        self,
        search_radius: int = 12,
        loss_threshold: float = 0.45,
        template_size: int = 16,
    ) -> None:
        if search_radius <= 0:
            raise ValueError("search_radius must be positive")
        if not -1.0 <= loss_threshold <= 1.0:
            raise ValueError("loss_threshold must be within [-1, 1]")
        if template_size <= 1:
            raise ValueError("template_size must be at least 2")
        self.search_radius = search_radius
        self.loss_threshold = loss_threshold
        self.template_size = template_size
        self._centered: np.ndarray | None = None
        self._norm = 0.0
        self._box: BoundingBox | None = None

    @property
    def has_target(self) -> bool:
        """True when an anchor detection has been registered."""
        return self._centered is not None and self._box is not None

    def reset(self) -> None:
        """Drop the current template; the next call must re-anchor."""
        self._centered = None
        self._box = None

    def anchor(self, image: np.ndarray, box: BoundingBox) -> None:
        """Register a fresh detection as the tracking template."""
        if box.is_degenerate():
            raise ValueError("cannot anchor a degenerate box")
        patch = crop(image, box)
        template = resize_nearest(patch, self.template_size, self.template_size)
        template = template.astype(np.float64).reshape(-1)
        self._centered = template - template.mean()
        self._norm = float(np.sqrt((self._centered**2).sum()))
        self._box = box

    def track(self, image: np.ndarray) -> TrackResult:
        """Locate the template in ``image`` near the previous position."""
        if self._centered is None or self._box is None:
            return TrackResult(box=None, score=0.0, lost=True)

        height, width = image.shape[:2]
        prev = self._box
        box_w = max(2.0, prev.width)
        box_h = max(2.0, prev.height)
        cx_prev, cy_prev = prev.center

        best_score, best_center = self._scan(image, cx_prev, cy_prev, box_w, box_h)

        if best_score < self.loss_threshold:
            return TrackResult(box=None, score=max(best_score, -1.0), lost=True)

        new_box = BoundingBox.from_center(best_center[0], best_center[1], box_w, box_h)
        new_box = new_box.clipped(float(width), float(height))
        self._box = new_box
        return TrackResult(box=new_box, score=best_score, lost=False)

    def _scan(
        self,
        image: np.ndarray,
        cx_prev: float,
        cy_prev: float,
        box_w: float,
        box_h: float,
    ) -> tuple[float, tuple[float, float]]:
        """Exhaustive template match over the search window, vectorized.

        Every candidate shares the box size, so the template-grid pixel
        indices are computed once and gathered for all offsets at once
        (two ``take`` calls: rows, then columns); the NCC of every
        candidate then reduces along one axis.
        """
        assert self._centered is not None
        if self._norm < 1e-12:
            return (0.0, (cx_prev, cy_prev))
        height, width = image.shape[:2]
        ts = self.template_size
        radius = self.search_radius
        offsets = np.arange(-radius, radius + 1, 2, dtype=np.float64)
        count = len(offsets)

        # Template-grid sample coordinates relative to the box center.
        rel_x = (np.arange(ts) + 0.5) / ts * box_w - box_w / 2.0
        rel_y = (np.arange(ts) + 0.5) / ts * box_h - box_h / 2.0

        centers_x = cx_prev + offsets
        centers_y = cy_prev + offsets
        # Absolute pixel indices per (candidate, template cell), clipped to
        # the frame so off-edge candidates sample border pixels.
        xs = np.clip((centers_x[:, None] + rel_x[None, :]).astype(int), 0, width - 1)
        ys = np.clip((centers_y[:, None] + rel_y[None, :]).astype(int), 0, height - 1)

        # gathered[iy * ts + ty, ix * ts + tx] = image[ys[iy, ty], xs[ix, tx]];
        # flat[iy * count + ix] is then the (ts * ts) patch at (dy=iy, dx=ix).
        rows = np.take(image, ys.reshape(-1), axis=0)
        gathered = np.take(rows, xs.reshape(-1), axis=1)
        patches = gathered.reshape(count, ts, count, ts).transpose(0, 2, 1, 3)
        flat = patches.reshape(count * count, ts * ts).astype(np.float64, copy=False)
        flat -= flat.mean(axis=1, keepdims=True)
        norms = np.sqrt((flat * flat).sum(axis=1))

        with np.errstate(invalid="ignore", divide="ignore"):
            scores = (flat @ self._centered) / (norms * self._norm)
        scores = np.where(norms < 1e-12, 0.0, scores)

        best_index = int(np.argmax(scores))
        best_iy, best_ix = divmod(best_index, count)
        best_center = (float(centers_x[best_ix]), float(centers_y[best_iy]))
        return float(scores[best_index]), best_center
