"""Synthetic grayscale frame rendering.

The scenario substrate renders small grayscale frames (default 96x96) that
carry the same structure the paper's context detector relies on: a textured
background whose statistics shift when the scene changes, plus a compact
dark target (the drone) whose apparent size shrinks with distance.  NCC on
these pixels behaves like NCC on real footage: high frame-to-frame
similarity within a scene segment, sharp drops at background transitions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .bbox import BoundingBox
from .style import DEFAULT_FRAME_SIZE

if TYPE_CHECKING:
    from .style import BackgroundStyle


@lru_cache(maxsize=128)
def _texture_field(style: BackgroundStyle, size: int) -> np.ndarray:
    """Deterministic multi-octave value-noise field in [-1, 1]."""
    rng = np.random.default_rng(style.pattern_seed)
    field = np.zeros((size, size), dtype=np.float64)
    # Low octaves give broad shapes; higher octaves add clutter proportional
    # to background complexity.
    octaves = (4, 8, 16, 32)
    weights = (0.5, 0.25, 0.15 * style.complexity + 0.05, 0.25 * style.complexity)
    for cells, weight in zip(octaves, weights, strict=True):
        coarse = rng.uniform(-1.0, 1.0, size=(cells, cells))
        reps = int(np.ceil(size / cells))
        tiled = np.kron(coarse, np.ones((reps, reps)))[:size, :size]
        field += weight * tiled
    peak = np.max(np.abs(field))
    if peak > 0:
        field /= peak
    return field


# Gray level the target is painted with (see also scene.TARGET_GRAY_LEVEL,
# which the camouflage difficulty term mirrors).
_TARGET_LEVEL = 0.08

# Frames per batched rendering chunk: keeps the (chunk, H, W) float64
# working set cache-resident (~2.3 MB at the default 96-px frame size) —
# larger chunks stream every temporary through DRAM and run slower.
_RENDER_CHUNK = 32

# Half-width of the paint window in target radii: the ellipse mask is
# exactly zero where dist2 >= 1.5, i.e. beyond sqrt(1.5) radii on either
# axis, and a zero mask makes the blend a bitwise no-op.  One spare pixel
# guards the float rounding of the window bounds.
_PAINT_REACH = float(np.sqrt(1.5))


@lru_cache(maxsize=8)
def _pixel_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(ys, xs)`` integer pixel grid; treated as read-only."""
    ys, xs = np.mgrid[0:size, 0:size]
    return ys, xs


def render_frame(
    style: BackgroundStyle,
    target_box: BoundingBox | None,
    frame_size: int = DEFAULT_FRAME_SIZE,
    drift: float = 0.0,
    noise_rng: np.random.Generator | None = None,
    noise_level: float = 0.01,
) -> np.ndarray:
    """Render one grayscale frame in [0, 1].

    ``drift`` shifts the background texture horizontally (camera pan /
    background motion), measured in pixels.  ``target_box`` paints the drone
    as a dark elliptical blob with a soft edge; None renders background only.
    Per-frame sensor noise is drawn from ``noise_rng`` when provided.
    """
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    texture = _texture_field(style, frame_size)
    if drift:
        shift = int(round(drift)) % frame_size
        texture = np.roll(texture, shift, axis=1)

    frame = style.brightness + 0.5 * style.contrast * texture
    if target_box is not None and not target_box.is_degenerate():
        frame = _paint_target(frame, target_box)
    if noise_rng is not None and noise_level > 0:
        frame = frame + noise_rng.normal(0.0, noise_level, size=frame.shape)
    return np.clip(frame, 0.0, 1.0)


def _paint_target(frame: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Blend a dark elliptical target into the frame inside ``box``."""
    size = frame.shape[0]
    clipped = box.clipped(float(size), float(size))
    if clipped.is_degenerate():
        return frame
    ys, xs = _pixel_grid(size)
    cx, cy = clipped.center
    rx = max(clipped.width / 2.0, 0.5)
    ry = max(clipped.height / 2.0, 0.5)
    # Normalized squared distance from the ellipse center; <1 is inside.
    dist2 = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
    # Soft-edged mask so small targets still occupy fractional pixels.
    mask = np.clip(1.5 - dist2, 0.0, 1.0)
    out = frame.copy()
    out = out * (1.0 - mask) + _TARGET_LEVEL * mask
    return out


def render_segment_frames(
    style: BackgroundStyle,
    target_boxes: list[BoundingBox | None],
    drifts: list[float],
    frame_size: int = DEFAULT_FRAME_SIZE,
    noise_rng: np.random.Generator | None = None,
    noise_level: float = 0.01,
) -> np.ndarray:
    """Render one segment's frames as a stacked ``(frames, H, W)`` array.

    Bit-identical to calling :func:`render_frame` per frame with the same
    arguments in order (including the ``noise_rng`` draw sequence), but
    vectorized: the background texture is shifted once per *unique* drift
    and gathered per frame, target compositing broadcasts the ellipse mask
    over all frames that carry a target, and sensor noise is drawn in one
    block per chunk.  Work proceeds in ``_RENDER_CHUNK``-frame chunks so
    peak memory stays bounded on long segments.
    """
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    if len(target_boxes) != len(drifts):
        raise ValueError("target_boxes and drifts must align")
    count = len(target_boxes)
    if count == 0:
        return np.zeros((0, frame_size, frame_size), dtype=np.float64)

    texture = _texture_field(style, frame_size)
    base = style.brightness + 0.5 * style.contrast * texture
    # np.roll commutes with the elementwise ops above, so shifting the
    # composed background equals composing the shifted texture bitwise.
    shifts = [int(round(d)) % frame_size if d else 0 for d in drifts]

    ys, xs = _pixel_grid(frame_size)
    out = np.empty((count, frame_size, frame_size), dtype=np.float64)

    # Drift advances monotonically inside a segment, so the integer shift
    # is constant over long runs of consecutive frames; one roll per run
    # plus a broadcast copy beats a per-frame gather.
    rolled = base
    run_shift = 0
    for start in range(0, count, _RENDER_CHUNK):
        stop = min(start + _RENDER_CHUNK, count)
        block = out[start:stop]
        for local in range(stop - start):
            shift = shifts[start + local]
            if shift != run_shift or (local == 0 and start == 0):
                rolled = np.roll(base, shift, axis=1) if shift else base
                run_shift = shift
            block[local] = rolled

        for local, box in enumerate(target_boxes[start:stop]):
            if box is None or box.is_degenerate():
                continue
            clipped = box.clipped(float(frame_size), float(frame_size))
            if clipped.is_degenerate():
                continue
            cx, cy = clipped.center
            rx = max(clipped.width / 2.0, 0.5)
            ry = max(clipped.height / 2.0, 0.5)
            # Outside the mask's support the blend is `f * 1.0 + level *
            # 0.0`, a bitwise no-op, so painting the window alone equals
            # painting the full frame.
            x0 = max(0, int(np.floor(cx - rx * _PAINT_REACH)) - 1)
            x1 = min(frame_size, int(np.ceil(cx + rx * _PAINT_REACH)) + 2)
            y0 = max(0, int(np.floor(cy - ry * _PAINT_REACH)) - 1)
            y1 = min(frame_size, int(np.ceil(cy + ry * _PAINT_REACH)) + 2)
            if x1 <= x0 or y1 <= y0:
                continue
            window_xs = xs[y0:y1, x0:x1]
            window_ys = ys[y0:y1, x0:x1]
            dist2 = ((window_xs - cx) / rx) ** 2 + ((window_ys - cy) / ry) ** 2
            mask = np.clip(1.5 - dist2, 0.0, 1.0)
            window = block[local, y0:y1, x0:x1]
            window[...] = window * (1.0 - mask) + _TARGET_LEVEL * mask

        if noise_rng is not None and noise_level > 0:
            block += noise_rng.normal(0.0, noise_level, size=block.shape)
        np.clip(block, 0.0, 1.0, out=block)
    return out


def frame_difference_energy(previous: np.ndarray, current: np.ndarray) -> float:
    """Mean absolute pixel difference; a cheap motion proxy used in tests."""
    if previous.shape != current.shape:
        raise ValueError("frames must share a shape")
    return float(np.mean(np.abs(previous.astype(np.float64) - current.astype(np.float64))))
