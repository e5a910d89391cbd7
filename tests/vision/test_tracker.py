"""Tests for the template-matching tracker (Marlin substrate)."""

import numpy as np
import pytest

from repro.vision import BackgroundStyle, BoundingBox, TemplateTracker, render_frame
from repro.vision.ncc import crop, resize_nearest

_STYLE = BackgroundStyle(complexity=0.2, brightness=0.8, contrast=0.2, pattern_seed=7)


def _frame_with_target(cx, cy, size=18.0):
    box = BoundingBox.from_center(cx, cy, size, size * 0.6)
    return render_frame(_STYLE, box, frame_size=96), box


class TestConstruction:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TemplateTracker(search_radius=0)
        with pytest.raises(ValueError):
            TemplateTracker(loss_threshold=2.0)
        with pytest.raises(ValueError):
            TemplateTracker(template_size=1)


class TestAnchorAndTrack:
    def test_track_without_anchor_is_lost(self):
        tracker = TemplateTracker()
        image, _ = _frame_with_target(48, 48)
        result = tracker.track(image)
        assert result.lost and result.box is None

    def test_anchor_registers_target(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(48, 48)
        tracker.anchor(image, box)
        assert tracker.has_target

    def test_anchor_degenerate_rejected(self):
        tracker = TemplateTracker()
        image, _ = _frame_with_target(48, 48)
        with pytest.raises(ValueError):
            tracker.anchor(image, BoundingBox(5, 5, 5, 5))

    def test_tracks_stationary_target(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(48, 48)
        tracker.anchor(image, box)
        result = tracker.track(image)
        assert not result.lost
        assert result.score > 0.9
        cx, cy = result.box.center
        assert abs(cx - 48) <= 2 and abs(cy - 48) <= 2

    def test_follows_moving_target(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(40, 48)
        tracker.anchor(image, box)
        for step, cx in enumerate((44, 48, 52, 56)):
            image, truth = _frame_with_target(float(cx), 48)
            result = tracker.track(image)
            assert not result.lost, f"lost at step {step}"
            assert abs(result.box.center[0] - cx) <= 4

    def test_loses_target_when_it_vanishes(self):
        tracker = TemplateTracker(loss_threshold=0.6)
        image, box = _frame_with_target(48, 48)
        tracker.anchor(image, box)
        # Target gone and background replaced: nothing to match.
        empty = render_frame(
            BackgroundStyle(complexity=0.9, brightness=0.2, contrast=0.8, pattern_seed=99),
            None,
            frame_size=96,
        )
        result = tracker.track(empty)
        assert result.lost

    def test_reset_clears_state(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(48, 48)
        tracker.anchor(image, box)
        tracker.reset()
        assert not tracker.has_target
        assert tracker.track(image).lost

    def test_track_updates_internal_box(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(40, 48)
        tracker.anchor(image, box)
        image2, _ = _frame_with_target(46, 48)
        first = tracker.track(image2)
        image3, _ = _frame_with_target(52, 48)
        second = tracker.track(image3)
        assert not second.lost
        assert second.box.center[0] > first.box.center[0]

    def test_result_box_stays_in_frame(self):
        tracker = TemplateTracker()
        image, box = _frame_with_target(88, 48)
        tracker.anchor(image, box)
        image2, _ = _frame_with_target(94, 48)
        result = tracker.track(image2)
        if result.box is not None:
            assert result.box.x2 <= 96 and result.box.y2 <= 96
            assert result.box.x1 >= 0 and result.box.y1 >= 0


def _frozen_scan(template, image, cx_prev, cy_prev, box_w, box_h, search_radius=12):
    """The scan before the two-take gather, frozen as the reference.

    One 4-D fancy-index gather, three fresh candidate matrices, and the
    template's centered values and norm recomputed on every call.
    """
    height, width = image.shape[:2]
    ts = template.shape[0]
    offsets = np.arange(-search_radius, search_radius + 1, 2, dtype=np.float64)
    rel_x = (np.arange(ts) + 0.5) / ts * box_w - box_w / 2.0
    rel_y = (np.arange(ts) + 0.5) / ts * box_h - box_h / 2.0
    centers_x = cx_prev + offsets
    centers_y = cy_prev + offsets
    xs = np.clip((centers_x[:, None] + rel_x[None, :]).astype(int), 0, width - 1)
    ys = np.clip((centers_y[:, None] + rel_y[None, :]).astype(int), 0, height - 1)
    patches = image[ys[:, None, :, None], xs[None, :, None, :]].astype(np.float64)
    flat = patches.reshape(len(offsets) * len(offsets), ts * ts)
    flat_centered = flat - flat.mean(axis=1, keepdims=True)
    norms = np.sqrt((flat_centered**2).sum(axis=1))
    flat_template = template.astype(np.float64).reshape(-1)
    template_centered = flat_template - flat_template.mean()
    template_norm = float(np.sqrt((template_centered**2).sum()))
    if template_norm < 1e-12:
        return (0.0, (cx_prev, cy_prev))
    with np.errstate(invalid="ignore", divide="ignore"):
        scores = (flat_centered @ template_centered) / (norms * template_norm)
    scores = np.where(norms < 1e-12, 0.0, scores)
    best_index = int(np.argmax(scores))
    best_iy, best_ix = divmod(best_index, len(offsets))
    return float(scores[best_index]), (float(centers_x[best_ix]), float(centers_y[best_iy]))


def _seeded_image(rng, height, width, dtype):
    pixels = rng.random((height, width))
    if dtype == np.uint8:
        return (pixels * 255).astype(np.uint8)
    return pixels.astype(dtype)


def _bits(result):
    score, (cx, cy) = result
    return np.array([score, cx, cy]).view(np.uint64).tolist()


class TestScanMatchesTheFrozenGather:
    """The two-take scan returns the 4-D gather's (score, center), bit for bit."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_seeded_images_and_boxes(self, dtype):
        rng = np.random.default_rng(20261021)
        tracker = TemplateTracker()
        for _ in range(40):
            image = _seeded_image(rng, 96, 96, dtype)
            anchor = BoundingBox.from_center(
                *rng.uniform(10, 86, 2), *rng.uniform(3, 30, 2)
            )
            tracker.anchor(image, anchor)
            template = resize_nearest(crop(image, anchor), 16, 16)
            for _ in range(5):
                target = _seeded_image(rng, 96, 96, dtype)
                # Centers off either edge, and boxes under 2 px.
                cx, cy = rng.uniform(-15, 111, 2)
                box_w, box_h = rng.choice([0.5, 1.5, 2.0, 7.25, 24.0, 40.0], 2)
                ours = tracker._scan(target, cx, cy, box_w, box_h)
                assert _bits(ours) == _bits(_frozen_scan(template, target, cx, cy, box_w, box_h))

    def test_one_tracker_across_two_image_widths(self):
        rng = np.random.default_rng(7)
        tracker = TemplateTracker()
        for width in (96, 130, 96, 64):
            image = _seeded_image(rng, 80, width, np.float64)
            anchor = BoundingBox.from_center(width / 2.0, 40.0, 14.0, 9.0)
            tracker.anchor(image, anchor)
            template = resize_nearest(crop(image, anchor), 16, 16)
            for cx in (-4.0, width / 3.0, width + 3.0):
                ours = tracker._scan(image, cx, 38.5, 14.0, 9.0)
                assert _bits(ours) == _bits(_frozen_scan(template, image, cx, 38.5, 14.0, 9.0))

    def test_a_flat_template_scores_zero_in_place(self):
        tracker = TemplateTracker()
        image = np.full((96, 96), 0.5)
        anchor = BoundingBox.from_center(48.0, 48.0, 12.0, 12.0)
        tracker.anchor(image, anchor)
        template = resize_nearest(crop(image, anchor), 16, 16)
        assert tracker._scan(image, 40.0, 41.0, 12.0, 12.0) == _frozen_scan(
            template, image, 40.0, 41.0, 12.0, 12.0
        ) == (0.0, (40.0, 41.0))

    def test_tracked_runs_match_step_by_step(self):
        rng = np.random.default_rng(3)
        tracker = TemplateTracker()
        image, box = _frame_with_target(40, 48)
        tracker.anchor(image, box)
        template = resize_nearest(crop(image, box), 16, 16)
        for cx in rng.uniform(30, 70, 12):
            image, _ = _frame_with_target(float(cx), 48 + float(cx) / 10)
            prev = tracker._box
            size = (max(2.0, prev.width), max(2.0, prev.height))
            score, center = _frozen_scan(template, image, *prev.center, *size)
            result = tracker.track(image)
            assert result.score == score
            if result.lost:
                break
            assert result.box == BoundingBox.from_center(*center, *size).clipped(96.0, 96.0)
