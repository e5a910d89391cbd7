"""Segment-batched rendering must be bit-identical to the scalar renderer."""

import numpy as np
import pytest

from repro.data import all_scenarios
from repro.data.generator import generate_frames, render_scenario
from repro.vision.bbox import BoundingBox
from repro.vision.rendering import render_frame, render_segment_frames
from repro.vision.style import BackgroundStyle

STYLE = BackgroundStyle(complexity=0.7, brightness=0.45, contrast=0.6, pattern_seed=901)


def _scalar_stack(style, boxes, drifts, frame_size, noise_rng):
    return np.stack(
        [
            render_frame(style, box, frame_size=frame_size, drift=drift, noise_rng=noise_rng)
            for box, drift in zip(boxes, drifts, strict=True)
        ]
    )


class TestRenderSegmentFrames:
    def test_matches_scalar_renderer_with_noise_stream(self):
        boxes = [
            BoundingBox.from_center(48.0, 40.0, 20.0, 12.0),
            None,
            BoundingBox.from_center(90.0, 90.0, 18.0, 11.0),  # clipped at the edge
            BoundingBox(5.0, 5.0, 5.0, 9.0),  # degenerate: skipped
            BoundingBox.from_center(10.0, 80.0, 3.0, 2.0),
        ]
        drifts = [0.0, 1.4, 1.4, 7.9, -2.6]
        batched = render_segment_frames(
            STYLE, boxes, drifts, frame_size=96, noise_rng=np.random.default_rng(7)
        )
        reference = _scalar_stack(STYLE, boxes, drifts, 96, np.random.default_rng(7))
        assert np.array_equal(batched, reference)

    def test_long_segment_spans_chunks(self):
        count = 75  # > 2 chunks at the default chunk size
        boxes = [BoundingBox.from_center(20.0 + i, 48.0, 14.0, 9.0) for i in range(count)]
        drifts = [0.35 * i for i in range(count)]
        batched = render_segment_frames(
            STYLE, boxes, drifts, frame_size=64, noise_rng=np.random.default_rng(3)
        )
        reference = _scalar_stack(STYLE, boxes, drifts, 64, np.random.default_rng(3))
        assert np.array_equal(batched, reference)

    def test_noise_free_and_empty(self):
        batched = render_segment_frames(STYLE, [None, None], [0.0, 0.5], frame_size=32)
        reference = _scalar_stack(STYLE, [None, None], [0.0, 0.5], 32, None)
        assert np.array_equal(batched, reference)
        empty = render_segment_frames(STYLE, [], [], frame_size=32)
        assert empty.shape == (0, 32, 32)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            render_segment_frames(STYLE, [None], [0.0], frame_size=0)
        with pytest.raises(ValueError):
            render_segment_frames(STYLE, [None, None], [0.0])


class TestRenderScenario:
    @pytest.mark.parametrize("scenario", all_scenarios(), ids=lambda s: s.name)
    def test_batched_scenario_rendering_matches_reference(self, scenario):
        small = scenario.scaled(0.04)
        reference = list(generate_frames(small))
        batched = render_scenario(small)
        assert len(reference) == len(batched)
        for ref, got in zip(reference, batched, strict=True):
            assert np.array_equal(ref.image, got.image)
            assert ref.scene == got.scene
            assert ref.ground_truth == got.ground_truth
            assert ref.difficulty == got.difficulty
            assert (ref.index, ref.timestamp, ref.segment) == (
                got.index,
                got.timestamp,
                got.segment,
            )
