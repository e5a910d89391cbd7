"""Scalar-vs-batched detection equality: the batch engine's contract.

``detect_batch`` must produce *bit-identical* ``DetectionOutcome``s to the
scalar ``detect`` loop for every scenario the suite evaluates — the six
paper scenarios and the frozen ``x_*`` extended flights — plus arbitrary
validation-set-shaped batches.  Speed must never change results.
"""

import dataclasses
import pickle
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ScenarioMatrix,
    build_validation_set,
    evaluation_scenarios,
    extended_scenarios,
)
from repro.data.generator import scenario_scenes
from repro.data.scene import difficulty_components
from repro.models import ModelSpec, default_zoo, detector
from repro.models.detector import OutcomeColumns, SceneBatch, detect, detect_batch
from repro.models.spec import ConfidenceCalibration

ZOO = default_zoo()

# Small but representative slices: every segment survives scaling (>= 2
# frames), every knot window and stream type gets exercised.
ROSTER = [scenario.scaled(0.06) for scenario in evaluation_scenarios()] + [
    scenario.scaled(0.06) for scenario in extended_scenarios()
]


def _scalar_outcomes(spec, scenes, seed):
    return [detect(spec, scene, (seed, i)) for i, scene in enumerate(scenes)]


class TestRosterEquality:
    def test_bit_identical_outcomes_across_full_roster(self):
        for scenario in ROSTER:
            scenes = scenario_scenes(scenario)
            batch = SceneBatch(scenes, scenario.seed)
            for spec in ZOO:
                batched = detect_batch(spec, batch)
                reference = _scalar_outcomes(spec, scenes, scenario.seed)
                assert batched == reference, (scenario.name, spec.name)

    def test_outcome_fields_are_plain_python_floats(self):
        # Trace persistence json-serializes outcome fields directly; a
        # stray np.float64 would crash the store writer.
        scenario = ROSTER[0]
        batch = SceneBatch(scenario_scenes(scenario), scenario.seed)
        for outcome in detect_batch(ZOO.specs()[0], batch):
            assert type(outcome.confidence) is float
            assert type(outcome.quality) is float
            assert type(outcome.iou) is float
            if outcome.box is not None:
                assert type(outcome.box.x1) is float


class TestValidationShapedBatches:
    @settings(max_examples=15)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        size=st.integers(min_value=1, max_value=24),
    )
    def test_property_batch_equals_scalar_on_validation_samples(self, seed, size):
        samples = build_validation_set(size=size, seed=seed)
        scenes = [sample.scene for sample in samples]
        indices = [sample.context_id[1] for sample in samples]
        batch = SceneBatch(scenes, seed, frame_indices=indices)
        spec = ZOO.specs()[seed % len(ZOO)]
        batched = detect_batch(spec, batch)
        reference = [detect(spec, s.scene, s.context_id) for s in samples]
        assert batched == reference

    def test_non_contiguous_frame_indices(self):
        samples = build_validation_set(size=40, seed=11)
        picked = samples[::3]
        batch = SceneBatch(
            [s.scene for s in picked], 11, frame_indices=[s.context_id[1] for s in picked]
        )
        for spec in ZOO.specs()[:2]:
            batched = detect_batch(spec, batch)
            assert batched == [detect(spec, s.scene, s.context_id) for s in picked]


class TestSceneBatch:
    def test_empty_batch(self):
        batch = SceneBatch([], 5)
        assert detect_batch(ZOO.specs()[0], batch) == []

    def test_misaligned_frame_indices_rejected(self):
        samples = build_validation_set(size=3, seed=1)
        scenes = [s.scene for s in samples]
        try:
            SceneBatch(scenes, 1, frame_indices=[0, 1])
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for misaligned frame_indices")

    def test_precomputed_truths_and_difficulties_change_nothing(self):
        scenario = ROSTER[1]
        scenes = scenario_scenes(scenario)
        plain = SceneBatch(scenes, scenario.seed)
        seeded = SceneBatch(
            scenes,
            scenario.seed,
            truths=[scene.ground_truth_box() for scene in scenes],
            difficulties=plain.difficulties,
        )
        spec = ZOO.specs()[-1]
        assert detect_batch(spec, plain) == detect_batch(spec, seeded)

    def test_shared_noise_matches_scalar_helper(self):
        from repro.models.detector import shared_scene_noise

        scenario = ROSTER[2]
        batch = SceneBatch(scenario_scenes(scenario), scenario.seed)
        expected = np.array(
            [shared_scene_noise((scenario.seed, i)) for i in range(len(batch))]
        )
        assert np.array_equal(batch.shared_noise, expected)


@dataclass(frozen=True)
class PinnedSalt(ModelSpec):
    """A model whose stream ids are pinned, e.g. past 2**32."""

    pinned_salt: int = 0

    @property
    def salt(self) -> int:
        return self.pinned_salt


def _pinned(spec, salt):
    return PinnedSalt(**{f.name: getattr(spec, f.name) for f in fields(spec)}, pinned_salt=salt)


class TestBulkSeeding:
    """Seeding every stream of a zoo up front changes no outcome."""

    def test_a_grammar_scenario(self):
        matrix = ScenarioMatrix(
            name="bulk", compositions=(("loiter", "crossing"),), regimes=("night",),
            seeds=(5,), frame_budgets=(24,),
        )
        [scenario] = matrix.scenarios()
        scenes = scenario_scenes(scenario)
        assert len(scenes) == 24
        batch = SceneBatch(scenes, scenario.seed)
        batch.seed_streams(ZOO)
        for spec in ZOO:
            assert detect_batch(spec, batch) == _scalar_outcomes(spec, scenes, scenario.seed)

    def test_a_validation_batch_with_non_contiguous_frames(self):
        samples = build_validation_set(size=60, seed=23)[1::4]
        batch = SceneBatch(
            [s.scene for s in samples], 23, frame_indices=[s.context_id[1] for s in samples]
        )
        batch.seed_streams(ZOO)
        for spec in ZOO:
            assert detect_batch(spec, batch) == [
                detect(spec, s.scene, s.context_id) for s in samples
            ]

    def test_a_model_the_batch_was_not_told_about(self):
        scenario = ROSTER[3]
        scenes = scenario_scenes(scenario)
        batch = SceneBatch(scenes, scenario.seed)
        told, untold = ZOO.specs()[:3], ZOO.specs()[-1]
        batch.seed_streams(told)
        assert detect_batch(untold, batch) == _scalar_outcomes(untold, scenes, scenario.seed)
        for spec in told:
            assert detect_batch(spec, batch) == _scalar_outcomes(spec, scenes, scenario.seed)

    @pytest.mark.parametrize("salt", [2**32 - 2, 2**33 + 1])
    def test_stream_ids_past_two_to_the_32(self, salt):
        # salt + 2 .. salt + 4 (or every id) widen to two entropy words.
        scenario = ROSTER[0]
        scenes = scenario_scenes(scenario)
        spec = _pinned(ZOO.specs()[1], salt)
        assert spec.salt == salt
        batch = SceneBatch(scenes, scenario.seed)
        batch.seed_streams([spec, *ZOO.specs()[:2]])
        assert detect_batch(spec, batch) == _scalar_outcomes(spec, scenes, scenario.seed)

    def test_an_empty_batch_seeds_nothing(self):
        batch = SceneBatch([], 5)
        batch.seed_streams(ZOO)
        assert detect_batch(ZOO.specs()[0], batch) == []


def _respec(spec, name, **changes):
    return dataclasses.replace(spec, name=name, **changes)


BASE = ZOO.specs()[0]
# No distractor rate: every frame draws a Poisson count of 0 at rate 0.
QUIET = _respec(BASE, "quiet", false_positive_rate=0.0)
# The largest rate, an overconfident bias and a target it never responds
# to: frames with several distractors, scores clipped at 0.95, and equal
# top scores ranked by area.
BUSY = _respec(
    BASE, "busy", false_positive_rate=2.0, no_response_floor=0.99,
    calibration=ConfidenceCalibration(scale=0.2, bias=1.5, noise=0.02),
)
# Target scores below the distractors': the target box loses NMS.
SHY = _respec(
    BASE, "shy", false_positive_rate=2.0,
    calibration=ConfidenceCalibration(scale=0.1, bias=0.3, noise=0.0),
)


def _scalar_distractors(spec, sample):
    """The scalar path's distractor draws on one sample: (count drawn, candidates kept)."""
    components = difficulty_components(sample.scene)
    clutter, camouflage = components["clutter"], components["camouflage"]
    rate = spec.false_positive_rate * (0.8 * clutter + 0.4 * camouflage)
    drawn = int(detector._model_rng(sample.context_id, spec).poisson(rate))
    rng = detector._model_rng(sample.context_id, spec)
    return drawn, detector._distractor_boxes(spec, sample.scene, clutter, camouflage, rng)


class TestSeededCases:
    """Seeded batches that reach each branch of the batched kernel, against scalar detect."""

    @pytest.fixture(scope="class")
    def samples(self):
        return build_validation_set(size=320, seed=4242)

    @pytest.fixture(scope="class")
    def batch(self, samples):
        batch = SceneBatch(
            [s.scene for s in samples], 4242, frame_indices=[s.context_id[1] for s in samples]
        )
        # Rate-0 rows are seeded in one pass with the zoo's.
        batch.seed_streams([QUIET, BUSY, SHY, *ZOO])
        return batch

    @staticmethod
    def _scalar(spec, samples):
        return [detect(spec, s.scene, s.context_id) for s in samples]

    def test_frames_with_rate_zero(self, samples, batch):
        assert all(_scalar_distractors(QUIET, s) == (0, []) for s in samples)
        assert detect_batch(QUIET, batch) == self._scalar(QUIET, samples)

    def test_frames_with_two_or_more_distractors(self, samples, batch):
        assert max(len(_scalar_distractors(BUSY, s)[1]) for s in samples) >= 3
        assert detect_batch(BUSY, batch) == self._scalar(BUSY, samples)

    def test_clipped_scores_and_equal_scores_ranked_by_area(self, samples, batch):
        ties = [
            [c for c in _scalar_distractors(BUSY, s)[1] if c.score == 0.95] for s in samples
        ]
        assert any(len({c.box.area for c in tie}) >= 2 for tie in ties)
        outcomes = detect_batch(BUSY, batch)
        assert any(o.detected and o.confidence == 0.95 for o in outcomes)
        assert outcomes == self._scalar(BUSY, samples)

    def test_a_true_box_that_nms_suppresses(self, samples, batch):
        outcomes = detect_batch(SHY, batch)
        assert any(
            o.detected and o.false_positive and o.quality >= SHY.no_response_floor
            and s.ground_truth is not None
            for o, s in zip(outcomes, samples)
        )
        assert outcomes == self._scalar(SHY, samples)

    def test_frames_with_no_target(self, samples, batch):
        absent = [i for i, s in enumerate(samples) if s.ground_truth is None]
        assert absent
        for spec in (BUSY, SHY, *ZOO):
            outcomes = detect_batch(spec, batch)
            assert [outcomes[i] for i in absent] == [
                detect(spec, samples[i].scene, samples[i].context_id) for i in absent
            ]

    def test_a_degenerate_distractor(self, samples, monkeypatch):
        # With the shipped bounds every distractor center lies inside the
        # frame, so none clips to nothing.  Centers up to 1.6 frames across
        # put some left edges past the frame: those clip to zero width and
        # are dropped after their draws.
        bounds = list(detector._DISTRACTOR_BOUNDS)
        bounds[2] = (0.1, 1.6)
        monkeypatch.setattr(detector, "_DISTRACTOR_BOUNDS", tuple(bounds))
        assert any(drawn > len(kept) for drawn, kept in map(
            lambda s: _scalar_distractors(BUSY, s), samples))
        batch = SceneBatch(
            [s.scene for s in samples], 4242, frame_indices=[s.context_id[1] for s in samples]
        )
        assert detect_batch(BUSY, batch) == self._scalar(BUSY, samples)
        assert detect_batch(SHY, batch) == self._scalar(SHY, samples)


class TestOutcomeColumns:
    def test_reads_build_each_outcome_once(self):
        scenario = ROSTER[0]
        batch = SceneBatch(scenario_scenes(scenario), scenario.seed)
        outcomes = detect_batch(ZOO.specs()[0], batch)
        assert outcomes[3] is outcomes[3]
        assert outcomes[-1] is outcomes[len(outcomes) - 1]
        assert outcomes[1:3] == [outcomes[1], outcomes[2]]
        with pytest.raises(IndexError):
            outcomes[len(outcomes)]

    def test_columns_round_trip_through_pickle_and_objects(self):
        scenario = ROSTER[1]
        batch = SceneBatch(scenario_scenes(scenario), scenario.seed)
        outcomes = detect_batch(ZOO.specs()[2], batch)
        assert pickle.loads(pickle.dumps(outcomes)) == outcomes
        rebuilt = OutcomeColumns.from_outcomes(outcomes.model_name, list(outcomes))
        for ours, theirs in zip(rebuilt.columns(), outcomes.columns(), strict=True):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
