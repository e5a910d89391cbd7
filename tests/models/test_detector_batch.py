"""Scalar-vs-batched detection equality: the batch engine's contract.

``detect_batch`` must produce *bit-identical* ``DetectionOutcome``s to the
scalar ``detect`` loop for every scenario the suite evaluates — the six
paper scenarios and the frozen ``x_*`` extended flights — plus arbitrary
validation-set-shaped batches.  Speed must never change results.
"""

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
from repro.models import ModelSpec, default_zoo
from repro.models.detector import SceneBatch, detect, detect_batch

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
