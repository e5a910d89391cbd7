"""Simulated object detection: scene in, scored bounding boxes out.

Given a :class:`~repro.models.spec.ModelSpec` and the latent
:class:`~repro.data.scene.SceneState` of a frame, the detector produces the
outcome a real network would: a set of candidate boxes (the true target
response plus clutter distractors), reduced by NMS, with a reported
confidence score.  Misses emerge naturally — when the calibrated confidence
of the target response falls below the NMS confidence threshold the
detection is dropped, exactly how a deployed YOLO head loses a target.

Determinism: every stochastic draw comes from an RNG seeded by
``(context_id, model)``, with a *shared* scene-noise component common to
all models on the same frame.  That shared component is what makes
different models' confidence scores co-vary — the statistical structure
the confidence graph mines.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..data.scene import SceneState, combine_difficulty, difficulty_components, scene_difficulty
from ..vision.bbox import BoundingBox, iou as box_iou
from ..vision.nms import DEFAULT_CONFIDENCE_THRESHOLD, ScoredBox, best_detection
from .fastrng import DrawPool, stream_state_words
from .spec import ModelSpec

# Salt that namespaces this simulator's RNG streams.
_STREAM_SALT = 0x5E1F7

# Standard deviation of the shared per-frame context noise.
SCENE_NOISE_SIGMA = 0.045

# Temporal correlation of the noise streams: video noise is smooth, not
# iid — a model that barely clears the detection threshold on frame t
# usually clears it on frame t+1 too.  Quality noise is a blend of a
# slowly varying component (cosine-interpolated between Gaussian knots
# every _SLOW_PERIOD frames) and an iid component.
_SLOW_PERIOD = 22.0
_SLOW_FRACTION = 0.8  # fraction of the noise *variance* in the slow part

# A model draws correlated noise from streams salt .. salt + 4: quality,
# box dx, dy, log-scale, and confidence.
_NOISE_STREAMS = 5

ContextId = tuple[int, int]


@dataclass(frozen=True)
class DetectionOutcome:
    """What one model reported on one frame.

    ``confidence`` is the model's reported score: the surviving detection's
    score when there is one, otherwise the strongest sub-threshold candidate
    response (real runtimes observe those too).  ``quality`` is the latent
    detection quality — visible to the simulator and to oracle baselines,
    never to SHIFT.
    """

    model_name: str
    box: BoundingBox | None
    confidence: float
    iou: float
    quality: float
    detected: bool
    false_positive: bool


def _model_rng(context_id: ContextId, spec: ModelSpec) -> np.random.Generator:
    return np.random.default_rng((_STREAM_SALT, context_id[0], context_id[1], spec.salt))


def _knot(stream: int, salt: int, index: int, sigma: float) -> float:
    rng = np.random.default_rng((_STREAM_SALT, stream, salt, index))
    return float(rng.normal(0.0, sigma))


def _smooth_noise(stream: int, salt: int, t: float, sigma: float) -> float:
    """Cosine-interpolated Gaussian knot noise: smooth in ``t``, var sigma^2."""
    position = t / _SLOW_PERIOD
    index = int(np.floor(position))
    frac = position - index
    weight = (1.0 - np.cos(np.pi * frac)) / 2.0
    a = _knot(stream, salt, index, sigma)
    b = _knot(stream, salt, index + 1, sigma)
    return float(a * (1.0 - weight) + b * weight)


def _correlated_noise(stream: int, salt: int, context_id: ContextId, sigma: float) -> float:
    """Blend of slow (temporally smooth) and iid noise with total std sigma."""
    slow_sigma = sigma * np.sqrt(_SLOW_FRACTION)
    iid_sigma = sigma * np.sqrt(1.0 - _SLOW_FRACTION)
    slow = _smooth_noise(stream, salt, float(context_id[1]), slow_sigma)
    iid_rng = np.random.default_rng((_STREAM_SALT, stream, salt, context_id[0], context_id[1]))
    return slow + float(iid_rng.normal(0.0, iid_sigma))


def shared_scene_noise(context_id: ContextId) -> float:
    """The per-frame context noise common to every model.

    Smooth over frame index within one stream (``context_id[0]`` selects
    the stream), so consecutive frames see similar conditions.
    """
    return _correlated_noise(0, context_id[0], context_id, SCENE_NOISE_SIGMA)


def _perturbed_target_box(
    truth: BoundingBox,
    quality: float,
    scene: SceneState,
    spec: ModelSpec,
    context_id: ContextId,
) -> BoundingBox:
    """The model's localization of the target: error grows as quality drops.

    The error components are temporally smooth (correlated noise streams):
    a real detector's box drifts around the target over consecutive frames
    rather than teleporting, which keeps per-model IoU stable within a
    scene segment — the stability the Oracle baselines and the momentum
    buffer rely on.
    """
    slack = 1.0 - quality
    offset_sigma = 0.22 * slack * max(truth.width, 2.0)
    dx = _correlated_noise(spec.salt + 1, context_id[0], context_id, offset_sigma)
    dy = _correlated_noise(spec.salt + 2, context_id[0], context_id, offset_sigma)
    log_scale = _correlated_noise(spec.salt + 3, context_id[0], context_id, 0.16 * slack)
    scale = float(np.exp(log_scale))
    cx, cy = truth.center
    box = BoundingBox.from_center(cx + dx, cy + dy, truth.width * scale, truth.height * scale)
    return box.clipped(float(scene.frame_size), float(scene.frame_size))


def _distractor_boxes(
    spec: ModelSpec,
    scene: SceneState,
    clutter: float,
    camouflage: float,
    rng: np.random.Generator,
) -> list[ScoredBox]:
    """Clutter responses: spurious candidates on busy backgrounds."""
    intensity = spec.false_positive_rate * (0.8 * clutter + 0.4 * camouflage)
    count = int(rng.poisson(intensity))
    size = float(scene.frame_size)
    distractors = []
    for _ in range(count):
        w = float(rng.uniform(0.04, 0.22)) * size
        h = w * float(rng.uniform(0.5, 1.1))
        cx = float(rng.uniform(0.1, 0.9)) * size
        cy = float(rng.uniform(0.1, 0.9)) * size
        # Distractor scores concentrate low but overconfident families push
        # them higher — the bias term leaks into clutter responses too.
        score = float(
            np.clip(rng.uniform(0.05, 0.30) + 0.6 * spec.calibration.bias * clutter, 0.0, 0.95)
        )
        box = BoundingBox.from_center(cx, cy, w, h).clipped(size, size)
        if not box.is_degenerate():
            distractors.append(ScoredBox(box=box, score=score))
    return distractors


def detect(spec: ModelSpec, scene: SceneState, context_id: ContextId) -> DetectionOutcome:
    """Run one simulated inference of ``spec`` on the frame ``context_id``.

    ``context_id`` identifies the frame globally — typically
    ``(scenario_seed, frame_index)`` — and fully determines the outcome
    together with the model name, so traces are reproducible and two
    policies that run the same model on the same frame observe identical
    results.
    """
    rng = _model_rng(context_id, spec)
    truth = scene.ground_truth_box()
    components = difficulty_components(scene)
    clutter = components["clutter"]
    camouflage = components["camouflage"]

    # Latent quality: skill at this difficulty, shifted by shared scene
    # noise (common across models) and private model noise; both are
    # temporally smooth within a stream.
    difficulty = scene_difficulty(scene)
    shared = shared_scene_noise(context_id) * spec.scene_sensitivity
    private = _correlated_noise(spec.salt, context_id[0], context_id, spec.model_noise)
    quality = float(np.clip(spec.skill.quality(difficulty) + shared + private, 0.0, 1.0))

    candidates = _distractor_boxes(spec, scene, clutter, camouflage, rng)
    true_candidate: ScoredBox | None = None
    if truth is not None and quality >= spec.no_response_floor:
        predicted = _perturbed_target_box(truth, quality, scene, spec, context_id)
        if not predicted.is_degenerate():
            conf = spec.calibration.scale * quality + spec.calibration.bias
            conf += _correlated_noise(spec.salt + 4, context_id[0], context_id, spec.calibration.noise)
            conf = float(np.clip(conf, 0.0, 1.0))
            true_candidate = ScoredBox(box=predicted, score=conf)
            candidates.append(true_candidate)

    best = best_detection(candidates)
    if best is None:
        # Nothing crossed the confidence threshold: report the strongest
        # sub-threshold response as the model's score.
        top_score = max((c.score for c in candidates), default=0.02)
        return DetectionOutcome(
            model_name=spec.name,
            box=None,
            confidence=float(top_score),
            iou=0.0,
            quality=quality,
            detected=False,
            false_positive=False,
        )

    achieved_iou = box_iou(best.box, truth) if truth is not None else 0.0
    is_false_positive = truth is None or (
        true_candidate is not None and best.box is not true_candidate.box and achieved_iou < 0.1
    ) or (truth is not None and true_candidate is None)
    return DetectionOutcome(
        model_name=spec.name,
        box=best.box,
        confidence=best.score,
        iou=float(achieved_iou),
        quality=quality,
        detected=True,
        false_positive=bool(is_false_positive),
    )


# --------------------------------------------------------------- batched


class SceneBatch:
    """Shared per-scenario precompute for batched detection sweeps.

    Everything :func:`detect` derives from the frames alone — ground-truth
    boxes, difficulty components, the shared scene noise, and the smooth
    noise scaffolding (knot indices, cosine weights, knot draws) — is
    computed once here and reused by every model's :func:`detect_batch`
    sweep.  The cosine weights are evaluated with the same scalar ``np.cos``
    calls :func:`_smooth_noise` makes (one per frame, cached for all
    streams), so the batch can never diverge from the scalar path on
    platforms where NumPy's vectorized transcendentals differ from the
    scalar ones; everything else is plain ``+ - * /`` arithmetic, which is
    IEEE-exact elementwise.

    Streams are seeded in bulk: :meth:`seed_streams` hashes the seed words
    of every stream a set of models reads — the shared scene noise, each
    model's noise streams ``salt``..``salt + 4`` and their knots, and the
    per-frame model streams — in one pass per entropy layout, with the
    stream id as a varying column, and draws every first normal at once.
    Callers sweeping a zoo name it once; :func:`detect_batch` seeds any
    model it was not told about.

    ``frame_indices`` defaults to ``0..n-1`` (a scenario's frames) but may
    be any per-scene frame identities — the characterization profiler
    passes validation-sample indices.
    """

    def __init__(
        self,
        scenes: Sequence[SceneState],
        stream_seed: int,
        frame_indices: Sequence[int] | np.ndarray | None = None,
        truths: Sequence[BoundingBox | None] | None = None,
        difficulties: Sequence[float] | None = None,
    ) -> None:
        self.scenes = list(scenes)
        self.seed = int(stream_seed)
        count = len(self.scenes)
        if frame_indices is None:
            self.frame_indices = np.arange(count, dtype=np.int64)
        else:
            self.frame_indices = np.asarray(frame_indices, dtype=np.int64)
            if len(self.frame_indices) != count:
                raise ValueError("frame_indices must align with scenes")
        self._pool = DrawPool()
        # Ground-truth boxes and difficulties are pure functions of the
        # scenes; callers that already hold them (rendered frames, samples)
        # pass them in rather than re-deriving.
        if truths is None:
            truths = [scene.ground_truth_box() for scene in self.scenes]
        elif len(truths) != count:
            raise ValueError("truths must align with scenes")
        self.truths = list(truths)
        self.components = [difficulty_components(scene) for scene in self.scenes]
        if difficulties is None:
            # Same blend as scene_difficulty, reusing the components
            # already computed above (a missing truth box means invisible
            # or fully clipped — difficulty 1.0 by definition).
            difficulties = [
                1.0 if truth is None else combine_difficulty(components)
                for truth, components in zip(self.truths, self.components, strict=True)
            ]
        elif len(difficulties) != count:
            raise ValueError("difficulties must align with scenes")
        self.difficulties = list(difficulties)
        position = self.frame_indices.astype(np.float64) / _SLOW_PERIOD
        index = np.floor(position)
        frac = position - index
        self.knot_index = index.astype(np.int64)
        self.knot_weight = np.array(
            [(1.0 - np.cos(np.pi * f)) / 2.0 for f in frac], dtype=np.float64
        )
        # Per stream id: standard-normal knot values and per-frame iid
        # draws; per model salt: the per-frame model stream seed words.
        self._knot_z: dict[int, np.ndarray] = {}
        self._iid_z: dict[int, np.ndarray] = {}
        self._model_words: dict[int, np.ndarray] = {}
        self._shared_noise: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.scenes)

    def seed_streams(self, specs: Iterable[ModelSpec]) -> None:
        """Seed and draw, in bulk, every stream ``specs`` read on this batch."""
        specs = list(specs)
        self._draw_noise_streams(
            [0, *(spec.salt + k for spec in specs for k in range(_NOISE_STREAMS))]
        )
        salts = sorted({spec.salt for spec in specs} - self._model_words.keys())
        if salts:
            seed = self.seed
            words = stream_state_words(
                salts, self.frame_indices, lambda s, frame: [_STREAM_SALT, seed, frame, *s]
            )
            self._model_words.update(zip(salts, words, strict=True))

    def _draw_noise_streams(self, streams: Iterable[int]) -> None:
        """Knot and iid first normals of every stream not drawn yet.

        ``_knot(stream, seed, index, sigma)`` equals ``sigma * z[index]``
        (NumPy evaluates ``normal(0, sigma)`` as ``loc + scale * z``), so
        per-frame sigmas can scale a shared z array; likewise the iid part
        of :func:`_correlated_noise`.
        """
        fresh = sorted(set(streams) - self._iid_z.keys())
        if not fresh:
            return
        seed = self.seed
        top = int(self.knot_index.max()) + 2 if len(self.knot_index) else 0
        knots = stream_state_words(
            fresh, np.arange(top), lambda s, index: [_STREAM_SALT, *s, seed, index]
        )
        iid = stream_state_words(
            fresh, self.frame_indices, lambda s, frame: [_STREAM_SALT, *s, seed, seed, frame]
        )
        knot_z = self._pool.first_normals(knots.reshape(-1, 4)).reshape(len(fresh), top)
        iid_z = self._pool.first_normals(iid.reshape(-1, 4)).reshape(len(fresh), len(self))
        self._knot_z.update(zip(fresh, knot_z, strict=True))
        self._iid_z.update(zip(fresh, iid_z, strict=True))

    def correlated_noise(
        self,
        stream: int,
        sigma: float | np.ndarray,
        select: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :func:`_correlated_noise` for one stream.

        ``sigma`` is a scalar or an array aligned with ``select`` (frame
        positions into this batch); returns one value per selected frame,
        bit-identical to the scalar calls.
        """
        self._draw_noise_streams([stream])
        z = self._knot_z[stream]
        iid_z = self._iid_z[stream]
        if select is None:
            index, weight = self.knot_index, self.knot_weight
        else:
            index, weight, iid_z = self.knot_index[select], self.knot_weight[select], iid_z[select]
        slow_sigma = sigma * np.sqrt(_SLOW_FRACTION)
        a = slow_sigma * z[index]
        b = slow_sigma * z[index + 1]
        slow = a * (1.0 - weight) + b * weight
        iid_sigma = sigma * np.sqrt(1.0 - _SLOW_FRACTION)
        return slow + iid_sigma * iid_z

    @property
    def shared_noise(self) -> np.ndarray:
        """:func:`shared_scene_noise` per frame (computed once, all models)."""
        if self._shared_noise is None:
            self._shared_noise = self.correlated_noise(0, SCENE_NOISE_SIGMA)
        return self._shared_noise

    def model_rng_words(self, spec: ModelSpec) -> np.ndarray:
        """Seed words of :func:`_model_rng` for every frame of the batch."""
        self.seed_streams([spec])
        return self._model_words[spec.salt]

    def model_rng_at(self, words_row: np.ndarray) -> np.random.Generator:
        """A generator positioned exactly like a fresh :func:`_model_rng`."""
        return self._pool.generator_for(words_row)


def detect_batch(spec: ModelSpec, batch: SceneBatch) -> list[DetectionOutcome]:
    """Run ``spec`` over every frame of ``batch`` — the vectorized hot path.

    Outcomes are bit-identical to ``[detect(spec, scene, (seed, index))
    for ...]``: every RNG stream is seeded by the same ``(context_id,
    model)`` contract, only materialized in bulk.  Noise, quality, and
    confidence draws are computed as arrays across all frames; only the
    irreducibly per-frame parts (box objects, NMS over a handful of
    candidates, distractor sampling from the per-frame model RNG) stay
    scalar.
    """
    scenes = batch.scenes
    count = len(scenes)
    if count == 0:
        return []
    batch.seed_streams([spec])

    quality_skill = np.array(
        [spec.skill.quality(d) for d in batch.difficulties], dtype=np.float64
    )
    shared = batch.shared_noise * spec.scene_sensitivity
    private = batch.correlated_noise(spec.salt, spec.model_noise)
    quality = np.clip(quality_skill + shared + private, 0.0, 1.0)

    has_truth = np.array([t is not None for t in batch.truths], dtype=bool)
    responding = np.flatnonzero(has_truth & (quality >= spec.no_response_floor))

    # The model's localization of the target, where it responds at all.
    predicted: dict[int, BoundingBox] = {}
    if len(responding):
        slack = 1.0 - quality[responding]
        max_widths = np.array(
            [max(batch.truths[i].width, 2.0) for i in responding], dtype=np.float64
        )
        offset_sigma = 0.22 * slack * max_widths
        dx = batch.correlated_noise(spec.salt + 1, offset_sigma, select=responding)
        dy = batch.correlated_noise(spec.salt + 2, offset_sigma, select=responding)
        log_scale = batch.correlated_noise(spec.salt + 3, 0.16 * slack, select=responding)
        for j, i in enumerate(responding):
            truth = batch.truths[i]
            scale = float(np.exp(log_scale[j]))
            cx, cy = truth.center
            size = float(scenes[i].frame_size)
            box = BoundingBox.from_center(
                cx + float(dx[j]), cy + float(dy[j]), truth.width * scale, truth.height * scale
            ).clipped(size, size)
            if not box.is_degenerate():
                predicted[int(i)] = box

    confidence_by_frame: dict[int, float] = {}
    if predicted:
        localized = np.array(sorted(predicted), dtype=np.int64)
        noise = batch.correlated_noise(
            spec.salt + 4, spec.calibration.noise, select=localized
        )
        base = spec.calibration.scale * quality[localized] + spec.calibration.bias
        confidences = np.clip(base + noise, 0.0, 1.0)
        confidence_by_frame = {
            int(i): float(c) for i, c in zip(localized, confidences, strict=True)
        }

    model_words = batch.model_rng_words(spec)
    outcomes: list[DetectionOutcome] = []
    for i, scene in enumerate(scenes):
        rng = batch.model_rng_at(model_words[i])
        components = batch.components[i]
        candidates = _distractor_boxes(
            spec, scene, components["clutter"], components["camouflage"], rng
        )
        true_candidate: ScoredBox | None = None
        box = predicted.get(i)
        if box is not None:
            true_candidate = ScoredBox(box=box, score=confidence_by_frame[i])
            candidates.append(true_candidate)

        # NMS: the common cases (zero or one candidate) shortcut the full
        # suppression pass; single-candidate NMS reduces to the threshold.
        if not candidates:
            best = None
        elif len(candidates) == 1:
            best = candidates[0] if candidates[0].score >= DEFAULT_CONFIDENCE_THRESHOLD else None
        else:
            best = best_detection(candidates)

        frame_quality = float(quality[i])
        truth = batch.truths[i]
        if best is None:
            top_score = max((c.score for c in candidates), default=0.02)
            outcomes.append(
                DetectionOutcome(
                    model_name=spec.name,
                    box=None,
                    confidence=float(top_score),
                    iou=0.0,
                    quality=frame_quality,
                    detected=False,
                    false_positive=False,
                )
            )
            continue
        achieved_iou = box_iou(best.box, truth) if truth is not None else 0.0
        is_false_positive = truth is None or (
            true_candidate is not None and best.box is not true_candidate.box and achieved_iou < 0.1
        ) or (truth is not None and true_candidate is None)
        outcomes.append(
            DetectionOutcome(
                model_name=spec.name,
                box=best.box,
                confidence=best.score,
                iou=float(achieved_iou),
                quality=frame_quality,
                detected=True,
                false_positive=bool(is_false_positive),
            )
        )
    return outcomes
