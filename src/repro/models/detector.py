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
from collections.abc import Iterable, Iterator, Sequence

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

# A distractor's five uniforms, in draw order: its width (a fraction of
# the frame), its aspect (height / width), its center x and y (fractions
# of the frame), and its score before the calibration bias.
_DISTRACTOR_BOUNDS = ((0.04, 0.22), (0.5, 1.1), (0.1, 0.9), (0.1, 0.9), (0.05, 0.30))

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


class OutcomeColumns(Sequence):
    """One model's outcomes over a batch of frames, held as columns.

    The columns are the trace store's layout: ``box`` (``(n, 4)`` corners,
    zeros where ``box_mask`` is false), ``box_mask``, ``confidence``,
    ``iou``, ``quality``, ``detected`` and ``false_positive``.  Reading
    frame ``i`` builds its :class:`DetectionOutcome`, with plain ``float``
    and ``bool`` fields, on first access; the sequence equals any
    sequence of equal outcomes.
    """

    def __init__(
        self,
        model_name: str,
        box: np.ndarray,
        box_mask: np.ndarray,
        confidence: np.ndarray,
        iou: np.ndarray,
        quality: np.ndarray,
        detected: np.ndarray,
        false_positive: np.ndarray,
    ) -> None:
        self.model_name = model_name
        self.box = box
        self.box_mask = box_mask
        self.confidence = confidence
        self.iou = iou
        self.quality = quality
        self.detected = detected
        self.false_positive = false_positive
        self._rows: list[DetectionOutcome | None] | None = None

    @classmethod
    def from_outcomes(
        cls, model_name: str, outcomes: Sequence[DetectionOutcome]
    ) -> OutcomeColumns:
        """The columns of outcome objects; reads serve those same objects."""
        rows = list(outcomes)
        columns = cls(
            model_name,
            np.array(
                [(0.0,) * 4 if row.box is None else row.box.as_tuple() for row in rows],
                dtype=np.float64,
            ).reshape(len(rows), 4),
            np.array([row.box is not None for row in rows], dtype=bool),
            *(np.array([getattr(row, name) for row in rows], dtype=np.float64)
              for name in ("confidence", "iou", "quality")),
            *(np.array([getattr(row, name) for row in rows], dtype=bool)
              for name in ("detected", "false_positive")),
        )
        columns._rows = rows
        return columns

    def columns(self) -> tuple[np.ndarray, ...]:
        """The seven columns, in the order the constructor takes them."""
        return (self.box, self.box_mask, self.confidence, self.iou, self.quality,
                self.detected, self.false_positive)

    def __len__(self) -> int:
        return len(self.confidence)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if self._rows is None:
            self._rows = [None] * len(self)
        outcome = self._rows[index]
        if outcome is None:
            outcome = self._rows[index] = self._build(index)
        return outcome

    def _build(self, index: int) -> DetectionOutcome:
        # Straight from the arrays: a cache of the columns as Python lists
        # would hold more than the outcome objects the reads keep.
        return DetectionOutcome(
            self.model_name,
            BoundingBox(*self.box[index].tolist()) if self.box_mask[index] else None,
            self.confidence[index].item(), self.iou[index].item(), self.quality[index].item(),
            bool(self.detected[index]), bool(self.false_positive[index]),
        )

    def __iter__(self) -> Iterator[DetectionOutcome]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Pickles (to and from trace-build workers) carry the columns only.
        return type(self), (self.model_name, *self.columns())

    def __repr__(self) -> str:
        return f"OutcomeColumns({self.model_name!r}, {len(self)} frames)"


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
    width, aspect, center_x, center_y, score_range = _DISTRACTOR_BOUNDS
    distractors = []
    for _ in range(count):
        w = float(rng.uniform(*width)) * size
        h = w * float(rng.uniform(*aspect))
        cx = float(rng.uniform(*center_x)) * size
        cy = float(rng.uniform(*center_y)) * size
        # Distractor scores concentrate low but overconfident families push
        # them higher — the bias term leaks into clutter responses too.
        score = float(
            np.clip(rng.uniform(*score_range) + 0.6 * spec.calibration.bias * clutter, 0.0, 0.95)
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
        # Per-frame columns of the target and distractor geometry.
        self.frame_sizes = np.array([float(scene.frame_size) for scene in self.scenes])
        self.has_truth = np.array([truth is not None for truth in self.truths], dtype=bool)
        self.truth_boxes = np.array(
            [(0.0,) * 4 if truth is None else truth.as_tuple() for truth in self.truths],
            dtype=np.float64,
        ).reshape(count, 4)
        self.clutter = np.array([c["clutter"] for c in self.components], dtype=np.float64)
        camouflage = np.array([c["camouflage"] for c in self.components], dtype=np.float64)
        # A model's distractor rate is its false-positive rate times this.
        self._clutter_mix = 0.8 * self.clutter + 0.4 * camouflage
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
        # Per (salt, false-positive rate): each distractor's frame and uniforms.
        self._distractors: dict[tuple[int, float], tuple[np.ndarray, np.ndarray]] = {}
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
        self._draw_distractors(specs)

    def _draw_distractors(self, specs: list[ModelSpec]) -> None:
        """The distractor draws of every model not drawn yet, in one pass.

        :func:`_distractor_boxes` draws a Poisson count and then five
        uniforms per distractor from each frame's model stream; the draws
        depend only on the stream (the salt) and the rate (the model's
        false-positive rate), so every model of a batch shares one
        :meth:`~repro.models.fastrng.DrawPool.poisson_items` call.
        """
        fresh = [
            key for key in dict.fromkeys((spec.salt, spec.false_positive_rate) for spec in specs)
            if key not in self._distractors
        ]
        if not fresh:
            return
        words = np.concatenate([self._model_words[salt] for salt, _ in fresh])
        rates = np.concatenate([rate * self._clutter_mix for _, rate in fresh])
        owners, uniforms = self._pool.poisson_items(words, rates, _DISTRACTOR_BOUNDS)
        model, frames = np.divmod(owners, len(self))
        ends = np.searchsorted(model, np.arange(len(fresh) + 1))
        for i, key in enumerate(fresh):
            span = slice(ends[i], ends[i + 1])
            self._distractors[key] = (frames[span], uniforms[span])

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

    def distractor_draws(self, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
        """``spec``'s distractor draws: each one's frame and five uniforms.

        Rows follow frame order, then draw order; the uniforms follow
        :data:`_DISTRACTOR_BOUNDS`.
        """
        key = (spec.salt, spec.false_positive_rate)
        if key not in self._distractors:
            self.seed_streams([spec])
        return self._distractors[key]


def _clipped_from_center(
    cx: np.ndarray, cy: np.ndarray, width: np.ndarray, height: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """``BoundingBox.from_center(...).clipped(size, size)`` as ``(n, 4)`` corners.

    Python's ``max(v, 0.0)`` keeps ``v`` unless ``0.0 > v`` and
    ``min(v, size)`` keeps ``v`` unless ``size < v``; the ``where`` calls
    keep the same operand, signed zeros included.
    """
    half_w = width / 2.0
    half_h = height / 2.0
    corners = np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=-1)
    corners = np.where(0.0 > corners, 0.0, corners)
    return np.where(size[:, None] < corners, size[:, None], corners)


def _solid(boxes: np.ndarray) -> np.ndarray:
    """Rows of ``(n, 4)`` corners that ``BoundingBox.is_degenerate`` rejects not."""
    return (boxes[:, 2] - boxes[:, 0] > 0.0) & (boxes[:, 3] - boxes[:, 1] > 0.0)


def _area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~repro.vision.bbox.iou` of each row pair of ``(n, 4)`` corners.

    The same operations in the same order: Python's ``max``/``min`` tie
    rules for the intersection, then ``a.area + b.area - inter.area``.
    """
    x1 = np.where(b[:, 0] > a[:, 0], b[:, 0], a[:, 0])
    y1 = np.where(b[:, 1] > a[:, 1], b[:, 1], a[:, 1])
    x2 = np.where(b[:, 2] < a[:, 2], b[:, 2], a[:, 2])
    y2 = np.where(b[:, 3] < a[:, 3], b[:, 3], a[:, 3])
    inter = (x2 - x1) * (y2 - y1)
    union = _area(a) + _area(b) - inter
    overlap = (x2 > x1) & (y2 > y1) & (union > 0.0)
    return np.divide(inter, union, out=np.zeros(len(a)), where=overlap)


def detect_batch(spec: ModelSpec, batch: SceneBatch) -> OutcomeColumns:
    """Run ``spec`` over every frame of ``batch`` — the vectorized hot path.

    Outcomes are bit-identical to ``[detect(spec, scene, (seed, index))
    for ...]``: every RNG stream is seeded by the same ``(context_id,
    model)`` contract, only materialized in bulk, and every step is the
    scalar path's arithmetic as array operations — the noise, quality and
    confidence draws, the distractor draws (:meth:`SceneBatch.distractor_draws`),
    box clipping, NMS and IoU.  Only the target box's ``exp`` stays one
    scalar call per frame, as :func:`detect` makes it: NumPy's vectorized
    ``exp`` may differ from its scalar one in the last bit.  The result
    is an :class:`OutcomeColumns`; outcome objects are built where a
    caller reads one.
    """
    count = len(batch)
    if count == 0:
        return OutcomeColumns.from_outcomes(spec.name, [])
    batch.seed_streams([spec])

    quality_skill = np.array(
        [spec.skill.quality(d) for d in batch.difficulties], dtype=np.float64
    )
    shared = batch.shared_noise * spec.scene_sensitivity
    private = batch.correlated_noise(spec.salt, spec.model_noise)
    quality = np.clip(quality_skill + shared + private, 0.0, 1.0)

    # The target candidate: the model's localization of the target, where
    # it responds at all, scored where the box is not degenerate.
    responding = np.flatnonzero(batch.has_truth & (quality >= spec.no_response_floor))
    truth = batch.truth_boxes[responding]
    truth_w = truth[:, 2] - truth[:, 0]
    truth_h = truth[:, 3] - truth[:, 1]
    slack = 1.0 - quality[responding]
    offset_sigma = 0.22 * slack * np.where(2.0 > truth_w, 2.0, truth_w)
    dx = batch.correlated_noise(spec.salt + 1, offset_sigma, select=responding)
    dy = batch.correlated_noise(spec.salt + 2, offset_sigma, select=responding)
    log_scale = batch.correlated_noise(spec.salt + 3, 0.16 * slack, select=responding)
    scale = np.array([np.exp(value) for value in log_scale.tolist()], dtype=np.float64)
    target = _clipped_from_center(
        (truth[:, 0] + truth[:, 2]) / 2.0 + dx,
        (truth[:, 1] + truth[:, 3]) / 2.0 + dy,
        truth_w * scale,
        truth_h * scale,
        batch.frame_sizes[responding],
    )
    localized = _solid(target)
    target_frames, target = responding[localized], target[localized]
    noise = batch.correlated_noise(spec.salt + 4, spec.calibration.noise, select=target_frames)
    base = spec.calibration.scale * quality[target_frames] + spec.calibration.bias
    target_scores = np.clip(base + noise, 0.0, 1.0)

    frames, uniforms = batch.distractor_draws(spec)
    size = batch.frame_sizes[frames]
    widths = uniforms[:, 0] * size
    distractors = _clipped_from_center(
        uniforms[:, 2] * size, uniforms[:, 3] * size, widths, widths * uniforms[:, 1], size
    )
    scores = np.clip(
        uniforms[:, 4] + 0.6 * spec.calibration.bias * batch.clutter[frames], 0.0, 0.95
    )
    kept = _solid(distractors)

    # Candidates in the scalar path's order: a frame's distractors in draw
    # order, then its target.  The greedy NMS survivor the scalar path
    # reports is the first viable candidate in NMS order (score, then the
    # larger area, then x1, y1, x2, y2; a stable sort keeps input order on
    # ties), which nothing suppresses.  Ranking viable candidates first
    # and non-viable ones by score puts, where nothing is viable, the
    # strongest response first: the score the scalar path reports then.
    cand_frames = np.concatenate([frames[kept], target_frames])
    cand_boxes = np.concatenate([distractors[kept], target])
    cand_scores = np.concatenate([scores[kept], target_scores])
    is_target = np.arange(len(cand_frames)) >= kept.sum()
    viable = cand_scores >= DEFAULT_CONFIDENCE_THRESHOLD
    order = np.lexsort((
        cand_boxes[:, 3], cand_boxes[:, 2], cand_boxes[:, 1], cand_boxes[:, 0],
        -_area(cand_boxes), -cand_scores, ~viable, cand_frames,
    ))
    ranked_frames = cand_frames[order]
    lead = order[np.flatnonzero(np.diff(ranked_frames, prepend=-1))]
    win = lead[viable[lead]]
    win_frames = cand_frames[win]

    detected = np.zeros(count, dtype=bool)
    detected[win_frames] = True
    confidence = np.full(count, 0.02)
    confidence[cand_frames[lead]] = cand_scores[lead]
    box = np.zeros((count, 4))
    box[win_frames] = cand_boxes[win]
    iou = np.zeros(count)
    scored = win_frames[batch.has_truth[win_frames]]
    iou[scored] = _iou_rows(box[scored], batch.truth_boxes[scored])
    has_target = np.zeros(count, dtype=bool)
    has_target[target_frames] = True
    target_won = np.zeros(count, dtype=bool)
    target_won[win_frames] = is_target[win]
    false_positive = detected & (
        ~batch.has_truth
        | (has_target & ~target_won & (iou < 0.1))
        | (batch.has_truth & ~has_target)
    )
    return OutcomeColumns(
        spec.name, box, detected.copy(), confidence, iou, quality, detected, false_positive
    )
