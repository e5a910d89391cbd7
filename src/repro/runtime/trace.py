"""Scenario traces: precomputed detection outcomes for every model.

A :class:`ScenarioTrace` materializes a scenario's frames once and runs
every model of the zoo on every frame.  Detection outcomes are pure
functions of (model, frame) — accelerators change timing and energy, never
boxes — so the trace lets oracle baselines (which need *all* models' results
per frame) and repeated policy runs share the expensive part.  Policies
only *observe* the outcomes of inferences they actually execute and pay
for; the trace is a cache, not an information leak.

Building a trace is the repo's hottest path (every model on every frame,
thousands of frames per scenario).  Two engines keep it fast:

* the **batched detection kernel** (:class:`~repro.models.detector.SceneBatch`
  + :func:`~repro.models.detector.detect_batch`) computes every model's
  outcomes as columns across all frames, bit-identical to scalar
  :func:`~repro.models.detector.detect`;
* the **segment-batched renderer** behind
  :func:`~repro.data.generator.render_scenario` stacks each segment's
  pixels in one pass.

Because outcomes depend only on the latent scene state — never on rendered
pixels — the model sweep can additionally fan out across worker processes
while the parent renders frames: pass ``max_workers`` to
:meth:`ScenarioTrace.build` or the trace cache.  Workers only pay off
once each carries enough model-frames to amortize process startup and
scene pickling; below :data:`MIN_MODEL_FRAMES_PER_WORKER` per worker the
build silently falls back to fewer workers (or serial), so a parallel
build is never slower than a serial one.

Frames are **lazy**: a trace loaded from the on-disk store (or a worker
that only reads outcomes) never renders pixels; the first ``.frames``
access renders on demand.  :class:`~repro.runtime.tracecache.TraceCache`
is the one way a trace is acquired: it keys by the scenario's content
fingerprint (never by name/length, which collide), can back onto an
on-disk :class:`~repro.runtime.store.TraceStore` so repeated invocations
skip the build entirely, and imports this module only when it has to
build.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..data.generator import Frame, render_scenario, scenario_scenes
from ..data.scenario import Scenario
from ..data.scene import SceneState
from ..models.detector import DetectionOutcome, OutcomeColumns, SceneBatch, detect_batch
from ..models.spec import ModelSpec
from ..models.zoo import ModelZoo
from ..vision.ncc import box_ncc, stacked_ncc

# Fewer model-frames per worker than this and process startup + scene
# pickling outweigh the batched sweep itself; the build then uses fewer
# workers (possibly one).  With streams seeded in bulk a worker detects
# ~27k model-frames/s (2 vCPUs), so 6000 model-frames ≈ 0.22 s of compute
# against ~0.1 s of fixed per-worker overhead.  Serial and two-worker
# builds of one scenario cross between 6000 model-frames (0.48 s serial,
# 0.58 s pooled) and 8000 (0.59 s, 0.47 s): below the 12000 at which two
# workers start, so a pool is never slower than the serial build.
MIN_MODEL_FRAMES_PER_WORKER = 6000


def _available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _effective_workers(requested: int | None, task_cap: int, model_frames: int) -> int:
    """How many workers a trace-build fan-out should actually use.

    Caps the requested worker count by ``task_cap`` — the finest possible
    task granularity (models for one build; models x scenarios for a
    multi-scenario warm-up) — by the total ``model_frames`` volume, so
    each worker keeps at least :data:`MIN_MODEL_FRAMES_PER_WORKER`
    model-frames and small builds never fragment the batched sweep across
    a pool that costs more than it saves, and by the CPUs actually
    available (on a one-core host, worker processes only time-slice the
    serial path and lose).
    """
    if requested is None or requested <= 1:
        return 1
    by_volume = model_frames // MIN_MODEL_FRAMES_PER_WORKER
    return max(1, min(requested, task_cap, by_volume, _available_cpus()))


def _outcomes_for_specs(
    scenario_seed: int, scenes: list[SceneState], specs: list[ModelSpec]
) -> dict[str, OutcomeColumns]:
    """Batched detection outcomes of ``specs`` over the given scene states.

    Module-level so worker processes can unpickle it.  Scene states are
    computed once in the parent and shipped (they are small — no pixels),
    which keeps workers independent of parent-process state like
    runtime-registered backgrounds (a spawn-start worker would not see
    those if it re-derived scenes from the scenario itself).  One
    :class:`SceneBatch` per call amortizes the shared per-frame precompute
    (truth boxes, difficulty, shared scene noise) and the stream seeding
    across the whole chunk.
    """
    batch = SceneBatch(scenes, scenario_seed)
    batch.seed_streams(specs)
    return {spec.name: detect_batch(spec, batch) for spec in specs}


def _spec_chunks(specs: list[ModelSpec], chunk_count: int) -> list[list[ModelSpec]]:
    """Split specs into at most ``chunk_count`` balanced, order-preserving chunks."""
    chunk_count = max(1, min(chunk_count, len(specs)))
    chunks: list[list[ModelSpec]] = [[] for _ in range(chunk_count)]
    for i, spec in enumerate(specs):
        chunks[i % chunk_count].append(spec)
    return chunks


def _pool_build(
    scenarios: Sequence[Scenario], zoo: ModelZoo, workers: int
) -> Iterator[ScenarioTrace]:
    """Build ``scenarios``' traces with their model sweeps on ``workers`` processes.

    The one parallel build.  Tasks are (scenario, model-chunk) detection
    sweeps — fine-grained enough to balance scenarios of very different
    lengths — all submitted up front; the parent then renders each
    scenario's frames in order and yields its trace once its chunks are
    in.  Aim for at least one task per worker overall: with S scenarios
    the zoo splits into ceil(W / S) chunks each, but never finer than a
    scenario's own volume can amortize (fragmenting the batched sweep was
    a net slowdown).  One scenario therefore gets W chunks on a pool of
    W, the layout :func:`_effective_workers` picks for it alone.
    """
    specs = zoo.specs()
    base_chunks = -(-workers // len(scenarios))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submitted = []
        for scenario in scenarios:
            chunk_count = min(
                base_chunks,
                _effective_workers(workers, len(specs), len(specs) * scenario.total_frames),
            )
            scenes = scenario_scenes(scenario)
            submitted.append([
                pool.submit(_outcomes_for_specs, scenario.seed, scenes, chunk)
                for chunk in _spec_chunks(specs, chunk_count)
            ])
        for scenario, futures in zip(scenarios, submitted, strict=True):
            # Overlap the (serial) rendering with the workers' sweeps.
            frames = render_scenario(scenario)
            merged: dict[str, OutcomeColumns] = {}
            for future in futures:
                merged.update(future.result())
            # Preserve zoo registration order regardless of chunk layout.
            outcomes = {spec.name: merged[spec.name] for spec in specs}
            yield ScenarioTrace(scenario=scenario, frames=frames, outcomes=outcomes)


class ScenarioTrace:
    """Frames of one scenario plus per-model detection outcomes.

    ``frames`` may be ``None``: outcome-only consumers (metrics, tables,
    oracle baselines reading persisted traces) then never pay for
    rendering; the first ``.frames`` access renders lazily and caches.

    ``outcomes`` maps each model to its per-frame outcomes: the
    :class:`~repro.models.detector.OutcomeColumns` of a build, or lists.
    It may likewise be deferred: pass ``outcomes_loader`` (a
    zero-argument callable) instead and the per-model outcomes are
    materialized on first ``.outcomes`` access.  That is what makes the
    binary column store fast to open — loading a trace parses a few-KiB
    header for identity checks; the column payload is only decoded into
    :class:`~repro.models.detector.DetectionOutcome` rows if something
    actually consumes them.
    """

    def __init__(
        self,
        scenario: Scenario,
        frames: list[Frame] | None = None,
        outcomes: dict[str, Sequence[DetectionOutcome]] | None = None,
        outcomes_loader: "callable | None" = None,
    ) -> None:
        if outcomes is None and outcomes_loader is None:
            raise ValueError("a trace needs per-model outcomes (or a loader for them)")
        self.scenario = scenario
        self._outcomes = outcomes
        self._outcomes_loader = outcomes_loader
        self._frames = frames
        self._frame_ncc: np.ndarray | None = None
        self._box_ncc: dict[tuple[str, int], float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rendered = "rendered" if self._frames is not None else "lazy"
        if self._outcomes is None:
            models = "outcomes lazy"
        else:
            models = f"{len(self._outcomes)} models"
        return (
            f"ScenarioTrace({self.scenario.name!r}, {self.frame_count} frames "
            f"[{rendered}], {models})"
        )

    @property
    def outcomes(self) -> dict[str, Sequence[DetectionOutcome]]:
        """Per-model outcome lists, materialized on first access."""
        if self._outcomes is None:
            self._outcomes = self._outcomes_loader()
        return self._outcomes

    @property
    def outcomes_materialized(self) -> bool:
        """True once outcomes have been decoded (or were supplied at build)."""
        return self._outcomes is not None

    @classmethod
    def build(
        cls,
        scenario: Scenario,
        zoo: ModelZoo,
        max_workers: int | None = None,
    ) -> "ScenarioTrace":
        """Render the scenario and run every model on every frame.

        With ``max_workers`` > 1 the per-model detection sweeps run in
        worker processes while the parent renders frames; results are
        bit-identical to the serial path (detection is deterministic and
        independent of rendering).  Small builds ignore the worker request
        (see :func:`_effective_workers`) rather than paying pool overhead
        that exceeds the sweep itself.
        """
        workers = _effective_workers(max_workers, len(zoo), len(zoo) * scenario.total_frames)
        if workers > 1:
            (trace,) = _pool_build([scenario], zoo, workers)
            return trace

        frames = render_scenario(scenario)
        batch = SceneBatch(
            [frame.scene for frame in frames],
            scenario.seed,
            truths=[frame.ground_truth for frame in frames],
            difficulties=[frame.difficulty for frame in frames],
        )
        batch.seed_streams(zoo)
        outcomes = {spec.name: detect_batch(spec, batch) for spec in zoo}
        return cls(scenario=scenario, frames=frames, outcomes=outcomes)

    @property
    def frames(self) -> list[Frame]:
        """The rendered frames, materialized on first access."""
        if self._frames is None:
            self._frames = render_scenario(self.scenario)
        return self._frames

    @property
    def frames_materialized(self) -> bool:
        """True once pixels have been rendered (or were supplied at build)."""
        return self._frames is not None

    def consecutive_frame_ncc(self) -> np.ndarray:
        """Full-frame NCC between consecutive frames, computed once.

        The policy-independent half of the context-similarity signal (the
        box-local half depends on each policy's detections), served from
        the stacked NCC kernel and cached on the trace so repeated
        consumers — the scheduler-overhead benchmark, analyses over the
        same trace — pay for it once.
        """
        if self._frame_ncc is None:
            self._frame_ncc = stacked_ncc([frame.image for frame in self.frames])
        return self._frame_ncc

    def box_context_ncc(self, model_name: str, frame_index: int) -> float:
        """Box-local context similarity of one model's detection, memoized.

        The SHIFT context signal's box half compares the crop of the
        *previous* frame's detection box in that frame against the same
        box region in the next frame.  Because detection outcomes are pure
        functions of (model, frame), so is this value: it only depends on
        ``outcome(model_name, frame_index).box`` and frames
        ``frame_index``/``frame_index + 1`` — never on which policy asked.
        Memoizing it on the trace lets every run, policy variant, and
        sweep over the same trace share the crop/resize/NCC work, exactly
        as :meth:`consecutive_frame_ncc` shares the full-frame half.

        Bit-identical to :func:`repro.vision.ncc.box_ncc` on the same
        inputs (it *is* that call, cached).
        """
        key = (model_name, frame_index)
        value = self._box_ncc.get(key)
        if value is None:
            frames = self.frames
            box = self.outcome(model_name, frame_index).box
            value = box_ncc(
                frames[frame_index].image, box, frames[frame_index + 1].image, box
            )
            self._box_ncc[key] = value
        return value

    def outcome(self, model_name: str, frame_index: int) -> DetectionOutcome:
        """The outcome ``model_name`` produces on frame ``frame_index``."""
        try:
            per_model = self.outcomes[model_name]
        except KeyError:
            known = ", ".join(sorted(self.outcomes))
            raise KeyError(f"no trace for model {model_name!r}; traced: {known}") from None
        return per_model[frame_index]

    def model_names(self) -> list[str]:
        """Models covered by this trace."""
        return list(self.outcomes)

    @property
    def frame_count(self) -> int:
        """Number of frames in the scenario (available without rendering)."""
        if self._frames is not None:
            return len(self._frames)
        return self.scenario.total_frames
