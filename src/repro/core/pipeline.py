"""The SHIFT runtime pipeline: the paper's full system as a policy.

Per frame the pipeline:

1. computes the context-change signal (NCC of frame and detection crop),
2. runs the Algorithm 1 scheduler (early-exits when context is stable),
3. asks the dynamic model loader to materialize the chosen pair — paying a
   stall for cold loads,
4. executes the inference on the chosen accelerator (virtual time/energy),
5. observes the detection, feeds confidence back for the next frame, and
6. charges the scheduler's own compute overhead (<2 ms per frame).

After every reschedule the DML optionally prefetches the next-ranked
models into free memory so subsequent swaps are cheap.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from .policy import Policy, RuntimeServices
from .records import FrameRecord
from .confidence_graph import ConfidenceGraph
from .config import ShiftConfig
from .context import ContextDetector

if TYPE_CHECKING:
    from ..characterization.profiler import CharacterizationBundle
    from ..data.generator import Frame
    from .loader import DynamicModelLoader
    from .scheduler import ShiftScheduler
    from .traits import Pair, TraitTable

# How many ranked pairs the DML considers when filling free memory.
_PREFETCH_CANDIDATES = 6


class ShiftPipeline(Policy):
    """SHIFT as a runnable policy over a scenario trace."""

    name = "shift"

    def __init__(
        self,
        bundle: CharacterizationBundle,
        config: ShiftConfig | None = None,
        graph: ConfidenceGraph | None = None,
    ) -> None:
        self.bundle = bundle
        self.config = config or ShiftConfig()
        # The graph can be shared/pre-built (the sensitivity sweep reuses
        # one structure across thresholds); otherwise build it here.
        self._base_graph = graph or ConfidenceGraph.build(
            bundle.observations,
            bin_width=self.config.bin_width,
            distance_threshold=self.config.distance_threshold,
        )
        # Per-run state, created in begin().
        self._services: RuntimeServices | None = None
        self._scheduler: ShiftScheduler | None = None
        self._loader: DynamicModelLoader | None = None
        self._context = ContextDetector()
        self._current_pair: Pair | None = None
        self._last_confidence = 0.0
        self._last_box = None
        # Fast-tier state: trace-level consecutive-frame NCC plus the
        # index of the last processed frame (the cached values only apply
        # to strictly consecutive steps).
        self._fast = False
        self._frame_ncc: np.ndarray | None = None
        self._last_index: int | None = None

    # ------------------------------------------------------------ setup

    def begin(self, services: RuntimeServices) -> None:
        """Bind to a platform and reset all runtime state."""
        # The run-time machinery loads with the first run: building a
        # pipeline for its run-store fingerprint does not need it.
        from .loader import DynamicModelLoader
        from .scheduler import ShiftScheduler
        from .traits import TraitTable

        traits = TraitTable.build(self.bundle, services.soc, allow_cpu=self.config.allow_cpu)
        self._services = services
        self._scheduler = ShiftScheduler(traits, self._base_graph, self.config)
        self._loader = DynamicModelLoader(
            services.soc, services.engine, naive=self.config.naive_loading
        )
        self._context.reset()
        self._current_pair = self._initial_pair(traits)
        self._last_confidence = self.bundle.accuracy[self._current_pair[0]].mean_confidence
        self._last_box = None
        self._fast = services.fast
        self._frame_ncc = services.trace.consecutive_frame_ncc() if self._fast else None
        self._last_index = None
        self._accelerators = {a.name: a for a in services.soc.accelerators}

    def _initial_pair(self, traits: TraitTable) -> Pair:
        """Deployment default: the configured initial model on the GPU."""
        preferred = (self.config.initial_model, "gpu")
        if preferred in traits:
            return preferred
        pairs = traits.pairs_for_model(self.config.initial_model)
        if pairs:
            return pairs[0]
        return traits.pairs()[0]

    # ------------------------------------------------------------- step

    def step(self, frame: Frame) -> FrameRecord:
        """Process one frame end to end."""
        services, scheduler, loader = self._require_state()
        previous_pair = self._current_pair
        assert previous_pair is not None

        # (1) Context signal against the previous processed frame.  The
        # fast tier serves the full-frame half from the trace's stacked
        # NCC cache and the box half from the per-(model, frame) memo —
        # both are pure functions of the trace (the previous box is the
        # previous model's traced detection), so the cached values equal
        # the live computation bit-for-bit.  Non-consecutive stepping
        # (never produced by the runner) falls back to the live signal.
        if self._fast and self._context.primed and self._last_index == frame.index - 1:
            assert self._frame_ncc is not None
            frame_half = float(self._frame_ncc[frame.index - 1])
            box_half = services.trace.box_context_ncc(previous_pair[0], frame.index - 1)
            similarity = max(0.0, min(frame_half, box_half))
        else:
            last_outcome_box = None if not self._context.primed else self._last_box
            similarity = self._context.similarity(frame.image, last_outcome_box)

        # (2) Scheduling heuristic (vectorized reschedule on the fast tier).
        decision = (
            scheduler.select_fast(previous_pair, self._last_confidence, similarity)
            if self._fast
            else scheduler.select(previous_pair, self._last_confidence, similarity)
        )
        pair = decision.pair

        # (3) Residency: stall + energy when the model is not warm.
        if self._fast:
            stall_s, load_energy, cold_load = loader.ensure_loaded_cost(pair)
        else:
            load = loader.ensure_loaded(pair)
            stall_s, load_energy, cold_load = load.stall_s, load.energy_j, load.cold_load

        # (4) Inference on the chosen accelerator.  The fast tier uses the
        # record-free cost accessor (identical draws and charges).
        if self._fast:
            accelerator = self._accelerators[pair[1]]
            inference_s, inference_j = services.engine.inference_cost(pair[0], accelerator)
        else:
            accelerator = services.soc.accelerator(pair[1])
            inference = services.engine.run_inference(pair[0], accelerator)
            inference_s, inference_j = inference.latency_s, inference.energy_j

        # (5) Observe the detection; update context + feedback.
        outcome = services.trace.outcome(pair[0], frame.index)
        self._context.observe(frame.image, outcome.box)
        self._last_box = outcome.box
        self._last_confidence = outcome.confidence
        self._current_pair = pair
        self._last_index = frame.index

        # (6) Scheduler compute overhead (paper: <2 ms/frame).
        overhead_s = self.config.scheduler_overhead_s
        services.engine.charge_overhead(
            "VDD_CPU", self.config.scheduler_overhead_power_w, overhead_s
        )
        overhead_energy = self.config.scheduler_overhead_power_w * overhead_s

        # Post-decision prefetch: occupy free memory with likely models.
        if self.config.prefetch and decision.rescheduled:
            loader.prefetch(scheduler.ranked_pairs()[:_PREFETCH_CANDIDATES])

        return FrameRecord(
            frame_index=frame.index,
            model_name=pair[0],
            accelerator_name=pair[1],
            box=outcome.box,
            confidence=outcome.confidence,
            iou=outcome.iou,
            ground_truth_present=frame.ground_truth is not None,
            detected=outcome.detected,
            latency_s=inference_s + stall_s + overhead_s,
            inference_s=inference_s,
            stall_s=stall_s,
            overhead_s=overhead_s,
            energy_j=inference_j + load_energy + overhead_energy,
            swap=pair != previous_pair,
            cold_load=cold_load,
            rescheduled=decision.rescheduled,
            similarity=similarity,
        )

    # ------------------------------------------------------------ misc

    def fingerprint(self) -> str:
        """Run-store identity: config + characterization + graph content.

        Covers every input that can change a frame record: the full
        :class:`ShiftConfig` (scheduler knobs, ablations, overheads), the
        characterization bundle (traits seed the scheduler and the
        initial confidence), and the confidence graph actually in use
        (which may be shared/pre-built with its own parameters).
        """
        digest = hashlib.sha256()
        digest.update(
            "\n".join(
                (
                    "shift",
                    repr(self.config),
                    self.bundle.fingerprint(),
                    self._base_graph.fingerprint(),
                )
            ).encode("utf-8")
        )
        return digest.hexdigest()

    def _require_state(self) -> tuple[RuntimeServices, ShiftScheduler, DynamicModelLoader]:
        if self._services is None or self._scheduler is None or self._loader is None:
            raise RuntimeError("ShiftPipeline.step() called before begin()")
        return self._services, self._scheduler, self._loader

    @property
    def loader(self) -> DynamicModelLoader:
        """The active run's dynamic model loader (for inspection)."""
        if self._loader is None:
            raise RuntimeError("pipeline has not begun a run")
        return self._loader

    @property
    def scheduler(self) -> ShiftScheduler:
        """The active run's scheduler (for inspection)."""
        if self._scheduler is None:
            raise RuntimeError("pipeline has not begun a run")
        return self._scheduler
