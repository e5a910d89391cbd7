"""Marlin baseline (Apicharttrisorn et al., SenSys'19), paper's SOTA rival.

Marlin saves energy by alternating a full DNN with a lightweight visual
tracker: the DNN anchors the target, the tracker follows it cheaply, and
the DNN re-fires when the tracker loses confidence, when the scene shifts,
or after a refresh interval.  It is context-aware but single-model and
GPU-only — exactly the comparison point for SHIFT's multi-model,
multi-accelerator advantage (Table II).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..core.policy import Policy, RuntimeServices
from ..core.records import FrameRecord
from ..sim.accelerator import Accelerator
from ..vision.bbox import iou as box_iou

if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np

    from ..data.generator import Frame
    from ..vision.tracker import TemplateTracker

# Cost of one tracker step on the CPU: template matching over a bounded
# search window (measured order of magnitude for correlation trackers on
# embedded ARM cores).
TRACKER_LATENCY_S = 0.008
TRACKER_POWER_W = 3.5

# Tracker freshness: re-run the DNN at least this often (frames).
DEFAULT_REDETECT_INTERVAL = 12
# Global scene change that forces a redetection.
DEFAULT_SCENE_CHANGE_NCC = 0.35


class MarlinPolicy(Policy):
    """DNN + tracker alternation on a fixed model and accelerator."""

    def __init__(
        self,
        model_name: str = "yolov7",
        accelerator_name: str = "gpu",
        redetect_interval: int = DEFAULT_REDETECT_INTERVAL,
        scene_change_ncc: float = DEFAULT_SCENE_CHANGE_NCC,
    ) -> None:
        if redetect_interval < 1:
            raise ValueError("redetect_interval must be >= 1")
        self.model_name = model_name
        self.accelerator_name = accelerator_name
        self.redetect_interval = redetect_interval
        self.scene_change_ncc = scene_change_ncc
        self.name = f"marlin:{model_name}"
        self._services: RuntimeServices | None = None
        self._accelerator: Accelerator | None = None
        self._tracker: TemplateTracker | None = None
        self._ncc: Callable[[np.ndarray, np.ndarray], float] | None = None
        self._frames_since_detection = 0
        self._previous_image = None
        self._previous_index: int | None = None
        self._first_frame = True
        self._frame_ncc: np.ndarray | None = None

    def fingerprint(self) -> str:
        """Run-store identity: model, accelerator, and both thresholds."""
        return hashlib.sha256(
            "|".join(
                (
                    "marlin",
                    self.model_name,
                    self.accelerator_name,
                    str(self.redetect_interval),
                    repr(self.scene_change_ncc),
                    repr(TRACKER_LATENCY_S),
                    repr(TRACKER_POWER_W),
                )
            ).encode("utf-8")
        ).hexdigest()

    def begin(self, services: RuntimeServices) -> None:
        """Bind to the platform and reset the tracker state."""
        # The tracker and NCC (and with them NumPy) load with the first
        # run: building the policy for its run-store fingerprint needs neither.
        from ..vision.ncc import ncc
        from ..vision.tracker import TemplateTracker

        accelerator = services.soc.accelerator(self.accelerator_name)
        if not accelerator.supports(self.model_name):
            raise ValueError(
                f"model {self.model_name!r} cannot run on {self.accelerator_name!r}"
            )
        self._services = services
        self._accelerator = accelerator
        self._tracker = TemplateTracker()
        self._ncc = ncc
        self._frames_since_detection = 0
        self._previous_image = None
        self._previous_index = None
        self._first_frame = True
        # Fast tier: the scene-change gate compares consecutive frames —
        # the exact signal the trace precomputes (bit-identically) with
        # its stacked NCC kernel.
        self._frame_ncc = services.trace.consecutive_frame_ncc() if services.fast else None

    # ------------------------------------------------------------- step

    def step(self, frame: Frame) -> FrameRecord:
        """Track when stable; redetect when stale, lost, or scene changed."""
        if self._services is None or self._accelerator is None:
            raise RuntimeError("MarlinPolicy.step() called before begin()")

        must_detect = self._first_frame or not self._tracker.has_target
        if not must_detect and self._frames_since_detection >= self.redetect_interval:
            must_detect = True
        if not must_detect and self._previous_image is not None:
            precomputed = (
                self._frame_ncc is not None
                and self._previous_index == frame.index - 1
            )
            scene_similarity = (
                float(self._frame_ncc[frame.index - 1]) if precomputed
                else self._ncc(self._previous_image, frame.image)
            )
            if scene_similarity < self.scene_change_ncc:
                must_detect = True

        if must_detect:
            record = self._detect_step(frame)
        else:
            record = self._track_step(frame)
            if record is None:  # tracker lost the target mid-frame
                record = self._detect_step(frame)
        self._previous_image = frame.image
        self._previous_index = frame.index
        return record

    def _detect_step(self, frame: Frame) -> FrameRecord:
        services = self._services
        assert services is not None and self._accelerator is not None
        stall_s = 0.0
        load_energy = 0.0
        cold = False
        if self._first_frame:
            load = services.engine.run_load(self.model_name, self._accelerator)
            stall_s = load.load_time_s
            load_energy = load.energy_j
            cold = True
            self._first_frame = False

        inference = services.engine.run_inference(self.model_name, self._accelerator)
        outcome = services.trace.outcome(self.model_name, frame.index)
        self._frames_since_detection = 0
        if outcome.box is not None and not outcome.box.is_degenerate():
            self._tracker.anchor(frame.image, outcome.box)
        else:
            self._tracker.reset()
        return FrameRecord(
            frame_index=frame.index,
            model_name=self.model_name,
            accelerator_name=self.accelerator_name,
            box=outcome.box,
            confidence=outcome.confidence,
            iou=outcome.iou,
            ground_truth_present=frame.ground_truth is not None,
            detected=outcome.detected,
            latency_s=inference.latency_s + stall_s,
            inference_s=inference.latency_s,
            stall_s=stall_s,
            overhead_s=0.0,
            energy_j=inference.energy_j + load_energy,
            swap=False,
            cold_load=cold,
            used_tracker=False,
        )

    def _track_step(self, frame: Frame) -> FrameRecord | None:
        services = self._services
        assert services is not None
        result = self._tracker.track(frame.image)
        if result.lost:
            return None
        services.engine.charge_overhead("VDD_CPU", TRACKER_POWER_W, TRACKER_LATENCY_S)
        self._frames_since_detection += 1
        achieved_iou = 0.0
        if frame.ground_truth is not None and result.box is not None:
            achieved_iou = box_iou(result.box, frame.ground_truth)
        return FrameRecord(
            frame_index=frame.index,
            model_name=self.model_name,
            accelerator_name=self.accelerator_name,
            box=result.box,
            confidence=max(0.0, result.score),
            iou=achieved_iou,
            ground_truth_present=frame.ground_truth is not None,
            detected=result.box is not None,
            latency_s=TRACKER_LATENCY_S,
            inference_s=0.0,
            stall_s=0.0,
            overhead_s=TRACKER_LATENCY_S,
            energy_j=TRACKER_POWER_W * TRACKER_LATENCY_S,
            swap=False,
            cold_load=False,
            used_tracker=True,
        )
