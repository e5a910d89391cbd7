"""Single-model baseline: the conventional one-size-fits-all deployment.

Runs one fixed (model, accelerator) pair on every frame — the setup the
paper's introduction critiques and the reference point for the headline
"up to 7.5x energy / 2.8x latency" claims (YoloV7 on GPU).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from ..core.policy import Policy, RuntimeServices
from ..core.records import FrameRecord
from ..sim.accelerator import Accelerator

if TYPE_CHECKING:
    from ..data.generator import Frame


class SingleModelPolicy(Policy):
    """Always run ``model_name`` on ``accelerator_name``."""

    def __init__(self, model_name: str, accelerator_name: str = "gpu") -> None:
        self.model_name = model_name
        self.accelerator_name = accelerator_name
        self.name = f"single:{model_name}@{accelerator_name}"
        self._services: RuntimeServices | None = None
        self._accelerator: Accelerator | None = None
        self._first_frame = True

    def fingerprint(self) -> str:
        """Run-store identity: the fixed (model, accelerator) pair."""
        return hashlib.sha256(
            f"single-model|{self.model_name}|{self.accelerator_name}".encode("utf-8")
        ).hexdigest()

    def begin(self, services: RuntimeServices) -> None:
        """Validate the pair and charge the one-time model load."""
        accelerator = services.soc.accelerator(self.accelerator_name)
        if not accelerator.supports(self.model_name):
            raise ValueError(
                f"model {self.model_name!r} cannot run on {self.accelerator_name!r}"
            )
        self._services = services
        self._accelerator = accelerator
        self._first_frame = True

    def step(self, frame: Frame) -> FrameRecord:
        """Run the fixed pair on one frame."""
        if self._services is None or self._accelerator is None:
            raise RuntimeError("SingleModelPolicy.step() called before begin()")
        services = self._services

        stall_s = 0.0
        load_energy = 0.0
        cold = False
        if self._first_frame:
            # The deployment loads its engine once at startup.
            load = services.engine.run_load(self.model_name, self._accelerator)
            stall_s = load.load_time_s
            load_energy = load.energy_j
            cold = True
            self._first_frame = False

        inference = services.engine.run_inference(self.model_name, self._accelerator)
        outcome = services.trace.outcome(self.model_name, frame.index)
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
        )
