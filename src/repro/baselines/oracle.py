"""Oracle baselines: the paper's performance ceilings (§IV).

The Oracle sees every model's result on every frame in advance.  Among the
(model, accelerator) pairs whose IoU meets the 0.5 threshold it picks the
one optimizing the targeted metric (Energy, Accuracy, or Latency); when no
pair qualifies, it optimizes the metric alone.  All models are presumed
preloaded — switching is free — so Oracle numbers bound what any real
scheduler could do.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import TYPE_CHECKING

from ..core.policy import Policy, RuntimeServices
from ..core.records import FrameRecord
from ..sim.profiles import perf_point

if TYPE_CHECKING:
    from ..data.generator import Frame

ORACLE_IOU_THRESHOLD = 0.5


class OracleObjective(Enum):
    """The metric an Oracle optimizes."""

    ENERGY = "energy"
    ACCURACY = "accuracy"
    LATENCY = "latency"


class OraclePolicy(Policy):
    """Clairvoyant per-frame pair selection with free switching."""

    def __init__(self, objective: OracleObjective) -> None:
        self.objective = objective
        self.name = f"oracle:{objective.value}"
        self._services: RuntimeServices | None = None
        self._pairs: list[tuple[str, str]] = []
        self._previous_pair: tuple[str, str] | None = None

    def fingerprint(self) -> str:
        """Run-store identity: the objective and the IoU threshold."""
        return hashlib.sha256(
            f"oracle|{self.objective.value}|{ORACLE_IOU_THRESHOLD!r}".encode("utf-8")
        ).hexdigest()

    def begin(self, services: RuntimeServices) -> None:
        """Enumerate the schedulable pairs of the platform."""
        self._services = services
        self._pairs = services.soc.schedulable_pairs(services.trace.model_names())
        if not self._pairs:
            raise RuntimeError("no schedulable (model, accelerator) pairs on this platform")
        self._previous_pair = None

    # ------------------------------------------------------------- step

    def _pair_cost(self, pair: tuple[str, str], iou: float) -> tuple[float, ...]:
        """Sort key: lower is better for the pair under this objective."""
        services = self._services
        assert services is not None
        accel = services.soc.accelerator(pair[1])
        point = perf_point(pair[0], accel.accel_class)
        if self.objective is OracleObjective.ENERGY:
            primary = point.energy_j
        elif self.objective is OracleObjective.LATENCY:
            primary = point.latency_s
        else:
            primary = -iou
        # Deterministic tie-breaks: energy, then name.
        return (primary, point.energy_j, pair[0], pair[1])

    def step(self, frame: Frame) -> FrameRecord:
        """Pick the clairvoyantly best pair for this frame and run it."""
        services = self._services
        if services is None:
            raise RuntimeError("OraclePolicy.step() called before begin()")

        ious = {
            pair: services.trace.outcome(pair[0], frame.index).iou for pair in self._pairs
        }
        qualifying = [pair for pair in self._pairs if ious[pair] >= ORACLE_IOU_THRESHOLD]
        candidates = qualifying if qualifying else self._pairs
        best = min(candidates, key=lambda pair: self._pair_cost(pair, ious[pair]))

        accelerator = services.soc.accelerator(best[1])
        inference = services.engine.run_inference(best[0], accelerator)
        outcome = services.trace.outcome(best[0], frame.index)
        swap = self._previous_pair is not None and best != self._previous_pair
        self._previous_pair = best
        return FrameRecord(
            frame_index=frame.index,
            model_name=best[0],
            accelerator_name=best[1],
            box=outcome.box,
            confidence=outcome.confidence,
            iou=outcome.iou,
            ground_truth_present=frame.ground_truth is not None,
            detected=outcome.detected,
            latency_s=inference.latency_s,
            inference_s=inference.latency_s,
            stall_s=0.0,
            overhead_s=0.0,
            energy_j=inference.energy_j,
            swap=swap,
            cold_load=False,
        )


def oracle_energy() -> OraclePolicy:
    """Oracle E: minimum energy among qualifying pairs."""
    return OraclePolicy(OracleObjective.ENERGY)


def oracle_accuracy() -> OraclePolicy:
    """Oracle A: maximum IoU."""
    return OraclePolicy(OracleObjective.ACCURACY)


def oracle_latency() -> OraclePolicy:
    """Oracle L: minimum latency among qualifying pairs."""
    return OraclePolicy(OracleObjective.LATENCY)
