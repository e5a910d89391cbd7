"""Policy protocol: how continuous-detection strategies plug into the runner.

A policy processes frames one at a time against a set of runtime services
(the SoC, its execution engine, and the scenario trace that stands in for
real camera frames + real inference).  SHIFT, the single-model baselines,
Marlin, and the Oracles all implement this interface, so the runner and the
metric pipeline treat them identically.

The protocol lives in ``core`` (below ``runtime`` in the layer order):
policies are implemented in ``core`` and ``baselines``, and neither may
import upward into the runtime tier.  Every annotation here is for
tooling only and never evaluated at import time: the trace field's type
lives above ``core``, and the frame, engine and platform types would
load the renderer and the engine into processes that run no policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..data.generator import Frame
    from ..runtime.trace import ScenarioTrace
    from ..sim.engine import ExecutionEngine
    from ..sim.soc import SoC
    from .records import FrameRecord


@dataclass
class RuntimeServices:
    """Everything a policy may touch while running a scenario.

    ``fast`` marks a fast-tier run: the engine pre-plans its jitter
    stream, and policies that support it (SHIFT, Marlin) serve the
    policy-independent half of their context signals from trace-level
    caches instead of recomputing per frame.  Results are bit-identical
    either way — the differential harness's ``fastrun`` check enforces
    full :class:`~repro.core.records.FrameRecord` equality.
    """

    trace: ScenarioTrace
    soc: SoC
    engine: ExecutionEngine
    fast: bool = False


class Policy(ABC):
    """A continuous object-detection strategy."""

    #: Human-readable policy name used in tables and plots.
    name: str = "policy"

    @abstractmethod
    def begin(self, services: RuntimeServices) -> None:
        """Reset internal state for a fresh run over one scenario."""

    @abstractmethod
    def step(self, frame: Frame) -> FrameRecord:
        """Process one frame and account for its time and energy."""

    def fingerprint(self) -> str:
        """Content-addressed identity of this policy's configuration.

        The run store keys persisted results by this digest, so it must
        cover *everything* that can change the policy's frame records —
        model choices, thresholds, scheduler knobs, characterization
        inputs.  The base class deliberately has no default: a policy
        that does not define its identity is simply never cached (the
        runner treats :class:`NotImplementedError` as "skip the store").
        """
        raise NotImplementedError(
            f"policy {self.name!r} defines no fingerprint; runs cannot be persisted"
        )
