"""Execution engine: runs inference and model loads on the simulated SoC.

The engine is the only component that advances the virtual clock and
charges the energy meter.  Latency and power are drawn around the measured
means of :mod:`repro.sim.profiles` with small multiplicative jitter, the
same run-to-run variation the paper's averaged measurements smooth over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accelerator import Accelerator
from .profiles import load_cost, perf_point
from .soc import SoC

# Default relative jitter on latency and power samples.
LATENCY_JITTER = 0.04
POWER_JITTER = 0.03


@dataclass(frozen=True)
class InferenceRecord:
    """Timing/energy outcome of one inference call."""

    model_name: str
    accelerator_name: str
    latency_s: float
    power_w: float
    energy_j: float
    started_at: float


@dataclass(frozen=True)
class LoadRecord:
    """Timing/energy outcome of one model load."""

    model_name: str
    accelerator_name: str
    load_time_s: float
    energy_j: float
    memory_mb: float
    started_at: float


class ExecutionEngine:
    """Dispatches inference and load operations onto an SoC.

    The engine holds its own RNG so jitter is reproducible per run; pass
    ``jitter=0`` for exact Table IV means (useful in tests).
    """

    def __init__(
        self,
        soc: SoC,
        seed: int = 1234,
        latency_jitter: float = LATENCY_JITTER,
        power_jitter: float = POWER_JITTER,
    ) -> None:
        if latency_jitter < 0 or power_jitter < 0:
            raise ValueError("jitter fractions must be non-negative")
        self.soc = soc
        self.seed = seed
        self._rng = self._make_rng(seed)
        self.latency_jitter = latency_jitter
        self.power_jitter = power_jitter

    def _make_rng(self, seed: int) -> np.random.Generator:
        """The engine's jitter stream (subclasses may seed it differently)."""
        return np.random.default_rng(seed)

    def _jittered(self, mean: float, fraction: float) -> float:
        if fraction == 0:
            return mean
        sample = mean * (1.0 + self._rng.normal(0.0, fraction))
        # Physical quantities stay positive; clamp extreme draws.
        return max(mean * 0.5, min(mean * 1.5, sample))

    def run_inference(
        self,
        model_name: str,
        accelerator: Accelerator,
        advance_clock: bool = True,
    ) -> InferenceRecord:
        """Execute one inference, charging time and energy.

        ``advance_clock=False`` measures without consuming pipeline time
        (used when characterizing in parallel with other activity).
        """
        point = perf_point(model_name, accelerator.accel_class)
        latency = self._jittered(point.latency_s, self.latency_jitter)
        power = self._jittered(point.power_w, self.power_jitter)
        started = self.soc.clock.now
        if advance_clock:
            self.soc.clock.advance(latency)
        self.soc.meter.record_draw(accelerator.power_rail, power, latency)
        return InferenceRecord(
            model_name=model_name,
            accelerator_name=accelerator.name,
            latency_s=latency,
            power_w=power,
            energy_j=latency * power,
            started_at=started,
        )

    def inference_cost(self, model_name: str, accelerator: Accelerator) -> tuple[float, float]:
        """``(latency_s, energy_j)`` of one inference, record-free.

        Identical draws, clock advance, and meter charge as
        :meth:`run_inference` — only the :class:`InferenceRecord`
        construction is skipped.  The fast run tier calls this on its
        per-frame path, where building a record object per inference is
        measurable overhead; callers that need the full record (tables,
        characterization) keep using :meth:`run_inference`.
        """
        point = perf_point(model_name, accelerator.accel_class)
        latency = self._jittered(point.latency_s, self.latency_jitter)
        power = self._jittered(point.power_w, self.power_jitter)
        self.soc.clock.advance(latency)
        self.soc.meter.charge(accelerator.power_rail, power, latency)
        return latency, latency * power

    def run_load(
        self,
        model_name: str,
        accelerator: Accelerator,
        advance_clock: bool = True,
    ) -> LoadRecord:
        """Charge the time/energy of loading a model (no residency change).

        Residency bookkeeping belongs to the dynamic model loader; the
        engine only accounts for the physical cost.
        """
        cost = load_cost(model_name, accelerator.accel_class)
        duration = self._jittered(cost.load_time_s, self.latency_jitter)
        power = self._jittered(cost.load_power_w, self.power_jitter)
        started = self.soc.clock.now
        if advance_clock:
            self.soc.clock.advance(duration)
        # Loads are host-driven: charge the CPU-side rail of the target.
        self.soc.meter.record_draw(accelerator.power_rail, power, duration)
        return LoadRecord(
            model_name=model_name,
            accelerator_name=accelerator.name,
            load_time_s=duration,
            energy_j=duration * power,
            memory_mb=cost.memory_mb,
            started_at=started,
        )

    def charge_overhead(self, rail: str, power_w: float, duration_s: float) -> None:
        """Charge a fixed overhead interval (e.g. scheduler compute time)."""
        self.soc.clock.advance(duration_s)
        self.soc.meter.charge(rail, power_w, duration_s)


# Jitter draws pre-drawn per segment by the planned engine.  Each frame
# consumes 2 draws (inference latency + power) plus 2 per cold load, so one
# segment covers ~100-250 frames of a typical run.
DRAW_SEGMENT = 512


class PlannedExecutionEngine(ExecutionEngine):
    """Plan/replay variant: jitter is pre-drawn in segment batches.

    The scalar engine pays a Python-level ``Generator.normal`` call for
    every latency and power sample — the dominant per-frame cost of the
    engine itself once the rest of the run tier is vectorized.  This
    engine *plans* the jitter stream instead: it draws
    :data:`DRAW_SEGMENT` standard normals at a time with one vectorized
    call and *replays* them one by one as inference/load operations
    arrive, whatever (model, accelerator) pair each operation targets.

    Draw order — and therefore every latency/energy sample — is exactly
    the scalar engine's:

    * NumPy fills ``standard_normal(n)`` by looping the same ziggurat
      routine a scalar draw uses, so a batched segment consumes the bit
      stream identically to ``n`` sequential scalar draws;
    * ``Generator.normal(0.0, f)`` computes ``0.0 + f * z`` from one
      standard normal ``z``, so ``f * z`` reproduces it bit-for-bit;
    * the generator itself is positioned by :mod:`repro.models.fastrng`
      (the vectorized ``SeedSequence`` replay behind the batched
      detector) exactly where ``np.random.default_rng(seed)`` starts.

    Equality with :class:`ExecutionEngine` over mixed operation sequences
    is asserted in ``tests/sim/test_engine.py``; whole-run ``RunResult``
    equality is enforced by ``repro.verify.differential``'s ``fastrun``
    check.
    """

    def _make_rng(self, seed: int) -> np.random.Generator:
        from ..models.fastrng import DrawPool, pcg64_state_words

        self._draws: list[float] = []
        self._cursor = 0
        self._pool = DrawPool()  # owns the bit generator we keep re-using
        return self._pool.generator_for(pcg64_state_words([int(seed)], count=1)[0])

    def _jittered(self, mean: float, fraction: float) -> float:
        if fraction == 0:
            return mean
        cursor = self._cursor
        if cursor >= len(self._draws):
            # Python floats, as the scalar engine's samples are: the same
            # doubles, and every record field stays a ``float``.
            self._draws = self._rng.standard_normal(DRAW_SEGMENT).tolist()
            cursor = 0
        self._cursor = cursor + 1
        sample = mean * (1.0 + fraction * self._draws[cursor])
        return max(mean * 0.5, min(mean * 1.5, sample))
