"""Offline ODM characterization (paper §III-A).

Collects the five traits the paper enumerates for every model:

(i)   accuracy — IoU against ground truth over a validation dataset,
(ii)  confidence scores — paired with accuracy per image (the raw material
      of the confidence graph),
(iii) latency — measured per accelerator class by repeated execution,
(iv)  energy — time x power over the same executions,
(v)   model loading cost — memory footprint, load time, load energy.

The profiler is the only place that runs every model on every sample; the
runtime never does (that is the point of SHIFT).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..sim.profiles import AcceleratorClass, LoadCost, load_cost

# The detectors and the engine load when a profile runs: a process that
# only reads a stored bundle never imports them.
if TYPE_CHECKING:
    from ..data.dataset import Sample
    from ..models.detector import DetectionOutcome
    from ..models.zoo import ModelZoo
    from ..sim.soc import SoC

DEFAULT_PERF_REPEATS = 25


@dataclass(frozen=True)
class AccuracyTrait:
    """Dataset-level accuracy of one model."""

    model_name: str
    mean_iou: float
    success_rate: float
    mean_confidence: float
    sample_count: int


@dataclass(frozen=True)
class PerformanceTrait:
    """Measured latency/power/energy of one (model, accelerator class)."""

    model_name: str
    accel_class: AcceleratorClass
    mean_latency_s: float
    mean_power_w: float
    mean_energy_j: float
    repeats: int


@dataclass(frozen=True)
class ConfidenceObservation:
    """Per-image confidence/IoU readings across all models (one CG edge set)."""

    sample_index: int
    difficulty: float
    readings: dict[str, tuple[float, float]]  # model -> (confidence, iou)


@dataclass
class CharacterizationBundle:
    """Everything the SHIFT runtime needs from the offline phase."""

    accuracy: dict[str, AccuracyTrait] = field(default_factory=dict)
    performance: dict[tuple[str, AcceleratorClass], PerformanceTrait] = field(default_factory=dict)
    load_costs: dict[tuple[str, AcceleratorClass], LoadCost] = field(default_factory=dict)
    observations: list[ConfidenceObservation] = field(default_factory=list)

    def model_names(self) -> list[str]:
        """Models covered by the bundle."""
        return list(self.accuracy)

    def fingerprint(self) -> str:
        """Content-addressed identity of the bundle (hex digest, cached).

        Hashes every trait table and the full observation list — the
        inputs the SHIFT pipeline derives its scheduler priors and
        confidence graph from — so run-store entries keyed through a
        policy fingerprint go stale the moment characterization changes.
        The digest is cached on first use; treat the bundle as frozen
        once it has been fingerprinted.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        for name in sorted(self.accuracy):
            digest.update(repr(self.accuracy[name]).encode("utf-8"))
        for key in sorted(self.performance, key=lambda k: (k[0], k[1].value)):
            digest.update(repr(self.performance[key]).encode("utf-8"))
        for key in sorted(self.load_costs, key=lambda k: (k[0], k[1].value)):
            digest.update(repr(self.load_costs[key]).encode("utf-8"))
        for obs in self.observations:
            digest.update(
                f"{obs.sample_index}|{obs.difficulty!r}|{sorted(obs.readings.items())!r}".encode(
                    "utf-8"
                )
            )
        value = digest.hexdigest()
        self._fingerprint = value
        return value


def profile_accuracy(
    zoo: ModelZoo, samples: list[Sample]
) -> tuple[dict[str, AccuracyTrait], list[ConfidenceObservation]]:
    """Run every model over the validation set; collect traits (i)+(ii).

    Samples without a ground-truth box still contribute confidence readings
    (a model may false-positive on them) but are excluded from the IoU and
    success-rate averages, matching standard evaluation practice.
    """
    from ..models.detector import SceneBatch, detect, detect_batch

    if not samples:
        raise ValueError("profile_accuracy needs at least one sample")
    traits: dict[str, AccuracyTrait] = {}
    per_model_scores: dict[str, list[tuple[float, float]]] = {s.name: [] for s in zoo}
    observations: list[ConfidenceObservation] = []

    # The validation set shares one RNG stream seed across samples (the
    # frame index varies), which is exactly the batched kernel's contract;
    # heterogeneous seeds (hand-built samples) fall back to scalar detect.
    stream_seeds = {sample.context_id[0] for sample in samples}
    outcome_rows: dict[str, list[DetectionOutcome]]
    if len(stream_seeds) == 1:
        batch = SceneBatch(
            [sample.scene for sample in samples],
            stream_seeds.pop(),
            frame_indices=[sample.context_id[1] for sample in samples],
        )
        outcome_rows = {spec.name: detect_batch(spec, batch) for spec in zoo}
    else:
        outcome_rows = {
            spec.name: [detect(spec, sample.scene, sample.context_id) for sample in samples]
            for spec in zoo
        }

    for row, sample in enumerate(samples):
        readings: dict[str, tuple[float, float]] = {}
        for spec in zoo:
            outcome = outcome_rows[spec.name][row]
            readings[spec.name] = (outcome.confidence, outcome.iou)
            if sample.ground_truth is not None:
                per_model_scores[spec.name].append((outcome.iou, outcome.confidence))
        observations.append(
            ConfidenceObservation(
                sample_index=sample.index,
                difficulty=sample.difficulty,
                readings=readings,
            )
        )

    for name, scores in per_model_scores.items():
        if not scores:
            raise ValueError("validation set has no frames with ground truth")
        ious = np.array([s[0] for s in scores])
        confs = np.array([s[1] for s in scores])
        traits[name] = AccuracyTrait(
            model_name=name,
            mean_iou=float(ious.mean()),
            success_rate=float((ious >= 0.5).mean()),
            mean_confidence=float(confs.mean()),
            sample_count=len(scores),
        )
    return traits, observations


def profile_performance(
    zoo: ModelZoo,
    soc: SoC,
    repeats: int = DEFAULT_PERF_REPEATS,
    seed: int = 515,
) -> dict[tuple[str, AcceleratorClass], PerformanceTrait]:
    """Measure latency/power per (model, accelerator class) — traits (iii)+(iv).

    Runs ``repeats`` inferences on a throwaway engine per supported pair and
    averages, mimicking how the paper characterizes on real hardware.  One
    accelerator per class is exercised (units of a class share silicon).
    """
    from ..sim.engine import ExecutionEngine

    if repeats <= 0:
        raise ValueError("repeats must be positive")
    engine = ExecutionEngine(soc, seed=seed)
    results: dict[tuple[str, AcceleratorClass], PerformanceTrait] = {}
    seen_classes: dict[AcceleratorClass, str] = {}
    for accel in soc.accelerators:
        seen_classes.setdefault(accel.accel_class, accel.name)

    for spec in zoo:
        for accel_class, accel_name in seen_classes.items():
            accel = soc.accelerator(accel_name)
            if not accel.supports(spec.name):
                continue
            latencies, powers = [], []
            for _ in range(repeats):
                record = engine.run_inference(spec.name, accel, advance_clock=False)
                latencies.append(record.latency_s)
                powers.append(record.power_w)
            mean_latency = float(np.mean(latencies))
            mean_power = float(np.mean(powers))
            results[(spec.name, accel_class)] = PerformanceTrait(
                model_name=spec.name,
                accel_class=accel_class,
                mean_latency_s=mean_latency,
                mean_power_w=mean_power,
                mean_energy_j=mean_latency * mean_power,
                repeats=repeats,
            )
    return results


def profile_load_costs(
    zoo: ModelZoo, soc: SoC
) -> dict[tuple[str, AcceleratorClass], LoadCost]:
    """Model loading costs per supported pair — trait (v)."""
    costs: dict[tuple[str, AcceleratorClass], LoadCost] = {}
    # The SoC's accelerator order, as in profile_performance: a set would
    # order the bundle's load costs by string hash, i.e. by PYTHONHASHSEED.
    classes = dict.fromkeys(accel.accel_class for accel in soc.accelerators)
    for spec in zoo:
        for accel_class in classes:
            try:
                costs[(spec.name, accel_class)] = load_cost(spec.name, accel_class)
            except KeyError:
                continue
    return costs
