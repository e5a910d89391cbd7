"""The plain-dict form of characterization bundles.

The offline phase (running every model over the validation set, profiling
every accelerator) is the expensive part of deploying SHIFT; on the
paper's testbed it is hours of measurement.  A deployment characterizes
once and ships the bundle with the runtime.  This module maps a
:class:`~repro.characterization.profiler.CharacterizationBundle` to a
JSON-compatible dict and back, with a schema version so stale bundles
fail loudly.  Files are written and read above this layer, through the
I/O seam (:func:`repro.runtime.bundlestore.save_bundle` /
:func:`~repro.runtime.bundlestore.load_bundle`).
"""

from __future__ import annotations

from ..sim.profiles import AcceleratorClass, LoadCost
from .profiler import (
    AccuracyTrait,
    CharacterizationBundle,
    ConfidenceObservation,
    PerformanceTrait,
)

SCHEMA_VERSION = 1


class BundleSchemaError(ValueError):
    """Raised when a serialized bundle cannot be understood."""


def bundle_to_dict(bundle: CharacterizationBundle) -> dict:
    """Plain-dict form of a bundle (JSON-compatible)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "accuracy": {
            name: {
                "mean_iou": trait.mean_iou,
                "success_rate": trait.success_rate,
                "mean_confidence": trait.mean_confidence,
                "sample_count": trait.sample_count,
            }
            for name, trait in bundle.accuracy.items()
        },
        "performance": [
            {
                "model": model,
                "accel_class": accel_class.value,
                "mean_latency_s": trait.mean_latency_s,
                "mean_power_w": trait.mean_power_w,
                "mean_energy_j": trait.mean_energy_j,
                "repeats": trait.repeats,
            }
            for (model, accel_class), trait in bundle.performance.items()
        ],
        "load_costs": [
            {
                "model": model,
                "accel_class": accel_class.value,
                "memory_mb": cost.memory_mb,
                "load_time_s": cost.load_time_s,
                "load_power_w": cost.load_power_w,
            }
            for (model, accel_class), cost in bundle.load_costs.items()
        ],
        "observations": [
            {
                "sample_index": obs.sample_index,
                "difficulty": obs.difficulty,
                "readings": {
                    model: [confidence, iou]
                    for model, (confidence, iou) in obs.readings.items()
                },
            }
            for obs in bundle.observations
        ],
    }


def bundle_from_dict(payload: dict) -> CharacterizationBundle:
    """Rebuild a bundle from its dict form; validates the schema version."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise BundleSchemaError(
            f"unsupported bundle schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    try:
        accuracy = {
            name: AccuracyTrait(
                model_name=name,
                mean_iou=entry["mean_iou"],
                success_rate=entry["success_rate"],
                mean_confidence=entry["mean_confidence"],
                sample_count=entry["sample_count"],
            )
            for name, entry in payload["accuracy"].items()
        }
        performance = {}
        for entry in payload["performance"]:
            accel_class = AcceleratorClass(entry["accel_class"])
            performance[(entry["model"], accel_class)] = PerformanceTrait(
                model_name=entry["model"],
                accel_class=accel_class,
                mean_latency_s=entry["mean_latency_s"],
                mean_power_w=entry["mean_power_w"],
                mean_energy_j=entry["mean_energy_j"],
                repeats=entry["repeats"],
            )
        load_costs = {}
        for entry in payload["load_costs"]:
            accel_class = AcceleratorClass(entry["accel_class"])
            load_costs[(entry["model"], accel_class)] = LoadCost(
                memory_mb=entry["memory_mb"],
                load_time_s=entry["load_time_s"],
                load_power_w=entry["load_power_w"],
            )
        observations = [
            ConfidenceObservation(
                sample_index=entry["sample_index"],
                difficulty=entry["difficulty"],
                readings={
                    model: (reading[0], reading[1])
                    for model, reading in entry["readings"].items()
                },
            )
            for entry in payload["observations"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleSchemaError(f"malformed bundle payload: {exc}") from exc
    return CharacterizationBundle(
        accuracy=accuracy,
        performance=performance,
        load_costs=load_costs,
        observations=observations,
    )
