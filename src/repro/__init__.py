"""SHIFT: context-aware multi-model object detection for heterogeneous SoCs.

A full reproduction of Davis & Belviranli, *"Context-aware Multi-Model
Object Detection for Diversely Heterogeneous Compute Systems"* (DATE 2024),
including the simulated substrates (heterogeneous SoC, object-detection
model zoo, drone-video scenarios) the paper's testbed provided in hardware.

Quickstart::

    from repro import (
        default_zoo, xavier_nx_with_oakd, characterize,
        ShiftPipeline, ExperimentRunner, TraceStore,
        evaluation_scenarios, average_metrics,
    )

    zoo = default_zoo()
    soc = xavier_nx_with_oakd()
    bundle = characterize(zoo, soc)           # offline phase (paper SIII-A)
    shift = ShiftPipeline(bundle)             # the runtime (SIII-B/C)

    # Traces build in parallel and persist under ./traces — a second
    # invocation of this script rebuilds nothing.
    runner = ExperimentRunner(zoo, store=TraceStore("traces"), max_workers=4)
    metrics = runner.run_policy_on_scenarios(shift, evaluation_scenarios())
    print(average_metrics(metrics, "shift").mean_iou)

For a single scenario, ``trace = runner.trace(scenario_by_name(...))`` and
``aggregate(run_policy(shift, trace, soc=soc))`` mirror the paper's
one-policy-one-video runs.

Every public name is imported on first access (PEP 562), so ``import
repro`` — and ``python -m repro``, whose commands each import only what
they run — does not load the service, verification, or analysis tiers.
"""

from .util.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "baselines": (
        "MarlinPolicy", "OracleObjective", "OraclePolicy", "SingleModelPolicy",
        "oracle_accuracy", "oracle_energy", "oracle_latency",
    ),
    "characterization": ("CharacterizationBundle", "characterize"),
    "core": (
        "PAPER_CONFIG", "ConfidenceGraph", "ContextDetector", "DynamicModelLoader",
        "ShiftConfig", "ShiftPipeline", "ShiftScheduler", "TraitTable",
    ),
    "data": (
        "Scenario", "ScenarioMatrix", "ScenarioRecipe", "Segment", "SegmentFamily",
        "all_scenarios", "build_validation_set", "default_matrix", "evaluation_scenarios",
        "extended_scenarios", "register_scenario", "render_scenario", "scenario_by_name",
        "scenario_names",
    ),
    "models": ("ModelSpec", "ModelZoo", "default_zoo", "detect"),
    "runtime": (
        "ExperimentRunner", "FrameRecord", "Policy", "RunMetrics", "RunResult",
        "ScenarioTrace", "TraceCache", "TraceStore", "aggregate", "average_metrics",
        "run_policy",
    ),
    "service": ("SweepHandle", "SweepRequest", "SweepService"),
    "sim": ("AcceleratorClass", "ExecutionEngine", "SoC", "gpu_only_soc", "xavier_nx_with_oakd"),
    "verify": ("FuzzReport", "fuzz_matrix", "fuzz_scenarios", "verify_scenario"),
    "vision": ("BoundingBox", "iou"),
})
__all__.insert(0, "__version__")
