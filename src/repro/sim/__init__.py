"""Hardware substrate: the simulated Xavier NX + OAK-D platform."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "accelerator": ("Accelerator",),
    "clock": ("VirtualClock",),
    "engine": ("ExecutionEngine", "PlannedExecutionEngine", "InferenceRecord", "LoadRecord"),
    "memory": ("MemoryPool", "OutOfMemoryError"),
    "power": ("EnergyMeter", "EnergySample"),
    "profiles": (
        "AcceleratorClass", "PerfPoint", "LoadCost", "perf_point", "has_profile", "load_cost",
        "paper_model_names", "supported_classes", "register_profile", "IDLE_POWER_W",
    ),
    "soc": ("SoC", "xavier_nx_with_oakd", "gpu_only_soc"),
})
