"""One-call characterization: dataset -> CharacterizationBundle."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .profiler import (
    CharacterizationBundle,
    profile_accuracy,
    profile_load_costs,
    profile_performance,
)

if TYPE_CHECKING:
    from ..data.dataset import Sample
    from ..models.zoo import ModelZoo
    from ..sim.soc import SoC


def characterize(
    zoo: ModelZoo,
    soc: SoC,
    samples: list[Sample] | None = None,
    validation_size: int = 800,
    validation_seed: int = 7151,
    perf_repeats: int = 25,
) -> CharacterizationBundle:
    """Run the full offline characterization of §III-A.

    When ``samples`` is omitted a synthetic validation set is generated
    (the stand-in for the paper's 2,500-image validation split).
    """
    if samples is None:
        from ..data.dataset import build_validation_set

        samples = build_validation_set(size=validation_size, seed=validation_seed)
    accuracy, observations = profile_accuracy(zoo, samples)
    performance = profile_performance(zoo, soc, repeats=perf_repeats)
    load_costs = profile_load_costs(zoo, soc)
    return CharacterizationBundle(
        accuracy=accuracy,
        performance=performance,
        load_costs=load_costs,
        observations=observations,
    )
