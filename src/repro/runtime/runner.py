"""The scalar run loop: one policy over one traced scenario."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.soc import SoC, xavier_nx_with_oakd
from ..core.policy import Policy, RuntimeServices
from ..core.records import RunResult

if TYPE_CHECKING:
    from .trace import ScenarioTrace


def run_policy(
    policy: Policy,
    trace: ScenarioTrace,
    soc: SoC | None = None,
    engine_seed: int = 1234,
    fast: bool = False,
) -> RunResult:
    """Run one policy over one traced scenario on a fresh platform.

    A new (or reset) SoC guarantees run isolation: no residual model
    residency, energy, or virtual time leaks between policies.

    ``fast=True`` selects the fast-run tier: the engine plans its jitter
    stream in segment batches (:class:`PlannedExecutionEngine`) and
    fast-aware policies serve context signals from trace-level caches and
    vectorized scheduling.  Records are bit-identical to the default
    (reference) path — ``repro.verify.differential``'s ``fastrun`` check
    proves it per scenario.
    """
    # The engine loads with the first run: a process whose cells are all
    # run-store hits never imports it.
    from ..sim.engine import ExecutionEngine, PlannedExecutionEngine

    if soc is None:
        soc = xavier_nx_with_oakd()
    soc.reset()
    engine_cls = PlannedExecutionEngine if fast else ExecutionEngine
    engine = engine_cls(soc, seed=engine_seed)
    services = RuntimeServices(trace=trace, soc=soc, engine=engine, fast=fast)
    policy.begin(services)
    result = RunResult(policy_name=policy.name, scenario_name=trace.scenario.name)
    for frame in trace.frames:
        result.records.append(policy.step(frame))
    return result
