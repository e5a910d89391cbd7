"""Persistent experiment runner: the one executor of (policy, scenario) cells.

Everything that reruns policies over scenarios — the paper tables and
figures, every CLI command, the serving tiers — funnels through
:class:`ExperimentRunner`; only the differential checks call the scalar
:func:`~repro.runtime.runner.run_policy` loop directly, as the reference
the executor is compared against.  It owns the trace tier (a fingerprint-keyed
:class:`~repro.runtime.tracecache.TraceCache`, optionally backed by an on-disk
:class:`~repro.runtime.store.TraceStore`), so callers get four things for
free:

* **reuse** — a second invocation with the same store rebuilds nothing,
  and with a :class:`~repro.runtime.runstore.RunStore` attached a repeat
  sweep doesn't even *run*: persisted metrics come back keyed by (policy,
  trace, SoC, seed) fingerprints;
* **parallel trace builds** — the traces a sweep misses build together,
  fanned out per (scenario, model-chunk) on one process pool;
* **one cell executor** — :meth:`ExperimentRunner.run_key`,
  :meth:`~ExperimentRunner.cached_metrics` and
  :meth:`~ExperimentRunner.execute` are thread-safe, and every tier (the
  sweep service, queue workers, the HTTP queue backend, ``serve --procs``
  and the fault harness) resolves its cells through them, so a cell's
  run-store identity is derived in exactly one place.  Every cell runs
  in the calling process on a fresh Xavier-NX+OAK-D platform (cells in
  several processes are the queue fleet's: ``repro serve FILE --procs N``);
* **determinism** — results are bit-identical to the scalar reference
  run loop (every stochastic draw is seeded by content, never by
  scheduling; the fast run tier replays the reference engine's draw
  order exactly).
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..models.zoo import ModelZoo, default_zoo
from ..sim.soc import xavier_nx_with_oakd
from .metrics import RunMetrics, aggregate
from .runner import run_policy
from .runstore import RunKey, RunStore
from .store import TraceStore
from .tracecache import TraceCache

if TYPE_CHECKING:
    from ..core.policy import Policy
    from ..core.records import RunResult
    from ..data.scenario import Scenario
    from .trace import ScenarioTrace


@functools.cache
def _platform_fingerprint() -> str:
    """The fingerprint of the platform every cell runs on (once per process)."""
    return xavier_nx_with_oakd().fingerprint()


class ExperimentRunner:
    """Builds traces (in parallel, persistently) and sweeps policies over them.

    Parameters mirror the trace tier: ``store`` persists traces across
    processes, ``max_workers`` bounds the trace-build process pool (None
    or 1 = serial), and ``engine_seed`` seeds every run's execution
    engine.  An existing :class:`TraceCache` can be passed instead of a
    zoo to share warm traces with other components; its own store and
    worker bound then apply.
    """

    def __init__(
        self,
        zoo: ModelZoo | None = None,
        *,
        cache: TraceCache | None = None,
        store: TraceStore | None = None,
        max_workers: int | None = None,
        engine_seed: int = 1234,
        run_store: RunStore | None = None,
        fast: bool = True,
    ) -> None:
        if cache is None:
            cache = TraceCache(zoo if zoo is not None else default_zoo(), store=store,
                               max_workers=max_workers)
        else:
            if zoo is not None and zoo is not cache.zoo:
                raise ValueError("pass either a zoo or a cache built from it, not both")
            if store is not None and store is not cache.store:
                raise ValueError(
                    "pass either a store or a cache built on it, not both "
                    "(the cache's store is the one that would be used)"
                )
        self.cache = cache
        self.engine_seed = engine_seed
        # Run tier: ``fast`` selects the bit-identical fast-run engine
        # (planned jitter, cached context signals, vectorized scheduling);
        # ``run_store`` persists finished runs so repeat sweeps are
        # near-free.  ``run_store_hits``/``runs_executed`` let callers
        # verify reuse, mirroring ``cache.builds`` on the trace tier.
        self.run_store = run_store
        self.fast = fast
        self._lock = threading.Lock()  # repro: guards[run_store_hits, runs_executed]
        self.run_store_hits = 0
        self.runs_executed = 0

    @property
    def zoo(self) -> ModelZoo:
        """The model zoo traces are built against."""
        return self.cache.zoo

    # ------------------------------------------------------------ traces

    def trace(self, scenario: Scenario) -> ScenarioTrace:
        """The trace for one scenario (memory → store → build)."""
        return self.cache.get(scenario)

    def build_traces(self, scenarios: Sequence[Scenario]) -> list[ScenarioTrace]:
        """Warm the cache for every scenario, fanning builds across workers.

        Tasks are (scenario, model-chunk) detection sweeps — fine-grained
        enough to balance scenarios of very different lengths — while the
        parent renders frames.  Scenarios already in memory or on disk are
        never rebuilt (see :meth:`TraceCache.get_all`).
        """
        return self.cache.get_all(scenarios)

    # ------------------------------------------------------ cell executor

    def run_key(
        self, policy: Policy, scenario_fingerprint: str, engine_seed: int | None = None
    ) -> RunKey | None:
        """The run-store key of one (policy, scenario) cell, if cacheable.

        The one place a cell's identity is derived: policy, trace (the
        scenario fingerprint and this runner's zoo), platform, and engine
        seed (this runner's unless ``engine_seed`` overrides it — a queue
        job carries its own).  None without a run store, and for policies
        without a fingerprint: those are never cached.
        """
        if self.run_store is None:
            return None
        try:
            fingerprint = policy.fingerprint()
        except NotImplementedError:
            return None
        return RunKey(
            policy_name=policy.name,
            policy_fingerprint=fingerprint,
            scenario_fingerprint=scenario_fingerprint,
            zoo_fingerprint=self.zoo.fingerprint(),
            soc_fingerprint=_platform_fingerprint(),
            engine_seed=self.engine_seed if engine_seed is None else engine_seed,
        )

    def cached_metrics(self, key: RunKey | None) -> RunMetrics | None:
        """A persisted cell's metrics (counted as a run-store hit), or None."""
        if key is None:
            return None
        metrics = self.run_store.load_metrics(key)
        if metrics is not None:
            with self._lock:
                self.run_store_hits += 1
        return metrics

    def execute(
        self,
        policy: Policy,
        scenario: Scenario,
        key: RunKey | None = None,
        *,
        engine_seed: int | None = None,
    ) -> RunResult:
        """Run one cell that missed the run store; persist it under ``key``.

        The trace comes from the shared :class:`TraceCache` and the
        platform is fresh.  Without ``key`` nothing is written — the
        caller commits the result itself.
        """
        result = run_policy(
            policy,
            self.trace(scenario),
            engine_seed=self.engine_seed if engine_seed is None else engine_seed,
            fast=self.fast,
        )
        with self._lock:
            self.runs_executed += 1
        if key is not None:
            self.run_store.save(result, key)
        return result

    # ------------------------------------------------------------- sweeps

    def run(self, policy: Policy, scenario: Scenario) -> RunResult:
        """Run one policy over one scenario on a fresh platform.

        With a run store attached, a previously persisted run for the
        same (policy, trace, SoC, seed) key is returned without executing
        anything.
        """
        key = self.run_key(policy, scenario.fingerprint())
        if key is not None:
            cached = self.run_store.load(key)
            if cached is not None:
                with self._lock:
                    self.run_store_hits += 1
                return cached
        return self.execute(policy, scenario, key)

    def run_policy_on_scenarios(
        self, policy: Policy, scenarios: Sequence[Scenario]
    ) -> list[RunMetrics]:
        """One metrics row per scenario, traces built concurrently."""
        return self.sweep([policy], scenarios)[policy.name]

    def sweep(
        self,
        policies: Sequence[Policy],
        scenarios: Sequence[Scenario],
    ) -> dict[str, list[RunMetrics]]:
        """Every policy over every scenario: ``{policy_name: [metrics...]}``.

        Run-store hits are resolved first: a fully warm sweep returns
        persisted metrics without building, loading, or rendering a
        single trace.  Remaining misses build their traces concurrently
        (given ``max_workers``), then run one by one through
        :meth:`execute`.
        """
        pairs = [(policy, scenario) for policy in policies for scenario in scenarios]
        resolved: dict[int, RunMetrics] = {}
        misses: list[tuple[int, RunKey | None]] = []
        for index, (policy, scenario) in enumerate(pairs):
            key = self.run_key(policy, scenario.fingerprint())
            cached = self.cached_metrics(key)
            if cached is not None:
                resolved[index] = cached
            else:
                misses.append((index, key))

        if misses:
            # Only scenarios that actually miss need a trace.
            missing_scenarios: list[Scenario] = []
            seen: set[str] = set()
            for index, _ in misses:
                scenario = pairs[index][1]
                if scenario.fingerprint() not in seen:
                    seen.add(scenario.fingerprint())
                    missing_scenarios.append(scenario)
            self.build_traces(missing_scenarios)
            # The pre-resolution loop proved these are misses; reuse its
            # keys instead of re-deriving and re-querying.
            for index, key in misses:
                policy, scenario = pairs[index]
                resolved[index] = aggregate(self.execute(policy, scenario, key))

        count = len(scenarios)
        sweep_result: dict[str, list[RunMetrics]] = {}
        for p, policy in enumerate(policies):
            # Policies sharing a name concatenate their rows in policy
            # order (scenario-major within each policy) — every executed
            # run is returned, never silently dropped.
            sweep_result.setdefault(policy.name, []).extend(
                resolved[p * count + s] for s in range(count)
            )
        return sweep_result
