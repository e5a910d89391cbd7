"""Persistent, parallel experiment runner.

Everything that reruns policies over scenarios — the paper tables and
figures, the CLI, the benchmark harness — funnels through
:class:`ExperimentRunner`.  It owns the trace tier (a fingerprint-keyed
:class:`~repro.runtime.trace.TraceCache`, optionally backed by an on-disk
:class:`~repro.runtime.store.TraceStore`) and the process pool, so callers
get three things for free:

* **reuse** — a second invocation with the same store rebuilds nothing,
  and with a :class:`~repro.runtime.runstore.RunStore` attached a repeat
  sweep doesn't even *run*: persisted metrics come back keyed by (policy,
  trace, SoC, seed) fingerprints;
* **parallelism** — trace builds fan out per (scenario, model-chunk), and
  sweeps can run whole (policy, scenario) pairs in worker processes;
* **one cell executor** — :meth:`ExperimentRunner.run_key`,
  :meth:`~ExperimentRunner.cached_metrics` and
  :meth:`~ExperimentRunner.execute` are thread-safe (given a SoC
  factory: concurrent runs cannot share one platform), and every tier (the
  sweep service, queue workers, the HTTP queue backend, ``serve --procs``
  and the fault harness) resolves its cells through them, so a cell's
  run-store identity is derived in exactly one place;
* **determinism** — results are bit-identical to the serial path and to
  the scalar reference run loop (every stochastic draw is seeded by
  content, never by scheduling; the fast run tier replays the reference
  engine's draw order exactly).

A sweep's platform comes from ``soc``: a zero-argument factory (fresh SoC
per run — required for parallel runs, which execute in other processes) or
a single :class:`~repro.sim.soc.SoC` instance reset before each run.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Sequence

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..sim.soc import SoC, xavier_nx_with_oakd
from .metrics import RunMetrics, aggregate
from ..core.policy import Policy
from ..core.records import RunResult
from .runner import run_policy
from .runstore import RunKey, RunStore
from .store import TraceStore
from .trace import ScenarioTrace, TraceCache

SocLike = SoC | Callable[[], SoC] | None


# The executor of a ``parallel_runs`` worker process (set by
# _start_pair_worker): its trace cache keeps every trace the process
# loads, so several pairs over one scenario load and render it once.
_PAIR_RUNNER: ExperimentRunner | None = None


def _start_pair_worker(
    zoo: ModelZoo,
    store_root: str,
    engine_seed: int,
    soc_factory: Callable[[], SoC] | None,
    fast: bool,
    run_store_root: str | None,
) -> None:
    global _PAIR_RUNNER
    _PAIR_RUNNER = ExperimentRunner(
        zoo,
        store=TraceStore(store_root),
        engine_seed=engine_seed,
        soc=soc_factory,
        run_store=RunStore(run_store_root) if run_store_root is not None else None,
        fast=fast,
    )


def _run_pair_in_worker(policy: Policy, scenario: Scenario, key: RunKey | None) -> RunMetrics:
    """Run one (policy, scenario) pair in a worker process.

    The trace comes from the shared store (guaranteed warm — the parent
    builds all traces before dispatching pairs), so workers never repeat
    the zoo sweep; module-level for picklability.  The parent resolves
    run-store *hits* and derives each miss's key before dispatching; with
    a key each worker persists its finished run (atomic writes make
    concurrent workers safe).
    """
    return aggregate(_PAIR_RUNNER.execute(policy, scenario, key))


class ExperimentRunner:
    """Builds traces (in parallel, persistently) and sweeps policies over them.

    Parameters mirror the trace tier: ``store`` persists traces across
    processes, ``max_workers`` bounds the process pool (None or 1 = serial),
    ``engine_seed`` seeds every run's execution engine, and ``soc`` supplies
    the platform (factory or instance; default is a fresh Xavier-NX+OAK-D
    per run).  An existing :class:`TraceCache` can be passed instead of a
    zoo to share warm traces with other components.
    """

    def __init__(
        self,
        zoo: ModelZoo | None = None,
        *,
        cache: TraceCache | None = None,
        store: TraceStore | None = None,
        max_workers: int | None = None,
        engine_seed: int = 1234,
        soc: SocLike = None,
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
        self.max_workers = max_workers if max_workers is not None else cache.max_workers
        self.engine_seed = engine_seed
        self.soc = soc
        # Run tier: ``fast`` selects the bit-identical fast-run engine
        # (planned jitter, cached context signals, vectorized scheduling);
        # ``run_store`` persists finished runs so repeat sweeps are
        # near-free.  ``run_store_hits``/``runs_executed`` let callers
        # verify reuse, mirroring ``cache.builds`` on the trace tier.
        self.run_store = run_store
        self.fast = fast
        self._lock = threading.Lock()  # repro: guards[run_store_hits, runs_executed, _soc_fp]
        self.run_store_hits = 0
        self.runs_executed = 0
        self._soc_fp: str | None = None

    @property
    def zoo(self) -> ModelZoo:
        """The model zoo traces are built against."""
        return self.cache.zoo

    @property
    def store(self) -> TraceStore | None:
        """The on-disk trace tier, if any."""
        return self.cache.store

    def _fresh_soc(self) -> SoC | None:
        if callable(self.soc):
            return self.soc()
        return self.soc  # an instance (reset by run_policy) or None

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

    def _soc_fingerprint(self) -> str:
        """The platform fingerprint runs are keyed by (computed once).

        A SoC factory is assumed to be deterministic in *configuration*
        (every call builds an equally shaped platform) — the factory
        contract parallel runs already rely on.
        """
        with self._lock:
            if self._soc_fp is None:
                if callable(self.soc):
                    self._soc_fp = self.soc().fingerprint()
                elif self.soc is not None:
                    self._soc_fp = self.soc.fingerprint()
                else:
                    self._soc_fp = xavier_nx_with_oakd().fingerprint()
            return self._soc_fp

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
            soc_fingerprint=self._soc_fingerprint(),
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
        platform is fresh (or reset).  Without ``key`` nothing is written
        — the caller commits the result itself.
        """
        result = run_policy(
            policy,
            self.trace(scenario),
            soc=self._fresh_soc(),
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
        """Run one policy over one scenario on a fresh/reset platform.

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
        parallel_runs: bool = False,
    ) -> dict[str, list[RunMetrics]]:
        """Every policy over every scenario: ``{policy_name: [metrics...]}``.

        Run-store hits are resolved first: a fully warm sweep returns
        persisted metrics without building, loading, or rendering a
        single trace.  Remaining misses build their traces concurrently
        (given ``max_workers``) and run on the fast tier.  With
        ``parallel_runs=True`` the missing (policy, scenario) runs also
        fan out — this requires an on-disk trace store (workers reload
        traces from it) and picklable policies, and produces metrics
        identical to the serial path.  Note: run workers re-render frames
        from the scenario script, so scenarios whose backgrounds were
        registered at runtime need a fork start method (the default on
        Linux) for the registration to be visible in workers.
        """
        workers = self.max_workers or 1
        if parallel_runs and workers > 1:
            # Validate before building: trace construction is the expensive
            # part, and a usage error after it would throw that work away.
            if self.store is None:
                raise ValueError("parallel_runs requires a TraceStore-backed runner")
            if self.soc is not None and not callable(self.soc):
                raise ValueError("parallel_runs requires a SoC factory, not an instance")

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

            if parallel_runs and workers > 1:
                run_store_root = (
                    str(self.run_store.root) if self.run_store is not None else None
                )
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_start_pair_worker,
                    initargs=(self.zoo, str(self.store.root), self.engine_seed, self.soc,
                              self.fast, run_store_root),
                ) as pool:
                    futures = {
                        index: pool.submit(_run_pair_in_worker, *pairs[index], key)
                        for index, key in misses
                    }
                    for index, future in futures.items():
                        resolved[index] = future.result()
                        with self._lock:
                            self.runs_executed += 1
            else:
                # The pre-resolution loop proved these are misses; reuse
                # its keys instead of re-deriving and re-querying.
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
