"""The trace cache: the one way a scenario trace is acquired.

:class:`TraceCache` serves a trace from memory, then from an on-disk
:class:`~repro.runtime.store.TraceStore`, and builds it only when both
miss.  The builder (:mod:`repro.runtime.trace`: renderer, detectors,
worker pool) is imported on the first miss, so a process whose traces
all come from memory or the store, or that needs none because every run
is a run-store hit, never loads it.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence
from concurrent.futures import Future
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..data.scenario import Scenario
    from ..models.zoo import ModelZoo
    from .store import TraceStore
    from .trace import ScenarioTrace


class TraceCache:
    """The one trace acquisition path: memory, then store, then build.

    Keys are :meth:`~repro.data.scenario.Scenario.fingerprint` digests —
    two scenarios that merely share a name and frame count never collide.
    An optional :class:`~repro.runtime.store.TraceStore` adds an on-disk
    tier: misses load from disk before building, and fresh builds persist
    for the next process.  ``builds`` counts actual (expensive) builds and
    ``store_hits`` counts traces loaded from the store, so callers can
    verify reuse.

    The cache is safe to share between threads.  Acquisition is
    single-flight: the first caller to miss a scenario loads or builds
    it, and every concurrent caller for the same scenario waits for that
    one result.  :meth:`get` renders frames before it publishes a trace,
    so concurrent runs never race to render.  ``max_size`` bounds the memo
    (materialized frames dominate a long-lived service's footprint):
    past it the oldest completed traces are dropped and reload from the
    store on next use; ``0`` keeps nothing beyond the acquisitions in
    flight, ``None`` keeps everything.
    """

    def __init__(
        self,
        zoo: ModelZoo,
        store: TraceStore | None = None,
        max_workers: int | None = None,
        *,
        max_size: int | None = None,
    ) -> None:
        if max_size is not None and max_size < 0:
            raise ValueError("max_size must be non-negative (or None for unbounded)")
        self.zoo = zoo
        self.store = store
        self.max_workers = max_workers
        self.max_size = max_size
        self._lock = threading.Lock()  # repro: guards[_traces, builds, store_hits]
        self._traces: dict[str, Future] = {}
        self.builds = 0
        self.store_hits = 0

    def get(self, scenario: Scenario) -> ScenarioTrace:
        """Return the trace for ``scenario``: memory, then disk, then build."""
        (trace,) = self._get([scenario], render=True)
        return trace

    def get_all(self, scenarios: Sequence[Scenario]) -> list[ScenarioTrace]:
        """Every scenario's trace, in order; the missing ones built in one fan-out.

        Scenarios in memory or in the store are never rebuilt, and traces
        loaded from the store stay lazy (a warm-up whose runs happen in
        other processes never renders).  The rest build together:
        serially, or — given ``max_workers`` and enough volume — as
        (scenario, model-chunk) tasks on one process pool while this
        thread renders frames (see :func:`~repro.runtime.trace._pool_build`).
        """
        return self._get(scenarios, render=False)

    def _get(self, scenarios: Sequence[Scenario], render: bool) -> list[ScenarioTrace]:
        fingerprints = [scenario.fingerprint() for scenario in scenarios]
        futures: dict[str, Future] = {}
        owned: dict[str, tuple[Scenario, Future]] = {}
        with self._lock:
            for fingerprint, scenario in zip(fingerprints, scenarios, strict=True):
                if fingerprint in futures:
                    continue
                future = self._traces.get(fingerprint)
                if future is None:
                    future = self._traces[fingerprint] = Future()
                    owned[fingerprint] = (scenario, future)
                futures[fingerprint] = future
        if owned:
            self._acquire(owned, render)
        return [futures[fingerprint].result() for fingerprint in fingerprints]

    def _acquire(self, owned: dict[str, tuple[Scenario, Future]], render: bool) -> None:
        """Load or build every owned scenario and publish it to its waiters."""
        try:
            missing: list[str] = []
            for fingerprint, (scenario, future) in owned.items():
                trace = self.store.load(scenario, self.zoo) if self.store is not None else None
                if trace is None:
                    missing.append(fingerprint)
                    continue
                with self._lock:
                    self.store_hits += 1
                if render:
                    _ = trace.frames  # render once, before any consumer
                self._publish(fingerprint, future, trace)
            built = self._build([owned[fingerprint][0] for fingerprint in missing]) if missing else ()
            for fingerprint, trace in zip(missing, built, strict=True):
                with self._lock:
                    self.builds += 1
                if self.store is not None:
                    self.store.save(trace, self.zoo)
                self._publish(fingerprint, owned[fingerprint][1], trace)
        except BaseException as exc:
            # Fail every waiter, and forget the unfinished entries so a
            # later call retries instead of inheriting this failure.
            unfinished = [(fp, future) for fp, (_, future) in owned.items() if not future.done()]
            with self._lock:
                for fingerprint, future in unfinished:
                    if self._traces.get(fingerprint) is future:
                        del self._traces[fingerprint]
            for _, future in unfinished:
                future.set_exception(exc)
            raise

    def _build(self, scenarios: list[Scenario]) -> Iterator[ScenarioTrace]:
        """Fresh traces for ``scenarios``, in order, fanned out when it pays.

        The same guards as :meth:`ScenarioTrace.build`; tasks can span
        scenarios, so the granularity cap is models x scenarios.
        """
        from . import trace

        models = len(self.zoo)
        workers = trace._effective_workers(
            self.max_workers,
            models * len(scenarios),
            models * sum(scenario.total_frames for scenario in scenarios),
        )
        if workers > 1 and len(scenarios) > 1:
            return trace._pool_build(scenarios, self.zoo, workers)
        return (
            trace.ScenarioTrace.build(scenario, self.zoo, max_workers=self.max_workers)
            for scenario in scenarios
        )

    def _publish(self, fingerprint: str, future: Future, trace: ScenarioTrace) -> None:
        future.set_result(trace)
        with self._lock:
            self._evict_locked(keep=fingerprint)

    def _evict_locked(self, keep: str) -> None:
        """Hold the memo to ``max_size``; ``keep`` is the trace just published.

        Oldest *completed* entries other than ``keep`` go first
        (insertion order); entries still being acquired are never
        dropped.  Results are unaffected either way — traces are pure
        functions of their scenario.
        """
        if self.max_size is None:
            return
        if self.max_size == 0:
            self._traces.pop(keep, None)
            return
        while len(self._traces) > self.max_size:
            victim = next(
                (key for key, future in self._traces.items()
                 if key != keep and future.done()),
                None,
            )
            if victim is None:
                break  # everything else is still being acquired
            del self._traces[victim]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
