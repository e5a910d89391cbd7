"""The trace cache: the one way a scenario trace is acquired.

:class:`TraceCache` serves a trace from memory, then from an on-disk
:class:`~repro.runtime.store.TraceStore`, and builds it only when both
miss.  The builder (:mod:`repro.runtime.trace`: renderer, detectors,
worker pool) is imported only to load or build a trace, so a process
that needs none because every run is a run-store hit never loads it.
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Iterator, Sequence
from concurrent.futures import Future
from typing import TYPE_CHECKING

from .colfmt import ColumnFormatError

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
    one result.  Every trace is published whole — outcomes decoded,
    frames rendered — because every caller runs a policy over it next,
    so concurrent runs never race to decode or render.  ``max_size``
    bounds the memo (materialized frames dominate a long-lived service's
    footprint): the oldest completed traces are dropped, and reload from
    the store on next use, *before* an acquisition would take the memo
    past it — so a cache of one (a queue worker's) never holds two
    traces while the next one loads or builds.  ``None`` keeps
    everything.
    """

    def __init__(
        self,
        zoo: ModelZoo,
        store: TraceStore | None = None,
        max_workers: int | None = None,
        *,
        max_size: int | None = None,
    ) -> None:
        if max_size is not None and max_size < 1:
            raise ValueError("max_size must be at least 1 (or None for unbounded)")
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
        (trace,) = self.get_all([scenario])
        return trace

    def get_all(self, scenarios: Sequence[Scenario]) -> list[ScenarioTrace]:
        """Every scenario's trace, in order; the missing ones built in one fan-out.

        Scenarios in memory or in the store are never rebuilt.  The rest
        build together: serially, or — given ``max_workers`` and enough
        volume — as (scenario, model-chunk) tasks on one process pool while
        this thread renders frames (see :func:`~repro.runtime.trace._pool_build`).
        """
        fingerprints = [scenario.fingerprint() for scenario in scenarios]
        asked = set(fingerprints)
        futures: dict[str, Future] = {}
        owned: dict[str, tuple[Scenario, Future]] = {}
        with self._lock:
            for fingerprint, scenario in zip(fingerprints, scenarios, strict=True):
                if fingerprint in futures:
                    continue
                future = self._traces.get(fingerprint)
                if future is None:
                    # Make room first: a dropped trace is freed before
                    # this one is loaded or built.
                    if self.max_size is not None:
                        self._evict_locked(self.max_size - 1, keep=asked)
                    future = self._traces[fingerprint] = Future()
                    owned[fingerprint] = (scenario, future)
                futures[fingerprint] = future
        if owned:
            self._acquire(owned)
        return [futures[fingerprint].result() for fingerprint in fingerprints]

    def _acquire(self, owned: dict[str, tuple[Scenario, Future]]) -> None:
        """Load or build every owned scenario and publish it to its waiters."""
        try:
            missing: list[str] = []
            for fingerprint, (scenario, future) in owned.items():
                trace = self._load(scenario)
                if trace is None:
                    missing.append(fingerprint)
                else:
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

    def _load(self, scenario: Scenario) -> ScenarioTrace | None:
        """The stored trace for ``scenario``, made whole, or None on a miss.

        The store loads a trace lazily; its outcomes decode here, before
        anyone can see it.  An entry that does not decode is quarantined
        by the store, so it is a miss like any other, built by the caller
        and not counted as a store hit.
        """
        trace = self.store.load(scenario, self.zoo) if self.store is not None else None
        if trace is None:
            return None
        try:
            _ = trace.outcomes
        except ColumnFormatError:
            return None
        with self._lock:
            self.store_hits += 1
        _ = trace.frames  # render once, before any consumer
        return trace

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
        if self.max_size is not None:
            with self._lock:
                self._evict_locked(self.max_size, keep=(fingerprint,))

    def _evict_locked(self, limit: int, keep: Collection[str]) -> None:
        """Drop traces until the memo holds at most ``limit``.

        Oldest *completed* entries not in ``keep`` go first (insertion
        order); entries still being acquired are never dropped, so the
        memo can run over while acquisitions are in flight.  Results are
        unaffected either way — traces are pure functions of their
        scenario.
        """
        while len(self._traces) > limit:
            victim = next(
                (key for key, future in self._traces.items()
                 if key not in keep and future.done()),
                None,
            )
            if victim is None:
                break  # everything else is still being acquired or asked for
            del self._traces[victim]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
