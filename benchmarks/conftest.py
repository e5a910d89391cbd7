"""Shared fixtures for the benchmark harness.

All benches share one :class:`~repro.experiments.ExperimentContext` so the
characterization bundle and scenario traces are built once per session.
``REPRO_BENCH_SCALE`` (default 1.0 = paper-scale scenarios) and
``REPRO_BENCH_VALIDATION`` (default 800 samples) trade fidelity for speed;
``REPRO_BENCH_WORKERS`` (default serial) fans trace building across worker
processes, and ``REPRO_BENCH_TRACE_STORE`` (default ``benchmarks/out/traces``,
empty string to disable) persists traces so a second benchmark invocation
rebuilds nothing.

Each bench prints the regenerated table and writes it to
``benchmarks/out/<name>.txt`` so results survive the run, plus a
machine-readable ``benchmarks/out/BENCH_<name>.json`` twin (schema below).
The paper's tables, figures, headline and ablations are deterministic:
they are tracked, and a run rewrites them byte for byte.  The timing
benches (those that report ``metrics``) write under the untracked
``benchmarks/out/run/`` instead, since their numbers differ on every run;
recorded end-to-end numbers come from ``perfbench/run.py``.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time
from contextlib import contextmanager

import pytest

from repro.experiments import ExperimentContext

# Schema of the BENCH_<name>.json artifacts: bump when the layout changes.
BENCH_SCHEMA_VERSION = 1

# Rounds per hand-timed bench path; each path reports its best round —
# the standard defense against scheduler/steal noise on shared boxes.
BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))


@contextmanager
def _timed_region():
    """Level the field for wall-clock timing: collect, then pause the GC.

    The shared benchmark session carries a large live heap (bundle, graph,
    warm traces); letting collection cycles land inside one timed run but
    not another skews ratios between identical code paths.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="session")
def best_of():
    """``best_of(fn)``: best wall-clock over BENCH_ROUNDS GC-quiet runs.

    Returns ``(seconds, last_result)`` — for hand-timed benches that
    compare wall-clock between code paths (pytest-benchmark covers the
    statistical single-function case).
    """

    def _best_of(build, rounds: int = BENCH_ROUNDS):
        best = float("inf")
        result = None
        for _ in range(rounds):
            with _timed_region():
                t0 = time.perf_counter()
                result = build()
                best = min(best, time.perf_counter() - t0)
        return best, result

    _best_of.rounds = BENCH_ROUNDS
    return _best_of


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    validation = int(os.environ.get("REPRO_BENCH_VALIDATION", "800"))
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None
    default_store = str(pathlib.Path(__file__).parent / "out" / "traces")
    store = os.environ.get("REPRO_BENCH_TRACE_STORE", default_store) or None
    context = ExperimentContext(
        scale=scale, validation_size=validation,
        trace_store=store, max_workers=workers,
    )
    # Warm the shared artifacts so individual benches time their own work,
    # not the common setup.
    context.bundle
    context.graph
    return context


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    out = pathlib.Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    return out


@pytest.fixture(scope="session")
def report(artifact_dir):
    """Callable that prints a rendered table and persists it to disk.

    Every report writes two artifacts: the human-readable
    ``<name>.txt`` table and a machine-readable ``BENCH_<name>.json``
    with the same text plus any structured ``metrics`` the bench passes
    (timings, throughputs, speedups).  A report with ``metrics`` is a
    timing run and lands in ``out/run/``; the rest land in ``out/``.
    """

    def _report(name: str, text: str, metrics: dict | None = None) -> None:
        out = artifact_dir if metrics is None else artifact_dir / "run"
        out.mkdir(exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        payload = {
            "bench": name,
            "schema_version": BENCH_SCHEMA_VERSION,
            "metrics": metrics or {},
            "text": text.splitlines(),
        }
        (out / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print("\n" + text)

    return _report
