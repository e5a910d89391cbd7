"""Shared fixtures for the benchmark harness.

All benches share one :class:`~repro.experiments.ExperimentContext` so the
characterization bundle and scenario traces are built once per session.
``REPRO_BENCH_SCALE`` (default 1.0 = paper-scale scenarios) and
``REPRO_BENCH_VALIDATION`` (default 800 samples) trade fidelity for speed;
``REPRO_BENCH_WORKERS`` (default serial) fans trace building across worker
processes, and ``REPRO_BENCH_TRACE_STORE`` (default ``benchmarks/out/traces``,
empty string to disable) persists traces so a second benchmark invocation
rebuilds nothing.

Each bench prints the regenerated table and writes it to the untracked
``benchmarks/out/run/<name>.txt``, plus a machine-readable
``BENCH_<name>.json`` twin (schema below).  The paper's tables, figures,
headline and ablations are deterministic, so their pairs are also
tracked as golden files under ``benchmarks/out/``: at the default scale
and validation size a bench fails when its regenerated pair differs from
the tracked one, naming the bench and the first differing line, and a
deliberate update is a copy from ``out/run/``.  Other knob values only
write ``out/run/``.  The timing benches (those that report ``metrics``)
are never compared, since their numbers differ on every run; recorded
end-to-end numbers come from ``perfbench/run.py``.
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

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
VALIDATION = int(os.environ.get("REPRO_BENCH_VALIDATION", "800"))
# The tracked artifacts were generated at these knob values.
GOLDEN = SCALE == 1.0 and VALIDATION == 800


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
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0")) or None
    default_store = str(pathlib.Path(__file__).parent / "out" / "traces")
    store = os.environ.get("REPRO_BENCH_TRACE_STORE", default_store) or None
    context = ExperimentContext(
        scale=SCALE, validation_size=VALIDATION,
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


def _first_difference(golden: pathlib.Path, regenerated: str) -> str | None:
    """Where ``regenerated`` first departs from the tracked ``golden`` file, or None."""
    if not golden.exists():
        return "is not tracked"
    tracked = golden.read_text(encoding="utf-8")
    if tracked == regenerated:
        return None
    old, new = tracked.splitlines(), regenerated.splitlines()
    line = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
                min(len(old), len(new)))
    have = old[line] if line < len(old) else "<end of file>"
    got = new[line] if line < len(new) else "<end of file>"
    return f"differs at line {line + 1}: tracked {have!r}, regenerated {got!r}"


@pytest.fixture(scope="session")
def report(artifact_dir):
    """Callable that prints a rendered table, persists it, and checks it.

    Every report writes two artifacts under ``out/run/``: the
    human-readable ``<name>.txt`` table and a machine-readable
    ``BENCH_<name>.json`` with the same text plus any structured
    ``metrics`` the bench passes (timings, throughputs, speedups).  A
    report without ``metrics`` is deterministic: at the default knobs it
    must equal the tracked pair under ``out/``, or the bench fails.
    """

    def _report(name: str, text: str, metrics: dict | None = None) -> None:
        payload = {
            "bench": name,
            "schema_version": BENCH_SCHEMA_VERSION,
            "metrics": metrics or {},
            "text": text.splitlines(),
        }
        artifacts = {
            f"{name}.txt": text + "\n",
            f"BENCH_{name}.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        }
        run_dir = artifact_dir / "run"
        run_dir.mkdir(exist_ok=True)
        for file_name, content in artifacts.items():
            (run_dir / file_name).write_text(content, encoding="utf-8")
        print("\n" + text)
        if metrics is not None or not GOLDEN:
            return
        for file_name, content in artifacts.items():
            problem = _first_difference(artifact_dir / file_name, content)
            if problem is not None:
                pytest.fail(
                    f"bench {name}: benchmarks/out/{file_name} {problem}; the regenerated "
                    f"file is benchmarks/out/run/{file_name} (copy it over the tracked one "
                    f"if the change is deliberate)"
                )

    return _report
