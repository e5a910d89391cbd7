"""Shared plumbing: program processes, statistics, run bookkeeping, metadata."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for stores, queues, and span dumps; listed in .gitignore.
#: A run deletes nothing here until it ends: on a filesystem mounted with
#: online discard, freeing blocks mid-run stalls the next op's metadata I/O.
WORK_ROOT = ROOT / ".perfbench"

#: Every child process the program runs in is given this much time.
CHILD_TIMEOUT_S = 150.0

#: A fixed CPU workload (NumPy, JSON, bytecode) that no program change
#: touches.  Shared VMs run CPU-bound work in speed phases about 1.5x apart
#: that last longer than a run, moving a run's medians by 20-30%; the
#: probe's median, taken between the same ops, moves with them.
PROBE = r"""
import json, random
import numpy as np
rng = np.random.default_rng(7)
a = rng.random(200_000)
for _ in range(60):
    a = np.sort(np.sqrt(a * 1.0001 + 0.5) - np.log1p(a))
r = random.Random(7)
d = [{"k%d" % i: r.random(), "v": [r.randint(0, 99) for _ in range(8)]} for i in range(6000)]
for _ in range(6):
    d = json.loads(json.dumps(d))
s = 0
for i in range(400_000):
    s += i % 7
"""
#: The probe's median at the reference host speed.  CPU-bound medians are
#: reported as seconds at that speed: median x PROBE_REFERENCE_S / probe median.
PROBE_REFERENCE_S = 0.6


def probe() -> float:
    """One probe run, spawn to exit, in seconds."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROBE], env=env, stdout=subprocess.DEVNULL,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def program_env(**extra: str) -> dict[str, str]:
    """The environment a user gets running the program from a checkout."""
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1", **extra}


def program_argv(args: list[str], traced: bool) -> list[str]:
    """``python -m repro ARGS``, or the same through the tracing launcher."""
    if traced:
        return [sys.executable, str(BENCH_DIR / "launch.py"), *args]
    return [sys.executable, "-m", "repro", *args]


@dataclass
class Exit:
    """One finished program process, timed from spawn to exit."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float


def wait_rusage(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float]:
    """Reap ``proc`` with ``wait4``: (exit code, peak RSS in MB).

    ``wait4`` blocks in the kernel, so the caller's timer stops when the
    process exits, not at the next poll.  A watchdog kills a process
    still alive after ``timeout``; it then reports a signal exit code.
    """
    # os.kill, not proc.kill: Popen would reap the process first and leave
    # nothing for wait4 to report.
    watchdog = threading.Timer(timeout, signal_child, (proc.pid, signal.SIGKILL))
    watchdog.daemon = True
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def signal_child(pid: int, signum: int) -> None:
    """Signal a child that may already have exited (it stays a zombie until reaped)."""
    with contextlib.suppress(ProcessLookupError):  # reaped already: nothing to stop
        os.kill(pid, signum)


def run_program(args: list[str], workdir: Path, *, traced: bool = False,
                env: dict[str, str] | None = None) -> Exit:
    """Run one program process to completion; stdout/stderr go to files."""
    out_path = workdir / "child.out"
    err_path = workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(program_argv(args, traced), cwd=ROOT,
                                env=env or program_env(), stdout=out, stderr=err)
        code, rss = wait_rusage(proc)
        wall = time.perf_counter() - start
    return Exit(wall, code, out_path.read_text("utf-8", "replace"),
                err_path.read_text("utf-8", "replace"), rss)


# -------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or None when there are too few
    samples for any percentile from 75 up.
    """
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        beyond = len(ordered) - math.ceil(len(ordered) * pct / 100)
        if beyond >= 10:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            return pct, cut
    return None


# ------------------------------------------------------------- bookkeeping


@dataclass
class Run:
    """One benchmark invocation: inputs, samples, failures, layer rows.

    In a traced run ``ops`` holds the traced op walls and ``untraced``
    the interleaved untraced ones (for the tracing overhead).
    """

    workload: str
    seed: int
    seconds: float
    traced: bool
    workdir: Path
    setup: list[float] = field(default_factory=list)
    ops: dict[str, list[float]] = field(default_factory=dict)
    untraced: dict[str, list[float]] = field(default_factory=dict)
    layer_rows: dict[str, list[dict[str, float]]] = field(default_factory=dict)
    rss_mb: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> bool:
        """Record a failed correctness condition; True when it held."""
        if not condition:
            self.failures.append(message)
        return condition

    def finish_op(self, ok: bool) -> None:
        """Count one attempted op (and its failure)."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def sample(self, kind: str, wall: float, *, traced: bool) -> None:
        bucket = self.untraced if self.traced and not traced else self.ops
        bucket.setdefault(kind, []).append(wall)

    def time_left(self, started: float) -> bool:
        return time.perf_counter() - started < self.seconds

    def speed_probe(self) -> None:
        """Sample the host's speed between ops (untraced runs only)."""
        if not self.traced:
            self.probes.append(probe())

    def host_scale(self) -> float:
        """Factor that puts this run's CPU-bound times at the reference speed."""
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def quiesce() -> None:
    """Between ops, outside every timer: collect garbage now, not mid-op."""
    gc.collect()


def float_equal(a: float, b: float) -> bool:
    """Bit equality that also treats two NaNs as equal."""
    both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return both_nan or a == b


def metrics_equal(got, want) -> bool:
    """Field-for-field equality of two RunMetrics, NaN-aware."""
    return all(float_equal(getattr(got, f.name), getattr(want, f.name)) for f in fields(want))


# ----------------------------------------------------------------- metadata


def source_digest() -> str:
    """Content digest of the program and the benchmark sources."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """The checkout's commit, or "none" outside a git work tree."""
    # The ceiling keeps git from reading any repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False, env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment() -> dict[str, str]:
    import numpy

    return {
        "git_sha": git_sha(),
        "source": source_digest(),
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": ",".join(f"{x:.2f}" for x in os.getloadavg()),
    }
