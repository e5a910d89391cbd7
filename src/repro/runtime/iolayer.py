"""The injectable I/O seam every durable write and entry read routes through.

The sweep tier survives killed workers and clock skew; this module makes
it survive the *filesystem*.  Three ideas:

**One seam.**  Every durable write in the ``runtime``, ``service`` and
``characterization`` packages — store entries, queue records, exported
metrics, characterization bundle files — goes through
:func:`write_text` / :func:`write_bytes` / :func:`replace` here, the
only temp-file + ``os.replace`` writer in ``repro``.  The
``locks/raw-write`` and ``locks/io-seam`` lint rules make that
structural: those packages may not open files for writing themselves,
nor reach for an atomic helper that bypasses the seam.  Directory scans
used by maintenance sweeps route through :func:`scan`, and entry *reads*
through :func:`read_text` / :func:`read_bytes` for the same reason: a
transient ``EIO`` on read would otherwise be indistinguishable from
corruption, so a recoverable fault could quarantine (destroy) a
perfectly valid entry.  All six entry points run their attempts through
one retry loop (:func:`_with_retry`) with one seeded, jittered backoff.

**Deterministic filesystem faults.**  An :class:`FsFaultPlan` — a seeded
schedule of ENOSPC / EIO / lost-rename / partial-write / slow-io events
keyed by ``(operation, operation index)`` — can be armed process-wide
(:func:`arm_fault_plan`, or the :func:`fault_plan` context manager).
Each hook point (``write``, ``replace``, ``scan``, ``read``) ticks a
per-op counter and consults the plan, so a fault harness can replay the
exact same disk failure schedule run after run.  The ``fsfaults``
differential check builds on this.

**Graceful degradation.**  Transient capacity errors (ENOSPC, EDQUOT,
EIO) are retried a bounded number of times.  A write or rename that runs
out of retries marks its *root* (store / queue directory) degraded and
raises a typed :exc:`StoreDegraded` instead of a bare ``OSError``; a
read or scan that runs out re-raises its ``OSError``, which callers
treat as *unavailable* (a miss), never as *corrupt* (a quarantine).
While a root is degraded, each write makes exactly one attempt (a
probe-on-write), so recovery is automatic the moment space returns —
the first write that lands clears the flag.  :func:`probe` offers an
explicit recovery attempt for callers (the job queue) that want to
check *before* spending a lease.  Reads are never blocked: a degraded
store keeps serving warm hits and reports misses as capacity failures
instead of crashing.
"""

from __future__ import annotations

import errno
import fnmatch
import mmap
import os
import random
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TypeVar

#: Hook points a fault event can target.
FS_OPS = ("write", "replace", "scan", "read")

#: Injectable failure kinds.
FS_FAULT_KINDS = ("enospc", "eio", "lost_rename", "partial_write", "slow_io")

#: errnos treated as transient capacity pressure: retried, then degraded.
TRANSIENT_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT, errno.EIO})

#: Bounded-retry policy for transient errors (tests may shrink these).
RETRY_ATTEMPTS = 3
RETRY_BASE = 0.005
RETRY_CAP = 0.05

#: Temp-file name used by :func:`probe`; swept like any other ``*.tmp*``.
PROBE_NAME = ".iolayer-probe"

#: Ops whose exhausted retries degrade the root; reads and scans re-raise.
_DEGRADING_OPS = frozenset({"write", "replace"})

_T = TypeVar("_T")


class StoreError(Exception):
    """Base class for typed persistence-tier failures."""


class StoreDegraded(StoreError):
    """A root ran out of capacity: retries exhausted, now read-only.

    Carries the degraded ``root`` and the ``op`` that failed so service
    layers can map it to capacity responses (HTTP 507 / 503) instead of
    treating it as an internal error.
    """

    def __init__(self, root: str | Path, op: str, cause: str) -> None:
        self.root = str(root)
        self.op = op
        self.cause = cause
        super().__init__(
            f"store {self.root} degraded: {op} failed after bounded retries ({cause})"
        )


# --------------------------------------------------------------- fault plans


@dataclass(frozen=True)
class FsFaultEvent:
    """One scheduled filesystem fault.

    Fires for the ``count`` consecutive operations of kind ``op`` whose
    zero-based per-op index (counted since the plan was armed) falls in
    ``[index, index + count)``.  ``match``, when set, restricts the event
    to files whose *name* matches the glob — and the index then counts
    only matching operations, so a plan can say "tear the 3rd run-entry
    write" regardless of how many index/queue writes interleave.
    ``param`` is kind-specific: the kept fraction of the payload for
    ``partial_write``, the sleep seconds for ``slow_io``; unused
    otherwise.
    """

    op: str
    index: int
    kind: str
    count: int = 1
    param: float | None = None
    match: str | None = None

    def __post_init__(self) -> None:
        if self.op not in FS_OPS:
            raise ValueError(f"unknown fault op {self.op!r}")
        if self.kind not in FS_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "lost_rename" and self.op != "replace":
            raise ValueError("lost_rename only applies to the replace op")
        if self.kind == "partial_write" and self.op != "write":
            raise ValueError("partial_write only applies to the write op")
        if self.index < 0 or self.count < 1:
            raise ValueError("event needs index >= 0 and count >= 1")

    def covers(self, index: int) -> bool:
        return self.index <= index < self.index + self.count


@dataclass(frozen=True)
class FsFaultPlan:
    """A deterministic schedule of filesystem faults."""

    events: tuple[FsFaultEvent, ...]


class _ArmedPlan:
    """An armed plan plus its per-``(op, match)`` operation counters."""

    def __init__(self, plan: FsFaultPlan) -> None:
        self.plan = plan
        self.counters: dict[tuple[str, str], int] = {}
        self.fired = 0


# ------------------------------------------------------------- shared state

# One guard for all module state; enforced by `repro lint`.
_STATE_LOCK = threading.Lock()  # repro: guards[_DEGRADED, _IO_ERRORS, _ARMED]
_DEGRADED: dict[str, str] = {}
_IO_ERRORS: dict[str, int] = {}
_ARMED: _ArmedPlan | None = None


def _root_key(path: Path, root: str | Path | None) -> str:
    return str(Path(root)) if root is not None else str(path.parent)


def is_degraded(root: str | Path) -> bool:
    """True while ``root`` is in degraded (read-only) mode."""
    key = str(Path(root))
    with _STATE_LOCK:
        return key in _DEGRADED


def degraded_reason(root: str | Path) -> str | None:
    """Why ``root`` degraded, or None when healthy."""
    key = str(Path(root))
    with _STATE_LOCK:
        return _DEGRADED.get(key)


def mark_degraded(root: str | Path, reason: str) -> None:
    """Flip ``root`` into degraded mode (first reason wins)."""
    key = str(Path(root))
    with _STATE_LOCK:
        _DEGRADED.setdefault(key, reason)


def clear_degraded(root: str | Path) -> None:
    """Return ``root`` to normal writes (a write or probe succeeded)."""
    key = str(Path(root))
    with _STATE_LOCK:
        _DEGRADED.pop(key, None)


def record_io_error(root: str | Path, count: int = 1) -> None:
    """Count ``count`` I/O errors observed under ``root``."""
    key = str(Path(root))
    with _STATE_LOCK:
        _IO_ERRORS[key] = _IO_ERRORS.get(key, 0) + count


def io_error_count(root: str | Path) -> int:
    """I/O errors observed under ``root`` in this process."""
    key = str(Path(root))
    with _STATE_LOCK:
        return _IO_ERRORS.get(key, 0)


def reset_state(root: str | Path | None = None) -> None:
    """Forget degraded flags and error counts (test isolation)."""
    with _STATE_LOCK:
        if root is None:
            _DEGRADED.clear()
            _IO_ERRORS.clear()
        else:
            key = str(Path(root))
            _DEGRADED.pop(key, None)
            _IO_ERRORS.pop(key, None)


# ----------------------------------------------------------------- arming


def arm_fault_plan(plan: FsFaultPlan) -> None:
    """Arm ``plan`` process-wide (op counters start at zero)."""
    global _ARMED
    with _STATE_LOCK:
        _ARMED = _ArmedPlan(plan)


def disarm_fault_plan() -> int:
    """Disarm any armed plan; how many events fired while armed."""
    global _ARMED
    with _STATE_LOCK:
        fired = _ARMED.fired if _ARMED is not None else 0
        _ARMED = None
    return fired


@contextmanager
def fault_plan(plan: FsFaultPlan) -> Iterator[None]:
    """Arm ``plan`` for the duration of the block."""
    arm_fault_plan(plan)
    try:
        yield
    finally:
        disarm_fault_plan()


def _consume_fault(op: str, path: Path) -> FsFaultEvent | None:
    """Tick the matching ``op`` counters and return the covering event, if any.

    Each distinct ``(op, match)`` key among the plan's events keeps its
    own counter, ticked once per operation whose file name matches — an
    unmatched glob never consumes an index, so targeted events fire on
    exactly the Nth *relevant* operation.
    """
    with _STATE_LOCK:
        armed = _ARMED
        if armed is None:
            return None
        name = path.name
        hit: FsFaultEvent | None = None
        ticked: set[str] = set()
        for event in armed.plan.events:
            if event.op != op:
                continue
            match = event.match or "*"
            if match not in ticked:
                if event.match is not None and not fnmatch.fnmatch(name, event.match):
                    continue
                ticked.add(match)
                key = (op, match)
                armed.counters[key] = armed.counters.get(key, 0) + 1
            index = armed.counters[(op, match)] - 1
            if event.covers(index):
                armed.fired += 1
                hit = event
                break
        return hit


def _maybe_fault(op: str, path: Path) -> FsFaultEvent | None:
    """Fire any scheduled fault at this hook point.

    Raises the injected ``OSError`` for ``enospc``/``eio``, sleeps for
    ``slow_io``, and returns the event for kinds the caller must act out
    itself (``lost_rename``, ``partial_write``).
    """
    event = _consume_fault(op, path)
    if event is None:
        return None
    if event.kind == "slow_io":
        time.sleep(event.param if event.param is not None else 0.02)
        return None
    if event.kind == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC ({op})", str(path))
    if event.kind == "eio":
        raise OSError(errno.EIO, f"injected EIO ({op})", str(path))
    return event


# ------------------------------------------------------------------ the seam


def temp_name(name: str) -> str:
    """A writer-unique temp name (pid + thread: threads share a pid).

    Uniqueness keeps concurrent writers of the same target from clobbering
    each other's temp files; the ``.tmp`` infix is what stale-temp sweeps
    (:func:`repro.runtime.shards.clean_stale_temps`) key on.
    """
    return f"{name}.tmp{os.getpid()}.{threading.get_ident()}"


def _is_transient(exc: OSError) -> bool:
    return exc.errno in TRANSIENT_ERRNOS


def _with_retry(
    op: str, path: Path, root: str | Path | None, attempt: Callable[[], _T]
) -> _T:
    """The one retry loop behind every entry point of the seam.

    ``attempt`` makes one try at ``op`` (``write``, ``read``, ``replace``
    or ``scan``) on ``path``; callers look their per-attempt function up
    inside it, so a wrapper installed on this module (perfbench counts
    ``_write_once``/``_read_once`` calls) sees every attempt.
    Non-transient errors pass straight through (a ``FileNotFoundError``
    is the caller's miss signal, not an I/O fault).  Each transient one
    is counted in ``io_errors`` and retried, up to ``RETRY_ATTEMPTS``
    attempts, after a capped exponential backoff with seeded jitter; the
    RNG is built only when a retry happens.  A write to a degraded root
    makes one probing attempt, which clears the flag when it lands.  Out
    of attempts, a write or replace degrades the root and raises
    :exc:`StoreDegraded`; a read or scan re-raises its ``OSError``.
    """
    key = _root_key(path, root)
    probing = op == "write" and is_degraded(key)
    attempts = 1 if probing else RETRY_ATTEMPTS
    rng: random.Random | None = None
    for number in range(attempts):
        try:
            result = attempt()
        except OSError as exc:
            if not _is_transient(exc):
                raise
            record_io_error(key)
            if number + 1 < attempts:
                if rng is None:
                    rng = random.Random(f"{op}|{key}|{path.name}")
                delay = min(RETRY_CAP, RETRY_BASE * (2**number))
                time.sleep(delay * (0.5 + 0.5 * rng.random()))
                continue
            if op not in _DEGRADING_OPS:
                raise
            mark_degraded(key, f"{op} {path.name}: {exc}")
            raise StoreDegraded(key, op, str(exc)) from exc
        if probing:
            clear_degraded(key)
        return result
    raise AssertionError("unreachable: the retry loop returns or raises")


def _write_once(path: Path, data: str | bytes) -> Path:
    """One crash-safe write attempt: temp + replace, with fault hooks.

    ``data`` may be text (JSON entries) or bytes (binary column entries);
    both share the same temp+replace discipline and fault hooks.
    """
    tmp = path.parent / temp_name(path.name)
    binary = isinstance(data, (bytes, bytearray, memoryview))
    try:
        event = _maybe_fault("write", path)
        payload = data
        if event is not None and event.kind == "partial_write":
            keep = event.param if event.param is not None else 0.5
            payload = data[: int(len(data) * keep)]
        # The raw open/replace pair lives HERE and nowhere else in the
        # persistence tiers; everything above routes through this seam.
        mode, encoding = ("wb", None) if binary else ("w", "utf-8")
        with open(tmp, mode, encoding=encoding) as handle:  # repro: allow[locks/raw-write]
            handle.write(payload)
        event = _maybe_fault("replace", path)
        if event is not None and event.kind == "lost_rename":
            tmp.unlink(missing_ok=True)
            return path
        os.replace(tmp, path)  # repro: allow[locks/raw-write]
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_text(path: str | Path, text: str, *, root: str | Path | None = None) -> Path:
    """Crash-safe text write through the seam; the durable-write entry point.

    ``root`` names the store/queue directory whose health this write
    belongs to (defaults to the file's parent).  Transient capacity
    errors are retried ``RETRY_ATTEMPTS`` times with seeded backoff; on
    exhaustion the root degrades and :exc:`StoreDegraded` is raised.
    While degraded, each write makes a single attempt — success clears
    the flag (space returned), failure re-raises :exc:`StoreDegraded`
    without burning retries.
    """
    path = Path(path)
    return _with_retry("write", path, root, lambda: _write_once(path, text))


def write_bytes(path: str | Path, data: bytes, *, root: str | Path | None = None) -> Path:
    """Crash-safe binary write through the seam (column-format entries).

    Same retry/degrade/fault discipline as :func:`write_text`; the
    ``partial_write`` fault kind truncates the byte payload the same way
    it truncates text, so torn binary entries are injectable too.
    """
    path = Path(path)
    return _with_retry("write", path, root, lambda: _write_once(path, data))


def _read_once(path: Path, *, binary: bool, count: int | None = None, use_mmap: bool = False):
    """One read attempt with the ``read`` fault hook applied."""
    _maybe_fault("read", path)
    if not binary:
        return path.read_text(encoding="utf-8")
    with open(path, "rb") as handle:
        if use_mmap:
            try:
                size = os.fstat(handle.fileno()).st_size
                if size == 0:
                    return b""
                return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                # mmap unavailable (odd filesystem): fall back to a copy.
                handle.seek(0)
                return handle.read()
        return handle.read() if count is None else handle.read(count)


def read_text(path: str | Path, *, root: str | Path | None = None) -> str:
    """Entry read through the seam: bounded retries, ``io_errors`` accounting.

    The read-side twin of :func:`write_text`.  Store load paths call this
    instead of ``Path.read_text`` so a transient ``EIO``/``EDQUOT`` on
    read surfaces as an ``OSError`` (a miss) after retries — it can never
    masquerade as a parse failure and quarantine a valid entry.  Reads
    never degrade a root, and a degraded root keeps serving them.
    """
    path = Path(path)
    return _with_retry("read", path, root, lambda: _read_once(path, binary=False))


def read_bytes(
    path: str | Path,
    *,
    root: str | Path | None = None,
    count: int | None = None,
    map: bool = False,
):
    """Binary entry read through the seam.

    ``count`` reads only the first N bytes (how :func:`repro.runtime.colfmt`
    probes a column file's JSON header without touching its payload);
    ``map=True`` returns a read-only ``mmap`` of the whole file so columns
    decode straight from it, without a copy of the file (falling back to a
    plain ``bytes`` read where mapping is unsupported).
    """
    path = Path(path)
    return _with_retry("read", path, root, lambda: _read_once(
        path, binary=True, count=count, use_mmap=map))


def _replace_once(src: Path, dst: Path) -> None:
    event = _maybe_fault("replace", dst)
    if event is not None and event.kind == "lost_rename":
        return  # src stays where it was, as a lost write keeps the old file
    os.replace(src, dst)  # repro: allow[locks/raw-write]


def replace(src: str | Path, dst: str | Path, *, root: str | Path | None = None) -> None:
    """Atomic same-filesystem rename through the seam.

    Quarantine moves and the job queue's state renames use it.  A rename
    allocates no data blocks, so quarantine moves work even under
    ENOSPC, and it keeps its full retry budget on a degraded root; the
    fault hooks still apply (a plan can lose or fail the rename), and
    exhausted retries degrade the root like a write.
    """
    src = Path(src)
    dst = Path(dst)
    _with_retry("replace", dst, root, lambda: _replace_once(src, dst))


def _scan_once(directory: Path, pattern: str) -> list[Path]:
    _maybe_fault("scan", directory)
    return sorted(directory.glob(pattern))


def scan(directory: str | Path, pattern: str, *, root: str | Path | None = None) -> list[Path]:
    """Sorted directory listing through the seam (fault-injectable reads).

    Transient errors are retried like a read's; on exhaustion the
    ``OSError`` is re-raised (scans are reads — they never degrade a
    root, callers skip or surface the miss themselves).
    """
    directory = Path(directory)
    return _with_retry("scan", directory, root, lambda: _scan_once(directory, pattern))


def open_lock_file(lock_path: str | Path):
    """The raw handle ``fcntl`` latches onto.

    Not a data write — the lock file carries no payload, only an inode —
    so it bypasses the temp+replace discipline by design.
    """
    return open(lock_path, "a+", encoding="utf-8")  # noqa: SIM115  # repro: allow[locks/raw-write]


def probe(root: str | Path) -> bool:
    """One explicit recovery attempt for a degraded root.

    Writes and removes a small probe file through the fault hooks.  True
    when the root is healthy (or just recovered — success clears the
    degraded flag); False when capacity is still exhausted.  The job
    queue calls this before claiming so leases are never burned against
    a store that cannot commit results.
    """
    root = Path(root)
    if not is_degraded(root):
        return True
    tmp = root / PROBE_NAME
    try:
        _write_once(tmp, "probe")
        tmp.unlink(missing_ok=True)
    except OSError:
        return False
    clear_degraded(root)
    return True
