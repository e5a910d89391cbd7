"""The injectable I/O seam every store, queue, and export write routes through.

PR 7/8 made the sweep tier survive killed workers and clock skew; this
module makes it survive the *filesystem*.  Three ideas:

**One seam.**  Every durable write in the persistence tier — store
entries, shard indexes, queue records, exported metrics — goes through
:func:`write_text` / :func:`write_bytes` / :func:`replace` here instead
of calling :mod:`repro.util.atomicio` (or ``os.replace``) directly.  The
``locks/io-seam`` lint rule makes that structural: store-tier modules
may not open files for writing themselves.
Directory scans used by maintenance sweeps route through :func:`scan`,
and — since PR 10 — entry *reads* route through :func:`read_text` /
:func:`read_bytes` for the same reason: a transient ``EIO`` on read used
to be indistinguishable from corruption, so a recoverable fault could
quarantine (destroy) a perfectly valid entry.  Behind the seam, reads
retry transient errnos with seeded backoff and re-raise the ``OSError``
on exhaustion; callers treat that as *unavailable* (a miss), never as
*corrupt* (a quarantine).

**Deterministic filesystem faults.**  An :class:`FsFaultPlan` — a seeded
schedule of ENOSPC / EIO / lost-rename / partial-write / slow-io events
keyed by ``(operation, operation index)`` — can be armed process-wide
(:func:`arm_fault_plan`, or the :func:`fault_plan` context manager).
Each hook point (``write``, ``fsync``, ``replace``, ``scan``, ``read``)
ticks a per-op counter and consults the plan, so a fault harness can
replay the exact same disk failure schedule run after run.  The
``fsfaults`` differential check builds on this.

**Graceful degradation.**  Transient capacity errors (ENOSPC, EDQUOT,
EIO) are retried a bounded number of times with seeded backoff; on
exhaustion the *root* (store / queue directory) is marked degraded and a
typed :exc:`StoreDegraded` is raised instead of a bare ``OSError``.
While degraded, writes make exactly one attempt each (a probe-on-write),
so recovery is automatic the moment space returns — the first write that
succeeds clears the flag.  :func:`probe` offers an explicit recovery
attempt for callers (the job queue) that want to check *before* spending
a lease.  Reads are never blocked: a degraded store keeps serving warm
hits and reports misses as capacity failures instead of crashing.
"""

from __future__ import annotations

import errno
import fnmatch
import mmap
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator

from ..util.atomicio import temp_name

#: Hook points a fault event can target.
FS_OPS = ("write", "fsync", "replace", "scan", "read")

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


def _is_transient(exc: OSError) -> bool:
    return exc.errno in TRANSIENT_ERRNOS


def _write_once(path: Path, data: str | bytes, key: str) -> Path:
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
        # store tier; everything above routes through this seam.
        mode, encoding = ("wb", None) if binary else ("w", "utf-8")
        with open(tmp, mode, encoding=encoding) as handle:  # repro: allow[locks/raw-write]
            handle.write(payload)
            # Hook point only: the stores are rename-durable by design
            # (a torn final file is impossible; a lost recent write is
            # recomputable), so no real fsync is issued on the hot path.
            _maybe_fault("fsync", path)
        event = _maybe_fault("replace", path)
        if event is not None and event.kind == "lost_rename":
            tmp.unlink(missing_ok=True)
            return path
        os.replace(tmp, path)  # repro: allow[locks/raw-write]
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_with_retry(path: Path, data: str | bytes, root: str | Path | None) -> Path:
    """The shared retry/degrade discipline behind every durable write."""
    key = _root_key(path, root)
    if is_degraded(key):
        try:
            result = _write_once(path, data, key)
        except OSError as exc:
            if _is_transient(exc):
                record_io_error(key)
                raise StoreDegraded(key, "write", str(exc)) from exc
            raise
        clear_degraded(key)
        return result
    rng = random.Random(f"{key}|{path.name}")
    for attempt in range(RETRY_ATTEMPTS):
        try:
            return _write_once(path, data, key)
        except OSError as exc:
            if not _is_transient(exc):
                raise
            record_io_error(key)
            if attempt + 1 >= RETRY_ATTEMPTS:
                mark_degraded(key, f"write {path.name}: {exc}")
                raise StoreDegraded(key, "write", str(exc)) from exc
            delay = min(RETRY_CAP, RETRY_BASE * (2**attempt))
            time.sleep(delay * (0.5 + 0.5 * rng.random()))
    raise AssertionError("unreachable: retry loop returns or raises")


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
    return _write_with_retry(Path(path), text, root)


def write_bytes(path: str | Path, data: bytes, *, root: str | Path | None = None) -> Path:
    """Crash-safe binary write through the seam (column-format entries).

    Same retry/degrade/fault discipline as :func:`write_text`; the
    ``partial_write`` fault kind truncates the byte payload the same way
    it truncates text, so torn binary entries are injectable too.
    """
    return _write_with_retry(Path(path), data, root)


def _read_once(path: Path, *, binary: bool, count: int | None, use_mmap: bool):
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


def _read_with_retry(
    path: Path, root: str | Path | None, *, binary: bool, count: int | None = None,
    use_mmap: bool = False,
):
    """Bounded-retry read discipline shared by :func:`read_text` / :func:`read_bytes`.

    Reads never degrade a root and a degraded root keeps serving reads
    (single attempt — no point burning the retry budget while capacity is
    known-bad).  A ``FileNotFoundError`` passes straight through (it is
    the caller's miss signal, not an I/O fault); transient errnos are
    retried with seeded backoff, counted in ``io_errors``, and the last
    ``OSError`` is re-raised on exhaustion so callers can treat the entry
    as *unavailable* — never as corrupt.
    """
    key = _root_key(path, root)
    if is_degraded(key):
        try:
            return _read_once(path, binary=binary, count=count, use_mmap=use_mmap)
        except OSError as exc:
            if _is_transient(exc):
                record_io_error(key)
            raise
    rng = random.Random(f"read|{key}|{path.name}")
    last: OSError | None = None
    for attempt in range(RETRY_ATTEMPTS):
        try:
            return _read_once(path, binary=binary, count=count, use_mmap=use_mmap)
        except OSError as exc:
            if not _is_transient(exc):
                raise
            record_io_error(key)
            last = exc
            if attempt + 1 < RETRY_ATTEMPTS:
                delay = min(RETRY_CAP, RETRY_BASE * (2**attempt))
                time.sleep(delay * (0.5 + 0.5 * rng.random()))
    raise last  # type: ignore[misc]  # loop always sets it before falling through


def read_text(path: str | Path, *, root: str | Path | None = None) -> str:
    """Entry read through the seam: bounded retries, ``io_errors`` accounting.

    The read-side twin of :func:`write_text`.  Store load paths call this
    instead of ``Path.read_text`` so a transient ``EIO``/``EDQUOT`` on
    read surfaces as an ``OSError`` (a miss) after retries — it can never
    masquerade as a parse failure and quarantine a valid entry.
    """
    return _read_with_retry(Path(path), root, binary=False)


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
    ``map=True`` returns a read-only ``mmap`` of the whole file so column
    ndarrays can be built zero-copy (falling back to a plain ``bytes``
    read where mapping is unsupported).
    """
    return _read_with_retry(Path(path), root, binary=True, count=count, use_mmap=map)


def replace(src: str | Path, dst: str | Path, *, root: str | Path | None = None) -> None:
    """Atomic same-filesystem rename through the seam (moves, migrations).

    A rename allocates no data blocks, so this is the tool quarantine
    moves use even under ENOSPC; the fault hooks still apply (a plan can
    lose or fail the rename), with the same retry/degrade discipline.
    """
    src = Path(src)
    dst = Path(dst)
    key = _root_key(dst, root)
    for attempt in range(RETRY_ATTEMPTS):
        try:
            event = _maybe_fault("replace", dst)
            if event is not None and event.kind == "lost_rename":
                src.unlink(missing_ok=True)
                return
            os.replace(src, dst)  # repro: allow[locks/raw-write]
            return
        except OSError as exc:
            if not _is_transient(exc):
                raise
            record_io_error(key)
            if attempt + 1 >= RETRY_ATTEMPTS:
                mark_degraded(key, f"replace {dst.name}: {exc}")
                raise StoreDegraded(key, "replace", str(exc)) from exc
            time.sleep(min(RETRY_CAP, RETRY_BASE * (2**attempt)))
    raise AssertionError("unreachable: retry loop returns or raises")


def scan(directory: str | Path, pattern: str, *, root: str | Path | None = None) -> list[Path]:
    """Sorted directory listing through the seam (fault-injectable reads).

    Transient errors are retried; on exhaustion the ``OSError`` is
    re-raised (scans are reads — they never degrade a root, callers skip
    or surface the miss themselves) after counting it in ``io_errors``.
    """
    directory = Path(directory)
    key = _root_key(directory, root)
    last: OSError | None = None
    for _ in range(RETRY_ATTEMPTS):
        try:
            _maybe_fault("scan", directory)
            return sorted(directory.glob(pattern))
        except OSError as exc:
            if not _is_transient(exc):
                raise
            record_io_error(key)
            last = exc
    raise last  # type: ignore[misc]  # loop always sets it before falling through


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
        _write_once(tmp, "probe", str(root))
        tmp.unlink(missing_ok=True)
    except OSError:
        return False
    clear_degraded(root)
    return True
