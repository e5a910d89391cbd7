"""Sharded store layout: fingerprint-prefix shards, advisory locks.

The service tier (:mod:`repro.service`) points N worker threads and M
concurrent requests at one :class:`~repro.runtime.store.TraceStore` /
:class:`~repro.runtime.runstore.RunStore` pair, and CI points several
*processes* at the same directories.  A single flat directory survives
that only by luck: every writer renames into one namespace, every ``len``
scans every entry, and a crashed writer's temp file sits around forever.
This module gives the stores and the job queue one shared on-disk
discipline:

**Shards.**  Every entry lives under ``root/<prefix>/`` where ``prefix``
is the first :data:`SHARD_PREFIX_CHARS` hex chars of the entry's content
digest (scenario fingerprint for traces, run-key digest for runs).
Contention and directory size split 256 ways; a shard is the unit of
locking.

**Entry files are the store.**  A shard holds its entry files and
nothing else: every load is addressed by path and validates the entry's
own header, and scrub and audit walk the files.  The job queue keeps no
index either: a record's file name shows its terminal state
(:mod:`repro.service.queue`).

**Advisory locks.**  All mutations (entry writes, removals, quarantine,
stale-temp cleanup) happen under an ``fcntl`` advisory lock on the
shard's ``.lock`` file, so concurrent writers serialize per shard and a
queue transition's write and rename can never interleave with a racing
writer's.  Readers never need the lock: entry writes stay atomic (temp
file + ``os.replace``), so a reader sees either the old complete file or
the new complete one.

**Crash consistency.**  A writer killed mid-write leaves ``*.tmp*`` files
behind; :func:`clean_stale_temps` removes them under the shard locks at
store open.  Temp files can never be served as hits (lookups only probe
the final name), and because cleanup holds the same lock writers hold, a
*live* writer's temp file is never swept — anything visible under the
lock is by definition abandoned.

**Fault discipline.**  Every durable write and rename here routes through
:mod:`repro.runtime.iolayer` (the ``locks/io-seam`` lint rule enforces
it), which retries transient capacity errors, raises a typed
:exc:`~repro.runtime.iolayer.StoreDegraded` once a root is out of space,
and hosts the deterministic fault plan the ``fsfaults`` check arms.
Corrupt entries are moved into ``root/_quarantine/`` (a rename needs no
data blocks, so quarantine works even on a full disk) rather than
deleted, so torn bytes stay inspectable; skipped paths and read errors
are counted per root in ``iolayer.io_error_count`` instead of being
silently dropped.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Callable, Iterator

from . import iolayer
from .colfmt import ColumnFormatError

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: in-process only
    fcntl = None

# Hex chars of the content digest that name an entry's shard (256 shards).
SHARD_PREFIX_CHARS = 2

#: Corrupt entries are moved here (under the store root), never deleted:
#: torn bytes are evidence, and a rename works even on a full disk.
QUARANTINE_DIR = "_quarantine"

# One process-local mutex per lock file: fcntl locks are held per process
# (re-acquiring in another thread of the same process would succeed), so
# thread-level serialization needs its own layer.
_THREAD_LOCKS: dict[str, threading.Lock] = {}
_THREAD_LOCKS_GUARD = threading.Lock()  # repro: guards[_THREAD_LOCKS]


def shard_prefix(digest: str) -> str:
    """The shard an entry with ``digest`` belongs to."""
    if len(digest) < SHARD_PREFIX_CHARS:
        raise ValueError(f"digest {digest!r} is too short to shard")
    return digest[:SHARD_PREFIX_CHARS]


def shard_dir(root: Path, digest: str) -> Path:
    """The shard directory for ``digest`` under ``root`` (not created)."""
    return root / shard_prefix(digest)


_HEX_DIGITS = frozenset("0123456789abcdef")


def shard_dirs(root: Path) -> list[Path]:
    """Every existing shard directory under ``root``, sorted.

    One ``scandir`` pass: a child's name is checked first, and
    ``is_dir`` answers from the entry's ``d_type`` where the filesystem
    reports it, so no child is ``stat``-ed on the common path.
    """
    try:
        with os.scandir(root) as children:
            names = sorted(
                child.name for child in children
                if len(child.name) == SHARD_PREFIX_CHARS
                and _HEX_DIGITS.issuperset(child.name) and child.is_dir()
            )
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [root / name for name in names]


def _thread_lock_for(path: Path) -> threading.Lock:
    key = str(path)
    with _THREAD_LOCKS_GUARD:
        lock = _THREAD_LOCKS.get(key)
        if lock is None:
            lock = _THREAD_LOCKS[key] = threading.Lock()
        return lock


@contextmanager
def shard_lock(shard: Path) -> Iterator[None]:
    """Hold the shard's advisory lock (exclusive, blocking).

    Serializes against other *processes* via ``fcntl.flock`` on the
    shard's ``.lock`` file and against other *threads* of this process
    via a per-path mutex (POSIX locks are per-process, not per-thread).
    The shard directory is created on first use.
    """
    shard.mkdir(parents=True, exist_ok=True)
    lock_path = shard / ".lock"
    with _thread_lock_for(lock_path):
        handle = iolayer.open_lock_file(lock_path)
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


def write_entry_locked(shard: Path, name: str, data: str | bytes) -> Path:
    """Replace one file in ``shard`` atomically (callers hold the shard lock).

    Temp file + ``os.replace`` through the I/O seam, so readers never see
    a torn file even without the lock.  Multi-step paths (a queue
    transition's write and rename) hold one lock acquisition across
    both steps; re-entering :func:`shard_lock` per step would deadlock
    on the per-path thread mutex (it is not reentrant).
    """
    # `shard.parent` IS the root: shards are its direct children, so
    # degraded-mode accounting lands on the store, not the shard.
    if isinstance(data, (bytes, bytearray, memoryview)):
        return iolayer.write_bytes(shard / name, bytes(data), root=shard.parent)
    return iolayer.write_text(shard / name, data, root=shard.parent)


def remove_entry_locked(shard: Path, name: str) -> bool:
    """Delete one entry file; True if it existed."""
    path = shard / name
    existed = path.exists()
    if existed:
        path.unlink()
    return existed


def quarantine_corrupt_entry(
    root: Path, shard: Path, name: str, decode: Callable[[Path], object]
) -> bool:
    """Quarantine an entry that failed to decode — unless a writer fixed it.

    ``decode`` is the caller's own decoder, the one that just refused the
    entry; it is re-run here under the shard lock, so the check-and-move
    cannot race a live writer.  Returns True when it still raises
    :class:`~repro.runtime.colfmt.ColumnFormatError` and the entry has
    been moved to ``root/_quarantine`` (its bytes preserved for
    inspection, never again servable), False when a concurrent writer
    replaced it with an entry that decodes in the meantime (the caller
    should then retry its load) or someone else already removed it.

    Only a failure to *decode* quarantines.  An ``OSError`` out of the
    re-read means the entry is *unavailable*, not provably corrupt —
    quarantining on that evidence is how a transient ``EIO`` used to
    destroy valid entries — so it is reported as False (the seam already
    counted it, and the caller already treated its own read error as a
    miss).
    """
    with shard_lock(shard):
        try:
            decode(shard / name)
        except ColumnFormatError:
            quarantine_entry_locked(root, shard, name)
            return True
        except OSError:
            return False  # gone, or unreadable: unreadable is not corrupt
        return False  # decoded: repaired behind our back


def quarantine_entry_locked(root: Path, shard: Path, name: str) -> bool:
    """Move one entry into ``root/_quarantine``.

    For callers already holding the shard lock.  The move is a same-
    filesystem rename (allocates no data blocks, so it works under
    ENOSPC); if even that fails the file is unlinked instead — serving
    corrupt bytes is the one unacceptable outcome.  The copy takes the
    first free name of ``<shard>-<name>``, ``<shard>-<name>.1``, …, so a
    second tear of the same entry keeps the first one's bytes; the held
    lock makes the pick safe, as only this shard's entries take its
    prefix.  True when the entry file existed.
    """
    path = shard / name
    existed = path.exists()
    if existed:
        target_dir = root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target, copy = target_dir / f"{shard.name}-{name}", 0
            while target.exists():
                copy += 1
                target = target_dir / f"{shard.name}-{name}.{copy}"
            iolayer.replace(path, target, root=root)
        except (OSError, iolayer.StoreError):
            iolayer.record_io_error(root)
            path.unlink(missing_ok=True)
    return existed


def clean_stale_temps(root: Path) -> int:
    """Remove abandoned ``*.tmp*`` files left by killed writers.

    Sweeps the root itself and every shard, taking each shard's lock
    first: a temp file observed *while holding the lock* cannot belong to
    a live writer, so everything swept is a crash leftover.  Returns how
    many files were removed.  Paths that cannot be scanned or unlinked are
    *not* silently dropped: each failure is counted in
    ``iolayer.io_error_count(root)`` and the sweep moves on — a stale temp
    is cosmetic, an uncounted I/O error is not.
    """
    removed = 0
    if not root.is_dir():
        return 0
    for stale in scan_or_empty(root, "*.tmp*", root):
        removed += _unlink_or_count(stale, root)
    for shard in shard_dirs(root):
        with shard_lock(shard):
            for stale in scan_or_empty(shard, "*.tmp*", root):
                removed += _unlink_or_count(stale, root)
    return removed


def scan_or_empty(directory: Path, pattern: str, root: Path) -> list[Path]:
    """A seam scan that degrades to an empty listing, counting the error."""
    try:
        return iolayer.scan(directory, pattern, root=root)
    except OSError:
        # Already counted by the seam's retry loop; an unscannable
        # directory just contributes nothing to this sweep.
        return []


def _unlink_or_count(stale: Path, root: Path) -> int:
    """Unlink one stale temp; 1 when removed, 0 (counted) when skipped."""
    try:
        stale.unlink(missing_ok=True)
    except OSError:
        iolayer.record_io_error(root)
        return 0
    return 1


def iter_entry_paths(root: Path, pattern: str) -> Iterator[Path]:
    """Every entry file matching the ``pattern`` glob, shard by shard.

    The glob names the suffix (``trace-*.col``): a bare ``prefix-*`` would
    also match in-flight ``*.tmp*`` files.
    """
    for shard in shard_dirs(root):
        yield from sorted(shard.glob(pattern))

