"""Sharded store layout: fingerprint-prefix shards, indexes, advisory locks.

The service tier (:mod:`repro.service`) points N worker threads and M
concurrent requests at one :class:`~repro.runtime.store.TraceStore` /
:class:`~repro.runtime.runstore.RunStore` pair, and CI points several
*processes* at the same directories.  A single flat directory survives
that only by luck: every writer renames into one namespace, every ``len``
scans every entry, and a crashed writer's temp file sits around forever.
This module gives both stores one shared on-disk discipline:

**Shards.**  Every entry lives under ``root/<prefix>/`` where ``prefix``
is the first :data:`SHARD_PREFIX_CHARS` hex chars of the entry's content
digest (scenario fingerprint for traces, run-key digest for runs).
Contention and directory size split 256 ways; a shard is the unit of
locking.

**Per-shard index.**  Each shard carries an ``index.json`` mapping entry
file names to their identity block (the fingerprints the entry was keyed
by).  Tools can enumerate a store's contents — and audit that every
indexed entry still parses — without opening every payload.  The job
queue's block also carries each record's state and due times, which
makes the index its claim index.

**Advisory locks.**  All mutations (entry writes, removals, stale-temp
cleanup, format migration) happen under an ``fcntl`` advisory lock on the
shard's ``.lock`` file, so concurrent writers serialize per shard and an
index update can never lose a racing writer's entry.  Readers never need
the lock: entry writes stay atomic (temp file + ``os.replace``), so a
reader sees either the old complete file or the new complete one.

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

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Callable, Iterator

from ..util import jsonsafe
from . import colfmt, iolayer

try:  # pragma: no cover - always available on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback: in-process only
    fcntl = None

# Hex chars of the content digest that name an entry's shard (256 shards).
SHARD_PREFIX_CHARS = 2

INDEX_NAME = "index.json"
INDEX_SCHEMA_VERSION = 1

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


def _replace_atomically(shard: Path, name: str, data: str | bytes) -> Path:
    # `shard.parent` IS the store root: shards are its direct children,
    # so degraded-mode accounting lands on the store, not the shard.
    if isinstance(data, (bytes, bytearray, memoryview)):
        return iolayer.write_bytes(shard / name, bytes(data), root=shard.parent)
    return iolayer.write_text(shard / name, data, root=shard.parent)


def read_index(shard: Path) -> dict[str, dict]:
    """The shard's index entries (``{}`` for a missing or unreadable index).

    An unreadable index never blocks the store — entry files are the
    ground truth; the index is regenerated entry-by-entry as writes land.
    """
    path = shard / INDEX_NAME
    try:
        payload = json.loads(iolayer.read_text(path, root=shard.parent))
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(payload, dict) or payload.get("schema_version") != INDEX_SCHEMA_VERSION:
        return {}
    entries = payload.get("entries")
    return entries if isinstance(entries, dict) else {}


def _write_index(shard: Path, entries: dict[str, dict]) -> None:
    text = jsonsafe.dumps(
        {"schema_version": INDEX_SCHEMA_VERSION, "entries": entries},
        sort_keys=True,
    )
    _replace_atomically(shard, INDEX_NAME, text)


def write_index_locked(shard: Path, entries: dict[str, dict]) -> None:
    """Rewrite a shard's index wholesale (callers hold the shard lock).

    Repair passes and the job queue's transitions hold the entry map in
    memory and commit it in one atomic write.
    """
    _write_index(shard, entries)


def write_entry(root: Path, digest: str, name: str, data: str | bytes, meta: dict) -> Path:
    """Atomically persist one entry and record it in the shard index.

    Runs entirely under the shard lock: the entry write is temp +
    ``os.replace`` (readers never see a torn file even without the lock),
    and the index read-modify-write is protected against concurrent
    writers of *other* entries in the same shard.
    """
    shard = shard_dir(root, digest)
    with shard_lock(shard):
        return write_entry_locked(shard, name, data, meta)


def write_entry_locked(shard: Path, name: str, data: str | bytes, meta: dict) -> Path:
    """Entry write + index update for callers already holding the shard lock.

    Multi-entry paths hold one lock acquisition across several entries;
    re-entering :func:`shard_lock` per entry would deadlock on the
    per-path thread mutex (it is not reentrant), so they compose this
    primitive instead.
    """
    path = _replace_atomically(shard, name, data)
    entries = read_index(shard)
    entries[name] = meta
    _write_index(shard, entries)
    return path


def write_file_locked(shard: Path, name: str, data: str | bytes) -> Path:
    """Replace one entry file and leave the index alone (lock held).

    For a root that orders the entry write against its own index write
    (the job queue, whose index meta tracks record state); stores use
    :func:`write_entry_locked`.
    """
    return _replace_atomically(shard, name, data)


def remove_entry(root: Path, digest: str, name: str) -> bool:
    """Delete one entry (file + index record); True if the file existed."""
    shard = shard_dir(root, digest)
    with shard_lock(shard):
        return remove_entry_locked(shard, name)


def remove_entry_locked(shard: Path, name: str) -> bool:
    path = shard / name
    existed = path.exists()
    if existed:
        path.unlink()
    entries = read_index(shard)
    if name in entries:
        del entries[name]
        _write_index(shard, entries)
    return existed


def quarantine_corrupt_entry(root: Path, shard: Path, name: str) -> bool:
    """Quarantine an entry that failed to parse — unless a writer fixed it.

    Returns True when the entry was (still) corrupt and has been moved to
    ``root/_quarantine`` (its torn bytes preserved for inspection, never
    again servable), False when a concurrent writer replaced it with a
    parseable payload in the meantime (the caller should then retry its
    load).  Runs under the shard lock so the check-and-move cannot race a
    live writer.

    Only genuine *parse* failures quarantine.  An ``OSError`` out of the
    re-read means the entry is *unavailable*, not provably corrupt —
    quarantining on that evidence is how a transient ``EIO`` used to
    destroy valid entries — so it is counted and reported as False (the
    caller already treated its own read error as a miss).
    """
    with shard_lock(shard):
        path = shard / name
        corrupt = False
        try:
            payload = colfmt.load_entry_payload(path, root=root)
            corrupt = not isinstance(payload, dict)
        except FileNotFoundError:
            return False  # already gone: someone else cleaned it
        except colfmt.PARSE_ERRORS:
            corrupt = True  # unparseable is exactly the state to remove
        except OSError:
            # Unreadable ≠ corrupt: the seam already counted the retries;
            # leave the entry for a later read to vindicate or convict.
            return False
        if not corrupt:
            return False  # repaired behind our back — not corrupt anymore
        quarantine_entry_locked(root, shard, name)
        return True


def quarantine_entry_locked(root: Path, shard: Path, name: str) -> bool:
    """Move one entry into ``root/_quarantine`` and drop its index record.

    For callers already holding the shard lock.  The move is a same-
    filesystem rename (allocates no data blocks, so it works under
    ENOSPC); if even that fails the file is unlinked instead — serving
    corrupt bytes is the one unacceptable outcome.  True when the entry
    file existed.
    """
    path = shard / name
    existed = path.exists()
    if existed:
        target_dir = root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            iolayer.replace(path, target_dir / f"{shard.name}-{name}", root=root)
        except (OSError, iolayer.StoreError):
            iolayer.record_io_error(root)
            path.unlink(missing_ok=True)
    entries = read_index(shard)
    if name in entries:
        del entries[name]
        _write_index(shard, entries)
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


def audit_entries(
    root: Path,
    pattern: str,
    check: Callable[[object, dict], str | None] | None = None,
) -> tuple[int, list[str]]:
    """Audit a store: every indexed entry must exist and parse.

    Returns ``(entries_checked, problems)`` where ``problems`` is a list of
    human-readable findings: indexed-but-missing files, unparseable
    payloads, files present on disk but absent from their shard index,
    and whatever ``check(meta, payload)`` reports about an entry's index
    meta against its parsed payload.  A clean store returns ``(n, [])``.
    Entries are parsed via :func:`repro.runtime.colfmt.load_entry_payload`.
    """
    problems: list[str] = []
    checked = 0
    for shard in shard_dirs(root):
        indexed = read_index(shard)
        on_disk = {p.name for p in shard.glob(pattern) if ".tmp" not in p.name}
        for name in sorted(indexed):
            checked += 1
            path = shard / name
            if name not in on_disk:
                problems.append(f"{shard.name}/{name}: indexed but missing on disk")
                continue
            try:
                payload = colfmt.load_entry_payload(path, root=root)
            except (OSError, *colfmt.PARSE_ERRORS) as exc:
                problems.append(f"{shard.name}/{name}: unreadable ({exc})")
                continue
            if not isinstance(payload, dict):
                problems.append(f"{shard.name}/{name}: not a JSON object")
                continue
            problem = check(indexed[name], payload) if check is not None else None
            if problem is not None:
                problems.append(f"{shard.name}/{name}: {problem}")
        for name in sorted(on_disk - set(indexed)):
            problems.append(f"{shard.name}/{name}: on disk but not indexed")
    return checked, problems
