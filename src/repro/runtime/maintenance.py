"""Self-healing store maintenance: scrub, audit and GC.

Quarantined entries, dead-letter jobs, and stale temp files are all
*evidence* the moment they appear — and garbage a week later.  This
module is the generic maintenance engine the trace, run, and bundle
stores and the job queue all wire up through one mixin,
:class:`MaintainedRoot` (``repro store scrub|gc`` on the CLI).  It walks
files and never reads one: each root checks its own entries.

``scrub`` — :func:`scrub_entries`
    Re-verify every entry *file* in every shard under its shard lock: the
    root's own entry check must pass (for a store, its one decoder must
    decode the entry and its identity must match the file name; for the
    job queue, the record must parse and match its name), and the entry
    must live in the shard its digest names.  Anything that fails is
    quarantined (moved to ``root/_quarantine``) — exactly what the lazy
    load path would eventually do, done eagerly.  A store's ``audit`` is
    the same walk, reporting without quarantining (:func:`audit_entries`).

``gc`` — :func:`gc_entries`
    Apply TTLs (file mtime) to the artifacts that only accumulate:
    quarantined files, abandoned ``*.tmp*`` files, and — via the root's
    ``GC_GLOB`` — terminal entries like dead-letter jobs, which the queue
    names ``*.dead.json``.  Dry-run by default, with byte accounting
    either way, so operators see what a real pass would reclaim before
    deleting anything.

Both are metamorphic no-ops for servable data: a scrub+gc pass leaves
every entry a reader could successfully load bit-identical (the test
suite proves this).  They only touch corrupt or expired artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable
from typing import ClassVar

from . import iolayer, shards

#: Default age before quarantine/temp/dead-letter artifacts are collected.
DEFAULT_TTL_SECONDS = 7 * 24 * 3600.0


@dataclass
class ScrubReport:
    """What one scrub pass checked and quarantined."""

    root: str
    entries_checked: int = 0
    quarantined: int = 0
    problems: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"scrub {self.root}: {self.entries_checked} entries checked, "
            f"{len(self.problems)} problems, {self.quarantined} quarantined"
        )


@dataclass
class GcReport:
    """What one GC pass reclaimed (or would reclaim, when ``dry_run``)."""

    root: str
    dry_run: bool = True
    quarantine_removed: int = 0
    temps_removed: int = 0
    entries_removed: int = 0
    skipped_young: int = 0
    bytes_reclaimed: int = 0
    paths: list[str] = field(default_factory=list)

    def summary(self) -> str:
        verb = "would reclaim" if self.dry_run else "reclaimed"
        return (
            f"gc {self.root}: {verb} {self.bytes_reclaimed} bytes "
            f"({self.quarantine_removed} quarantined, {self.temps_removed} temps, "
            f"{self.entries_removed} entries); {self.skipped_young} younger than TTL"
        )


def scrub_entries(
    root: Path,
    pattern: str,
    check: Callable[[Path], str | None],
    digest_for: Callable[[str], str | None],
) -> ScrubReport:
    """Re-verify every entry file under its shard lock; quarantine failures.

    ``pattern`` globs a shard's entry files; ``check(path)`` is the
    root's own entry check — a problem string (entry is quarantined) or
    None (entry is sound), raising ``OSError`` when the entry cannot be
    read; ``digest_for(name)`` recovers the shard digest from the file
    name so misfiled entries are caught too.  Entries whose bytes cannot
    be *read* (transient I/O failure, after the seam's retries) are
    reported but **not** quarantined — unavailability is not evidence of
    corruption.
    """
    report = ScrubReport(root=str(root))
    for shard in shards.shard_dirs(root):
        with shards.shard_lock(shard):
            for path in shards.scan_or_empty(shard, pattern, root):
                report.entries_checked += 1
                problem, quarantinable = _file_problem(shard, path.name, check, digest_for)
                if problem is None:
                    continue
                report.problems.append(f"{shard.name}/{path.name}: {problem}")
                if quarantinable and shards.quarantine_entry_locked(root, shard, path.name):
                    report.quarantined += 1
    return report


def audit_entries(
    root: Path,
    pattern: str,
    check: Callable[[Path], str | None],
    digest_for: Callable[[str], str | None],
) -> tuple[int, list[str]]:
    """The checks of :func:`scrub_entries`, reported and never acted on.

    Lock-free (entry writes are atomic); returns ``(entries_checked,
    problems)``, ``(n, [])`` for a clean store.
    """
    paths = list(shards.iter_entry_paths(root, pattern))
    problems = []
    for path in paths:
        problem, _ = _file_problem(path.parent, path.name, check, digest_for)
        if problem is not None:
            problems.append(f"{path.parent.name}/{path.name}: {problem}")
    return len(paths), problems


def _file_problem(
    shard: Path,
    name: str,
    check: Callable[[Path], str | None],
    digest_for: Callable[[str], str | None],
) -> tuple[str | None, bool]:
    """``(problem, quarantinable)`` for one entry file.

    ``problem`` is None when the entry checks out, or when it is gone by
    the time it is read (a lock-free audit racing a quarantine).
    ``quarantinable`` is False exactly for read-I/O failures: the entry
    may be perfectly valid on a disk that is briefly unhappy, so scrub
    reports it and leaves it for a later pass to vindicate or convict.
    """
    try:
        problem = check(shard / name)
    except FileNotFoundError:
        return None, False
    except OSError as exc:
        return f"unreadable ({exc}) — left in place", False
    if problem is not None:
        return problem, True
    digest = digest_for(name)
    if digest is None:
        return "file name does not parse as an entry name", True
    if shards.shard_prefix(digest) != shard.name:
        return f"entry filed in shard {shard.name} but digest names {digest[:2]}", True
    return None, True


def gc_entries(
    root: Path,
    expired: str | None,
    *,
    ttl_seconds: float = DEFAULT_TTL_SECONDS,
    dry_run: bool = True,
    now: float | None = None,
) -> GcReport:
    """TTL sweep over quarantine, stale temps, and optional terminal entries.

    Removes (or, by default, only reports — ``dry_run``) every file under
    ``root/_quarantine`` and every ``*.tmp*`` file whose mtime is older
    than ``ttl_seconds``.  When ``expired`` is given, the shard files it
    globs are removed too once past the TTL — how the job queue expires
    dead-letter records by their ``.dead.json`` names.  Byte counts are
    accumulated in either mode so a dry run prices the real one.
    """
    clock = time.time() if now is None else now
    report = GcReport(root=str(root), dry_run=dry_run)
    quarantine = root / shards.QUARANTINE_DIR
    if quarantine.is_dir():
        for path in shards.scan_or_empty(quarantine, "*", root):
            if _collect_file(path, report, clock, ttl_seconds, dry_run, root):
                report.quarantine_removed += 1
    if root.is_dir():
        for path in shards.scan_or_empty(root, "*.tmp*", root):
            if _collect_file(path, report, clock, ttl_seconds, dry_run, root):
                report.temps_removed += 1
    for shard in shards.shard_dirs(root):
        with shards.shard_lock(shard):
            for path in shards.scan_or_empty(shard, "*.tmp*", root):
                if _collect_file(path, report, clock, ttl_seconds, dry_run, root):
                    report.temps_removed += 1
            if expired is None:
                continue
            for path in shards.scan_or_empty(shard, expired, root):
                if _collect_file(path, report, clock, ttl_seconds, dry_run, root):
                    report.entries_removed += 1
    return report


def _age_and_size(path: Path, root: Path) -> tuple[float, int] | None:
    try:
        stat = path.stat()
    except OSError:
        iolayer.record_io_error(root)
        return None
    return stat.st_mtime, stat.st_size


def _collect_file(
    path: Path, report: GcReport, now: float, ttl: float, dry_run: bool, root: Path
) -> bool:
    """Reclaim one quarantined, temp or expired entry file past its TTL; True when counted."""
    probed = _age_and_size(path, root)
    if probed is None:
        return False
    mtime, size = probed
    if now - mtime < ttl:
        report.skipped_young += 1
        return False
    if not dry_run:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            iolayer.record_io_error(root)
            return False
    report.bytes_reclaimed += size
    report.paths.append(str(path.relative_to(root)))
    return True


class MaintainedRoot:
    """Health and maintenance for one sharded root, written once.

    The entry stores (trace, run, bundle) and the job queue mix this in
    and supply its hooks: :attr:`ENTRY_GLOB` (the entry files inside a
    shard), :attr:`GC_GLOB` (the entry files that expire like quarantined
    files; None expires none), ``_digest_from_name`` (file name -> shard
    digest, or None), and ``_entry_problem`` (the root's own check of one
    entry file: why it is unsound, or None; ``OSError`` when it cannot be
    read).
    """

    ENTRY_GLOB: ClassVar[str]
    GC_GLOB: ClassVar[str | None] = None
    _digest_from_name: Callable[[str], str | None]
    _entry_problem: Callable[[Path], str | None]

    root: Path

    def _open_root(self, root: str | Path, label: str) -> None:
        """Create or reopen the root directory; sweep crashed writers' temps."""
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(f"{label} path {self.root} exists and is not a directory")
        self.root.mkdir(parents=True, exist_ok=True)
        #: Abandoned temp files swept at open (crashed writers' leftovers).
        self.stale_temps_cleaned = shards.clean_stale_temps(self.root)

    def audit(self) -> tuple[int, list[str]]:
        """Check every entry file as :meth:`scrub` would, quarantining nothing."""
        return audit_entries(
            self.root, self.ENTRY_GLOB, self._entry_problem, self._digest_from_name
        )

    @property
    def degraded(self) -> bool:
        """True while this root is in read-only (capacity) mode."""
        return iolayer.is_degraded(self.root)

    @property
    def io_errors(self) -> int:
        """I/O errors observed under this root (skipped paths included)."""
        return iolayer.io_error_count(self.root)

    def scrub(self) -> ScrubReport:
        """Re-verify every entry file; quarantine the unsound ones."""
        return scrub_entries(
            self.root, self.ENTRY_GLOB, self._entry_problem, self._digest_from_name
        )

    def gc(
        self,
        *,
        ttl_seconds: float = DEFAULT_TTL_SECONDS,
        dry_run: bool = True,
        now: float | None = None,
    ) -> GcReport:
        """TTL-collect quarantine, stale temps, and terminal entries (dry-run default)."""
        return gc_entries(
            self.root, self.GC_GLOB, ttl_seconds=ttl_seconds, dry_run=dry_run, now=now
        )
