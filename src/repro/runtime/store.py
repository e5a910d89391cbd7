"""On-disk persistence for scenario traces, and the shared entry-store base.

Trace construction (every zoo model over every frame) dominates wall-clock
for the whole benchmark suite; a built trace is a pure function of the
(scenario, zoo) pair, so it is safe to persist and reuse across processes.
Like the characterization bundle serialization
(:mod:`repro.characterization.serialization`), entries carry a schema
version that fails loudly on mismatch.

:class:`EntryStore` is the plumbing the content-addressed stores share
(this module's :class:`TraceStore`,
:class:`~repro.runtime.runstore.RunStore` and
:class:`~repro.runtime.bundlestore.BundleStore`): open, write, read,
quarantine, clear, and — through
:class:`~repro.runtime.maintenance.MaintainedRoot` — audit, health, and
maintenance.

Format — one entry per (scenario, zoo) pair, named
``trace-v<algo>-<scenario_fp16>-<zoo_fp12>.col``: a binary columnar
container (:mod:`repro.runtime.colfmt`) holding the dict payload below.
Entries are sharded by scenario-fingerprint prefix (``root/<2-hex>/``)
with advisory-lock–guarded writes — see :mod:`repro.runtime.shards`; a
shard is nothing but its entry files.  Entries written before the binary
format (``.json``) or before sharding (flat at the root) are never read:
each is a plain miss, rebuilt and saved as ``.col`` on first use.
Fields:

``schema_version``
    Integer; readers reject anything but their own version.
``scenario_name`` / ``scenario_fingerprint`` / ``zoo_fingerprint``
    Identity block.  Fingerprints are the full content digests
    (:meth:`Scenario.fingerprint`, :meth:`ModelZoo.fingerprint`); loads
    re-derive both from the live objects and reject any mismatch, so a
    stale or hand-edited file can never masquerade as the wrong trace.
``frame_count``
    Must equal the live scenario's ``total_frames``.
``outcomes``
    ``{model_name: [row, ...]}`` with one compact row per frame:
    ``[box, confidence, iou, quality, detected, false_positive]`` where
    ``box`` is ``[x1, y1, x2, y2]`` or ``null``.

Frames (rendered pixels + scene states) are *not* stored: rendering is
deterministic, so loads return a **lazy** trace that attaches the persisted
outcomes and defers rendering until someone actually reads ``.frames``.
Outcome-only consumers (tables, metrics, oracle summaries) therefore pay
only a header probe plus a column decode on reload; policy runs render on
first frame access through the batched renderer and see a trace
indistinguishable from a fresh build.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, TypeVar

from ..vision.bbox import BoundingBox
from . import colfmt, iolayer, maintenance, shards

# The trace builder and the detector load when a trace is decoded, so a
# process whose runs are all run-store hits never imports them.
if TYPE_CHECKING:
    from ..data.scenario import Scenario
    from ..models.detector import DetectionOutcome
    from ..models.zoo import ModelZoo
    from .trace import ScenarioTrace

SCHEMA_VERSION = 1

_T = TypeVar("_T")

# Version of the *outcome-producing algorithm* (detector, scene difficulty,
# noise streams).  Fingerprints pin what a trace was built FROM; this pins
# what it was built WITH.  Bump it whenever a change to the simulation
# alters detection outcomes, or persisted traces from before the change
# would silently masquerade as current results.
ALGORITHM_VERSION = 1


class TraceSchemaError(ValueError):
    """Raised when a persisted trace cannot be understood or doesn't match."""


def trace_to_dict(trace: ScenarioTrace, zoo: ModelZoo) -> dict:
    """Plain-dict form of a trace (JSON-compatible, frames omitted)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
        "scenario_name": trace.scenario.name,
        "scenario_fingerprint": trace.scenario.fingerprint(),
        "zoo_fingerprint": zoo.fingerprint(),
        "frame_count": trace.frame_count,
        "outcomes": {
            model: [
                [
                    None if o.box is None else [o.box.x1, o.box.y1, o.box.x2, o.box.y2],
                    o.confidence,
                    o.iou,
                    o.quality,
                    o.detected,
                    o.false_positive,
                ]
                for o in per_model
            ]
            for model, per_model in trace.outcomes.items()
        },
    }


def _validate_trace_payload(payload: dict, scenario: Scenario, zoo: ModelZoo) -> None:
    """Identity checks for a trace payload (raises :class:`TraceSchemaError`).

    Everything verified here lives in the column header's ``meta`` block,
    so the load path can validate without decoding any outcome columns.
    """
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = payload.get("algorithm_version")
    if algorithm != ALGORITHM_VERSION:
        raise TraceSchemaError(
            f"trace was built by algorithm version {algorithm!r}; this build produces "
            f"version {ALGORITHM_VERSION} — rebuild (delete the store entry)"
        )
    if payload.get("scenario_fingerprint") != scenario.fingerprint():
        raise TraceSchemaError(
            f"trace was built for a different scenario than {scenario.name!r} "
            "(fingerprint mismatch)"
        )
    if payload.get("zoo_fingerprint") != zoo.fingerprint():
        raise TraceSchemaError("trace was built against a different model zoo (fingerprint mismatch)")
    if payload.get("frame_count") != scenario.total_frames:
        raise TraceSchemaError(
            f"trace covers {payload.get('frame_count')!r} frames but scenario "
            f"{scenario.name!r} has {scenario.total_frames}"
        )


def _outcomes_from_rows(rows_by_model: dict) -> dict[str, list[DetectionOutcome]]:
    """Rebuild per-model :class:`DetectionOutcome` lists from compact rows."""
    from ..models.detector import DetectionOutcome

    try:
        outcomes: dict[str, list[DetectionOutcome]] = {}
        for model, rows in rows_by_model.items():
            outcomes[model] = [
                DetectionOutcome(
                    model_name=model,
                    box=None if row[0] is None else BoundingBox(*row[0]),
                    confidence=row[1],
                    iou=row[2],
                    quality=row[3],
                    detected=row[4],
                    false_positive=row[5],
                )
                for row in rows
            ]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise TraceSchemaError(f"malformed trace payload: {exc}") from exc
    return outcomes


def trace_from_dict(payload: dict, scenario: Scenario, zoo: ModelZoo) -> ScenarioTrace:
    """Rebuild a trace from its dict form against the live scenario and zoo.

    Validates the schema version and both fingerprints and reattaches the
    persisted outcomes; frames stay lazy (rendered deterministically on
    first access), so outcome-only consumers never pay for pixels.
    """
    from .trace import ScenarioTrace

    _validate_trace_payload(payload, scenario, zoo)
    try:
        rows_by_model = payload["outcomes"]
    except KeyError as exc:
        raise TraceSchemaError("trace payload has no outcomes block") from exc
    outcomes = _outcomes_from_rows(rows_by_model)
    return ScenarioTrace(scenario=scenario, frames=None, outcomes=outcomes)


def _trace_file_name(scenario_fingerprint: str, zoo_fingerprint: str) -> str:
    """The entry file name for a (scenario, zoo) pair.

    The algorithm version is part of the name, so bumping it simply
    orphans stale files (treated as misses and rebuilt) rather than
    erroring on them.
    """
    return (
        f"trace-v{ALGORITHM_VERSION}-{scenario_fingerprint[:16]}"
        f"-{zoo_fingerprint[:12]}{colfmt.COL_SUFFIX}"
    )


def _entry_name_parts(name: str) -> list[str]:
    """The ``-``-separated fields of a ``.col`` entry name ([] for any other name)."""
    if not name.endswith(colfmt.COL_SUFFIX):
        return []
    return name.removesuffix(colfmt.COL_SUFFIX).split("-")


def _digest_from_name(name: str) -> str | None:
    """The shard digest encoded in a trace entry file name."""
    parts = _entry_name_parts(name)
    return parts[2] if len(parts) == 4 and len(parts[2]) == 16 else None


def digest_from_entry_name(name: str) -> str | None:
    """The shard digest in a ``<kind>-v<algo>-<digest32>.col`` name (runs, bundles)."""
    parts = _entry_name_parts(name)
    return parts[2] if len(parts) == 3 and len(parts[2]) == 32 else None


def _scrub_problem(name: str, payload: dict) -> str | None:
    """Why a parsed trace entry is unsound, or None when it checks out.

    Scrub has no live scenario/zoo to compare against, so it verifies the
    *internal* identity discipline: schema and algorithm versions, the
    fingerprint prefixes baked into the file name, and the outcome shape.
    Payloads arrive here fully decoded
    (:func:`repro.runtime.colfmt.load_entry_payload`).
    """
    if payload.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {payload.get('schema_version')!r} != {SCHEMA_VERSION}"
    parts = _entry_name_parts(name)
    if parts[1] != f"v{payload.get('algorithm_version')}":
        return (
            f"algorithm_version {payload.get('algorithm_version')!r} "
            f"does not match file name {parts[1]}"
        )
    fingerprint = payload.get("scenario_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint.startswith(parts[2]):
        return "scenario fingerprint does not match file name"
    zoo_fingerprint = payload.get("zoo_fingerprint")
    if not isinstance(zoo_fingerprint, str) or not zoo_fingerprint.startswith(parts[3]):
        return "zoo fingerprint does not match file name"
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict):
        return "outcomes block is not an object"
    frames = payload.get("frame_count")
    if not isinstance(frames, int):
        return "frame_count is not an integer"
    for model, rows in outcomes.items():
        if not isinstance(rows, list) or len(rows) != frames:
            return f"outcomes[{model}] does not carry {frames} rows"
    return None


class EntryStore(maintenance.MaintainedRoot):
    """A sharded directory of ``.col`` entries, content-addressed by digest.

    Entries live under ``root/<digest-prefix>/`` with advisory-lock–guarded
    atomic writes (:mod:`repro.runtime.shards`), so any number of
    processes, threads, and service workers can share one store.
    Subclasses are thin typed facades that supply the codec: :attr:`KIND`
    (the entry-name prefix), ``_encode`` (payload dict -> container
    bytes), and the :class:`~repro.runtime.maintenance.MaintainedRoot`
    hooks.  An entry that cannot be *parsed* (torn by a crash, truncated
    disk) is treated exactly like a missing one — a miss, counted in
    :attr:`corrupt_entries` and quarantined — while a parseable entry that
    does not match its key is a loud schema error from the facade.  The
    worst outcome is a recompute, never a silently wrong result.
    """

    #: Entry-name prefix ("trace" / "run" / "bundle"); also labels errors.
    KIND: ClassVar[str]
    _encode: Callable[[dict], bytes]

    def __init__(self, root: str | Path) -> None:
        self._open_root(root, f"{self.KIND} store")
        #: Corrupt entries encountered (and quarantined) by this instance —
        #: a non-zero value after a sweep means a writer died mid-write or
        #: the disk corrupted an entry; each was re-treated as a miss.
        self.corrupt_entries = 0

    def _write(self, digest: str, name: str, payload: dict) -> Path:
        """Atomically persist ``payload`` as entry ``name`` in ``digest``'s shard."""
        data = self._encode(payload)
        shard = shards.shard_dir(self.root, digest)
        with shards.shard_lock(shard):
            return shards.write_entry_locked(shard, name, data)

    def _read(self, path: Path, decode: Callable[[Path], _T]) -> _T | None:
        """``decode(path)`` of one entry under the read discipline all entries share.

        A missing entry is a miss.  So is one whose bytes cannot be read
        (an ``OSError`` after the seam's bounded retries, counted in
        ``io_errors``): unavailability is not evidence of corruption, and
        quarantining on it would destroy valid entries.  Only an entry
        that *parses wrong* (:class:`~repro.runtime.colfmt.ColumnFormatError`)
        is corrupt: it is quarantined and counted, then the read is
        retried once, which serves an entry a concurrent writer just
        repaired (or misses).
        """
        for _ in range(2):
            try:
                return decode(path)
            except OSError:
                return None
            except colfmt.ColumnFormatError:
                self._quarantine(path)
        return None

    def _quarantine(self, path: Path) -> None:
        """Quarantine one corrupt entry, counting it in :attr:`corrupt_entries`."""
        try:
            if shards.quarantine_corrupt_entry(self.root, path.parent, path.name):
                self.corrupt_entries += 1
        except iolayer.StoreDegraded:
            # Quarantine bookkeeping hit a full disk: the entry is still
            # unservable, so this load is a miss either way.
            self.corrupt_entries += 1

    def __len__(self) -> int:
        return sum(1 for _ in shards.iter_entry_paths(self.root, self.ENTRY_GLOB))

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        for path in list(shards.iter_entry_paths(self.root, self.ENTRY_GLOB)):
            with shards.shard_lock(path.parent):
                removed += shards.remove_entry_locked(path.parent, path.name)
        return removed


class TraceStore(EntryStore):
    """A sharded directory of persisted traces, keyed by (scenario, zoo) fingerprints.

    Every load re-validates identity against the live scenario and zoo; a
    mismatching entry is a loud :class:`TraceSchemaError`.
    """

    KIND = "trace"
    ENTRY_GLOB = "trace-*" + colfmt.COL_SUFFIX
    _encode = staticmethod(colfmt.encode_trace)
    _digest_from_name = staticmethod(_digest_from_name)
    _scrub_problem = staticmethod(_scrub_problem)

    def path_for(self, scenario: Scenario, zoo: ModelZoo) -> Path:
        """The (sharded) file a (scenario, zoo) trace persists to."""
        fingerprint = scenario.fingerprint()
        return shards.shard_dir(self.root, fingerprint) / _trace_file_name(
            fingerprint, zoo.fingerprint()
        )

    def save(self, trace: ScenarioTrace, zoo: ModelZoo) -> Path:
        """Persist a built trace; returns the file written.

        The write is atomic (temp file + rename) under the shard's
        advisory lock, so concurrent readers never observe a
        half-written trace.
        """
        payload = trace_to_dict(trace, zoo)
        fingerprint = payload["scenario_fingerprint"]
        return self._write(
            fingerprint, _trace_file_name(fingerprint, payload["zoo_fingerprint"]), payload
        )

    def load(self, scenario: Scenario, zoo: ModelZoo) -> ScenarioTrace | None:
        """Load the persisted trace for (scenario, zoo), or None if absent.

        Reads only the column header (identity checks live there); outcome
        columns decode lazily on first ``.outcomes`` access.  Misses and
        corrupt entries follow :meth:`EntryStore._read`.
        """
        path = self.path_for(scenario, zoo)
        root = self.root
        header = self._read(path, lambda entry: colfmt.read_header(entry, root=root))
        if header is None:
            return None
        meta = header.get("meta") if isinstance(header.get("meta"), dict) else {}
        _validate_trace_payload(meta, scenario, zoo)
        from .trace import ScenarioTrace

        def load_outcomes() -> dict[str, list[DetectionOutcome]]:
            buffer = iolayer.read_bytes(path, root=root, map=True)
            return _outcomes_from_rows(colfmt.decode_trace_outcomes(buffer))

        return ScenarioTrace(scenario=scenario, frames=None, outcomes_loader=load_outcomes)

    def __contains__(self, key: tuple[Scenario, ModelZoo]) -> bool:
        scenario, zoo = key
        return self.path_for(scenario, zoo).exists()
