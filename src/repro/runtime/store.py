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
maintenance.  Each facade owns its entry format: it declares its
:class:`~repro.runtime.colfmt.Layout`, encodes its objects straight into
columns, and keeps one decoder from the columns back to its objects,
which its loads, scrub, audit and the quarantine re-check all call.

Format — one entry per (scenario, zoo) pair, named
``trace-v<algo>-<scenario_fp16>-<zoo_fp12>.col``: a binary columnar
container (:mod:`repro.runtime.colfmt`) of kind ``trace``.  Entries are
sharded by scenario-fingerprint prefix (``root/<2-hex>/``) with
advisory-lock–guarded writes — see :mod:`repro.runtime.shards`; a shard is
nothing but its entry files.  Entries written before the binary format
(``.json``) or before sharding (flat at the root) are never read: each is
a plain miss, rebuilt and saved as ``.col`` on first use.

Header ``meta`` (:func:`_meta_to_dict`):

``schema_version`` / ``algorithm_version``
    Integers; loads reject anything but their own versions.
``scenario_name`` / ``scenario_fingerprint`` / ``zoo_fingerprint``
    Identity block.  Fingerprints are the full content digests
    (:meth:`Scenario.fingerprint`, :meth:`ModelZoo.fingerprint`); loads
    re-derive both from the live objects and reject any mismatch, so a
    stale or hand-edited file can never masquerade as the wrong trace.
``frame_count``
    Must equal the live scenario's ``total_frames``.
``models``
    The zoo's model order, which is the outcome columns' first axis.

Columns, each ``[models, frames]`` (``box`` adds a last axis of 4), in
the order of :func:`_outcome_row`: ``box`` (``x1, y1, x2, y2``; zeros
where ``box_mask`` is 0, i.e. no box), ``box_mask``, ``confidence``,
``iou``, ``quality``, ``detected``, ``false_positive``.

Frames (rendered pixels + scene states) are *not* stored: rendering is
deterministic, so loads return a **lazy** trace that attaches the persisted
outcomes and defers rendering until someone actually reads ``.frames``.
Outcome-only consumers (tables, metrics, oracle summaries) therefore pay
only a header probe plus a column decode on reload; policy runs render on
first frame access through the batched renderer and see a trace
indistinguishable from a fresh build.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, TypeVar

from ..vision.bbox import BoundingBox
from . import colfmt, iolayer, maintenance, shards

# Trace building and the detector load when a trace is decoded, and
# NumPy when one is encoded, so a process whose runs are all run-store
# hits never imports them.
if TYPE_CHECKING:
    import numpy as np

    from ..data.scenario import Scenario
    from ..models.detector import DetectionOutcome, OutcomeColumns
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
    """Raised when a persisted trace does not match the live scenario and zoo."""


def header_names(meta: dict, field: str) -> list[str]:
    """``meta[field]`` as a list of distinct names (a model list, a vocabulary).

    Raises :class:`~repro.runtime.colfmt.ColumnFormatError` for anything else.
    """
    names = meta.get(field)
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)
            and len(set(names)) == len(names)):
        raise colfmt.ColumnFormatError(f"header {field} is not a list of distinct names")
    return names


def box_columns(
    boxes: Sequence[BoundingBox | None], shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The ``box`` column (``shape`` + [4], zeros for no box) and ``box_mask`` of ``boxes``."""
    import numpy as np

    box = np.array(
        [(0.0, 0.0, 0.0, 0.0) if item is None else item.as_tuple() for item in boxes],
        dtype=np.float64,
    )
    mask = np.array([item is not None for item in boxes], dtype=np.uint8)
    return box.reshape(*shape, 4), mask.reshape(shape)


def _trace_shapes(meta: dict, counts: dict[str, int]) -> dict[str, list[int]]:
    models = header_names(meta, "models")
    rows = [len(models), meta.get("frame_count") if models else 0]
    return {name: rows for name in LAYOUT.columns} | {"box": [*rows, 4]}


#: A trace entry's columns, in packing order, with their dtype codes.
LAYOUT = colfmt.Layout(
    "trace",
    {"box": "f8", "box_mask": "u1", "confidence": "f8", "iou": "f8", "quality": "f8",
     "detected": "u1", "false_positive": "u1"},
    _trace_shapes,
)


def _meta_to_dict(trace: ScenarioTrace, zoo: ModelZoo) -> dict:
    """The header meta of a trace entry: identity block plus the model order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": ALGORITHM_VERSION,
        "scenario_name": trace.scenario.name,
        "scenario_fingerprint": trace.scenario.fingerprint(),
        "zoo_fingerprint": zoo.fingerprint(),
        "frame_count": trace.frame_count,
        "models": list(trace.outcomes),
    }


def _outcome_row(outcomes: OutcomeColumns) -> list:
    """One model's outcome columns in entry order (``box_mask`` rides with ``box``)."""
    return [
        outcomes.box,
        outcomes.confidence,
        outcomes.iou,
        outcomes.quality,
        outcomes.detected,
        outcomes.false_positive,
    ]


def _encode(trace: ScenarioTrace, meta: dict) -> bytes:
    """A trace entry: the header ``meta``, then one ``[models, frames]`` column per field.

    A batched build hands over :class:`~repro.models.detector.OutcomeColumns`,
    written as they are; outcome lists are laid out as columns first.
    """
    import numpy as np

    from ..models.detector import OutcomeColumns

    models = meta["models"]
    shape = (len(models), meta["frame_count"] if models else 0)
    tables = []
    for model in models:
        outcomes = trace.outcomes[model]
        if len(outcomes) != shape[1]:
            raise colfmt.ColumnFormatError(
                f"ragged outcomes: {model!r} has {len(outcomes)} rows, expected {shape[1]}"
            )
        if not isinstance(outcomes, OutcomeColumns):
            outcomes = OutcomeColumns.from_outcomes(model, outcomes)
        tables.append(outcomes)
    boxes, *values = zip(*map(_outcome_row, tables)) if tables else [()] * 6
    columns = {
        "box": np.array(boxes, dtype=np.float64).reshape(*shape, 4),
        "box_mask": np.array([table.box_mask for table in tables], dtype=np.uint8).reshape(shape),
    }
    for name, column in zip(("confidence", "iou", "quality", "detected", "false_positive"), values):
        dtype = np.float64 if LAYOUT.columns[name] == "f8" else np.uint8
        columns[name] = np.array(column, dtype=dtype).reshape(shape)
    return colfmt.pack(LAYOUT, meta, columns)


def _validate_identity(meta: dict, scenario: Scenario, zoo: ModelZoo) -> None:
    """Identity checks for a trace entry's header meta (raises :class:`TraceSchemaError`).

    Everything verified here lives in the header, so the load path can
    validate without decoding any outcome columns.
    """
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = meta.get("algorithm_version")
    if algorithm != ALGORITHM_VERSION:
        raise TraceSchemaError(
            f"trace was built by algorithm version {algorithm!r}; this build produces "
            f"version {ALGORITHM_VERSION} — rebuild (delete the store entry)"
        )
    if meta.get("scenario_fingerprint") != scenario.fingerprint():
        raise TraceSchemaError(
            f"trace was built for a different scenario than {scenario.name!r} "
            "(fingerprint mismatch)"
        )
    if meta.get("zoo_fingerprint") != zoo.fingerprint():
        raise TraceSchemaError("trace was built against a different model zoo (fingerprint mismatch)")
    if meta.get("frame_count") != scenario.total_frames:
        raise TraceSchemaError(
            f"trace covers {meta.get('frame_count')!r} frames but scenario "
            f"{scenario.name!r} has {scenario.total_frames}"
        )


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


def _name_problem(name: str, meta: dict) -> str | None:
    """Why a decoded trace entry does not match its file name, or None.

    Scrub has no live scenario/zoo to compare against, so it verifies the
    *internal* identity discipline: schema and algorithm versions and the
    fingerprint prefixes baked into the file name.
    """
    if meta.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {meta.get('schema_version')!r} != {SCHEMA_VERSION}"
    parts = _entry_name_parts(name)
    if len(parts) != 4:
        return "file name does not parse as an entry name"
    if parts[1] != f"v{meta.get('algorithm_version')}":
        return (
            f"algorithm_version {meta.get('algorithm_version')!r} "
            f"does not match file name {parts[1]}"
        )
    fingerprint = meta.get("scenario_fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint.startswith(parts[2]):
        return "scenario fingerprint does not match file name"
    zoo_fingerprint = meta.get("zoo_fingerprint")
    if not isinstance(zoo_fingerprint, str) or not zoo_fingerprint.startswith(parts[3]):
        return "zoo fingerprint does not match file name"
    return None


class EntryStore(maintenance.MaintainedRoot):
    """A sharded directory of ``.col`` entries, content-addressed by digest.

    Entries live under ``root/<digest-prefix>/`` with advisory-lock–guarded
    atomic writes (:mod:`repro.runtime.shards`), so any number of
    processes, threads, and service workers can share one store.
    Subclasses are thin typed facades that own their format: :attr:`KIND`
    (the entry-name prefix), ``_decode`` (the one decoder: entry path ->
    ``(header meta, objects)``, raising
    :class:`~repro.runtime.colfmt.ColumnFormatError` for an entry it
    cannot decode and ``OSError`` for one it cannot read),
    ``_name_problem`` (a decoded entry's identity against its file name),
    and the :class:`~repro.runtime.maintenance.MaintainedRoot` hooks.  An
    entry the decoder cannot decode (torn by a crash, truncated disk, a
    value no encoder writes) is treated exactly like a missing one — a
    miss, counted in :attr:`corrupt_entries` and quarantined — while a
    well-formed entry that does not match its key is a loud schema error
    from the facade.  The worst outcome is a recompute, never a silently
    wrong result.
    """

    #: Entry-name prefix ("trace" / "run" / "bundle"); also labels errors.
    KIND: ClassVar[str]
    _decode: Callable[[Path], tuple[dict, object]]
    _name_problem: Callable[[str, dict], str | None]

    def __init__(self, root: str | Path) -> None:
        self._open_root(root, f"{self.KIND} store")
        #: Corrupt entries encountered (and quarantined) by this instance —
        #: a non-zero value after a sweep means a writer died mid-write or
        #: the disk corrupted an entry; each was re-treated as a miss.
        self.corrupt_entries = 0

    def _write(self, digest: str, name: str, data: bytes) -> Path:
        """Atomically persist ``data`` as entry ``name`` in ``digest``'s shard."""
        shard = shards.shard_dir(self.root, digest)
        with shards.shard_lock(shard):
            return shards.write_entry_locked(shard, name, data)

    def _read(self, path: Path, decode: Callable[[Path], _T]) -> _T | None:
        """``decode(path)`` of one entry under the read discipline all entries share.

        A missing entry is a miss.  So is one whose bytes cannot be read
        (an ``OSError`` after the seam's bounded retries, counted in
        ``io_errors``): unavailability is not evidence of corruption, and
        quarantining on it would destroy valid entries.  Only an entry
        that *does not decode*
        (:class:`~repro.runtime.colfmt.ColumnFormatError`) is corrupt: it
        is quarantined and counted, then the read is retried once, which
        serves an entry a concurrent writer just repaired (or misses).
        """
        for _ in range(2):
            try:
                return decode(path)
            except OSError:
                return None
            except colfmt.ColumnFormatError:
                self._quarantine(path, decode)
        return None

    def _quarantine(self, path: Path, decode: Callable[[Path], object]) -> None:
        """Quarantine one entry ``decode`` refused, counting it in :attr:`corrupt_entries`."""
        try:
            if shards.quarantine_corrupt_entry(self.root, path.parent, path.name, decode):
                self.corrupt_entries += 1
        except iolayer.StoreDegraded:
            # Quarantine bookkeeping hit a full disk: the entry is still
            # unservable, so this load is a miss either way.
            self.corrupt_entries += 1

    def _entry_problem(self, path: Path) -> str | None:
        """Scrub's and audit's check: the entry decodes and its identity matches its name."""
        try:
            meta, _ = self._decode(path)
        except colfmt.ColumnFormatError as exc:
            return f"unparseable ({exc})"
        return self._name_problem(path.name, meta)

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
    _digest_from_name = staticmethod(_digest_from_name)
    _name_problem = staticmethod(_name_problem)

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
        meta = _meta_to_dict(trace, zoo)
        fingerprint = meta["scenario_fingerprint"]
        return self._write(
            fingerprint, _trace_file_name(fingerprint, meta["zoo_fingerprint"]), _encode(trace, meta)
        )

    def _probe(self, path: Path) -> dict:
        """The header half of :meth:`_decode`: the meta, with no column read."""
        return colfmt.read_header(path, LAYOUT, root=self.root)["meta"]

    def _decode(self, path: Path) -> tuple[dict, dict[str, list[DetectionOutcome]]]:
        """The header meta and per-model outcomes of one trace entry."""
        from ..models.detector import DetectionOutcome

        meta, columns = colfmt.read_columns(path, LAYOUT, root=self.root)
        models = meta["models"]
        frames = meta["frame_count"] if models else 0
        fields = [colfmt.rows(columns["box"], 4)]
        fields += [columns[name] for name in LAYOUT.columns if name != "box"]
        outcomes = {}
        try:
            for m, model in enumerate(models):
                span = slice(m * frames, (m + 1) * frames)
                outcomes[model] = [
                    DetectionOutcome(model, BoundingBox(*box) if masked else None,
                                     confidence, iou, quality, bool(detected), bool(false_positive))
                    for box, masked, confidence, iou, quality, detected, false_positive
                    in zip(*(field[span] for field in fields))
                ]
        except ValueError as exc:  # a box no encoder writes: NaN or inverted corners
            raise colfmt.ColumnFormatError(f"trace outcomes do not decode: {exc}") from exc
        return meta, outcomes

    def load(self, scenario: Scenario, zoo: ModelZoo) -> ScenarioTrace | None:
        """Load the persisted trace for (scenario, zoo), or None if absent.

        Reads only the column header (identity checks live there); outcome
        columns decode lazily on first ``.outcomes`` access.  Misses and
        corrupt entries follow :meth:`EntryStore._read`.  When that first
        decode fails, the entry is quarantined and counted like any corrupt
        entry and ``.outcomes`` raises
        :class:`~repro.runtime.colfmt.ColumnFormatError` naming it: no
        corrupt outcome is served, and the next load is a miss.
        """
        path = self.path_for(scenario, zoo)
        meta = self._read(path, self._probe)
        if meta is None:
            return None
        _validate_identity(meta, scenario, zoo)
        from .trace import ScenarioTrace

        def load_outcomes() -> dict[str, list[DetectionOutcome]]:
            try:
                return self._decode(path)[1]
            except colfmt.ColumnFormatError as exc:
                self._quarantine(path, self._decode)
                raise colfmt.ColumnFormatError(f"trace entry {path.name}: {exc}") from exc

        return ScenarioTrace(scenario=scenario, frames=None, outcomes_loader=load_outcomes)

    def __contains__(self, key: tuple[Scenario, ModelZoo]) -> bool:
        scenario, zoo = key
        return self.path_for(scenario, zoo).exists()
