"""On-disk persistence for characterization bundles: the offline phase, run once.

The paper's characterization (§III-A) runs once per (model zoo, platform)
and ships with the runtime.  A bundle persists in two forms, and both go
through the I/O seam (:mod:`repro.runtime.iolayer`), so fault plans,
retries and degraded-mode accounting cover them like any store entry.

**Bundle files.**  :func:`save_bundle` / :func:`load_bundle` read and
write the single-file JSON form
(:func:`~repro.characterization.serialization.bundle_to_dict`) that
``repro characterize --out`` writes, a ``serve --procs`` supervisor hands
its workers, and ``--shift-bundle`` loads.

**The bundle store.**  Without a store every process that needs the
SHIFT policy re-runs characterization — on a warm sweep whose runs are
all run-store hits, that is most of the wall time.  :class:`BundleStore`
is the third :class:`~repro.runtime.store.EntryStore` facade (next to the
trace and run stores): one ``.col`` entry per :class:`BundleKey`, written
once and loaded by every later process.

**Cache key.**  A bundle is a pure function of the zoo, the SoC, the
validation set (size and seed) and the number of timed inferences per
pair, so the key is those five values (the first two as content
fingerprints).  :data:`BUNDLE_ALGORITHM_VERSION` pins the profiling code
itself and is part of the file name, so bumping it orphans stale entries
(misses) rather than erroring on them.

**Layout.**  The store lives under ``<trace-store>/_characterization/``
(:data:`BUNDLE_DIR`), a root of its own like ``<run-store>/_queue``: its
name is not a two-hex shard, so the trace store's walks never enter it,
and ``repro store`` maintains it as its own ``characterization:`` root.

**Entry.**  Each file is a ``bundle`` container (:mod:`repro.runtime.colfmt`).
Its header meta (:func:`_meta_to_dict`) holds the identity block, the
bundle's trait tables (the accuracy, performance and load-cost half of
:func:`~repro.characterization.serialization.bundle_to_dict`), and the two
dict orders the bundle depends on, as lists: ``models`` (every
observation's readings order) and ``accuracy_models``.  The observations
are columns, in the order of :func:`_observation_row`: ``sample_index``
and ``difficulty`` [samples], ``confidence`` and ``iou`` [samples,
models].  The bundle fingerprint is never stored: a loaded bundle
recomputes it from its own content.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..characterization.profiler import (
    DEFAULT_PERF_REPEATS,
    CharacterizationBundle,
    ConfidenceObservation,
)
from ..characterization.serialization import (
    BundleSchemaError,
    bundle_from_dict,
    bundle_to_dict,
)
from . import colfmt, iolayer, shards
from .store import EntryStore, digest_from_entry_name, header_names

SCHEMA_VERSION = 1

# Version of the characterization algorithm (validation-set generator,
# profilers, performance seed).  Bump whenever a change alters a bundle
# built from the same key, or persisted bundles would masquerade as
# current ones.
BUNDLE_ALGORITHM_VERSION = 1

#: The bundle store's directory under a trace-store root.
BUNDLE_DIR = "_characterization"

_IDENTITY_FIELDS = (
    "zoo_fingerprint",
    "soc_fingerprint",
    "validation_size",
    "validation_seed",
    "perf_repeats",
)


@dataclass(frozen=True)
class BundleKey:
    """The content address of one characterization bundle."""

    zoo_fingerprint: str
    soc_fingerprint: str
    validation_size: int
    validation_seed: int
    perf_repeats: int = DEFAULT_PERF_REPEATS

    def __post_init__(self) -> None:
        for label in ("zoo_fingerprint", "soc_fingerprint"):
            if not getattr(self, label):
                raise ValueError(f"bundle key needs a non-empty {label}")

    def digest(self) -> str:
        """Combined digest used for the on-disk file name."""
        return hashlib.sha256(
            "|".join(str(getattr(self, label)) for label in _IDENTITY_FIELDS).encode("utf-8")
        ).hexdigest()


def save_bundle(bundle: CharacterizationBundle, path: str | Path) -> None:
    """Write a bundle as one JSON file through the seam (atomic, never torn).

    The file's directory is the root whose retries and degraded flag the
    write counts against.  ``NaN``/``Infinity`` are refused: they are not
    JSON.
    """
    iolayer.write_text(path, json.dumps(bundle_to_dict(bundle), allow_nan=False))


def load_bundle(path: str | Path) -> CharacterizationBundle:
    """Read a bundle written by :func:`save_bundle`, through the seam.

    Content that does not decode (torn, not JSON, not UTF-8) raises
    :class:`BundleSchemaError`; a file that cannot be read raises its
    ``OSError`` once the seam's retries are spent.
    """
    try:
        payload = json.loads(iolayer.read_text(path))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleSchemaError(f"bundle file does not decode: {exc}") from exc
    if not isinstance(payload, dict):
        raise BundleSchemaError("bundle file does not contain a JSON object")
    return bundle_from_dict(payload)


def _bundle_shapes(meta: dict, counts: dict[str, int]) -> dict[str, list[int]]:
    rows = [counts["sample_index"]]
    readings = [*rows, len(header_names(meta, "models"))]
    return {"sample_index": rows, "difficulty": rows, "confidence": readings, "iou": readings}


#: A bundle entry's columns, in packing order, with their dtype codes.
LAYOUT = colfmt.Layout(
    "bundle",
    {"sample_index": "i8", "difficulty": "f8", "confidence": "f8", "iou": "f8"},
    _bundle_shapes,
)


def _trait_tables(bundle: CharacterizationBundle) -> dict:
    """The bundle's JSON form without its observations (those are columns)."""
    tables = bundle_to_dict(dataclasses.replace(bundle, observations=[]))
    del tables["observations"]
    return tables


def _meta_to_dict(bundle: CharacterizationBundle, key: BundleKey, models: list[str]) -> dict:
    """The header meta of a bundle entry: identity, trait tables and dict orders."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": BUNDLE_ALGORITHM_VERSION,
        "zoo_fingerprint": key.zoo_fingerprint,
        "soc_fingerprint": key.soc_fingerprint,
        "validation_size": key.validation_size,
        "validation_seed": key.validation_seed,
        "perf_repeats": key.perf_repeats,
        "bundle": _trait_tables(bundle),
        "models": models,
        "accuracy_models": list(bundle.accuracy),
    }


def _observation_row(observation: ConfidenceObservation) -> list:
    """One observation's fields in column order (readings fill ``confidence`` and ``iou``)."""
    return [observation.sample_index, observation.difficulty, observation.readings]


def _encode(bundle: CharacterizationBundle, key: BundleKey) -> bytes:
    """A bundle entry: trait tables in the header, observations as columns.

    Every observation must read the same models in the same order (what
    ``characterize`` produces); anything else cannot fill the
    [samples, models] columns and raises
    :class:`~repro.runtime.colfmt.ColumnFormatError`.
    """
    import numpy as np

    rows = [_observation_row(observation) for observation in bundle.observations]
    models = list(rows[0][2]) if rows else []
    for i, (_, _, readings) in enumerate(rows):
        if list(readings) != models:
            raise colfmt.ColumnFormatError(
                f"observation {i} reads models {list(readings)}, expected {models}"
            )
    sample_index, difficulty, readings = zip(*rows) if rows else [()] * 3
    pairs = np.array([list(reading.values()) for reading in readings], dtype=np.float64)
    pairs = pairs.reshape(len(rows), len(models), 2)
    columns = {
        "sample_index": np.array(sample_index, dtype=np.int64),
        "difficulty": np.array(difficulty, dtype=np.float64),
        "confidence": pairs[:, :, 0],
        "iou": pairs[:, :, 1],
    }
    return colfmt.pack(LAYOUT, _meta_to_dict(bundle, key, models), columns)


def _version_problem(meta: dict) -> str | None:
    if meta.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {meta.get('schema_version')!r} != {SCHEMA_VERSION}"
    if meta.get("algorithm_version") != BUNDLE_ALGORITHM_VERSION:
        return (
            f"algorithm_version {meta.get('algorithm_version')!r} "
            f"!= {BUNDLE_ALGORITHM_VERSION}"
        )
    return None


def _validate_identity(meta: dict, key: BundleKey) -> None:
    problem = _version_problem(meta)
    if problem is not None:
        raise BundleSchemaError(f"stored bundle: {problem}")
    for label in _IDENTITY_FIELDS:
        if meta.get(label) != getattr(key, label):
            raise BundleSchemaError(f"stored bundle has a different {label} (key mismatch)")


def _bundle_file_name(digest: str) -> str:
    return f"bundle-v{BUNDLE_ALGORITHM_VERSION}-{digest[:32]}{colfmt.COL_SUFFIX}"


def _name_problem(name: str, meta: dict) -> str | None:
    """Why a decoded bundle entry does not match its file name, or None.

    Rebuilds the key from the header's identity block; its digest must
    reproduce the file name.
    """
    problem = _version_problem(meta)
    if problem is not None:
        return problem
    try:
        key = BundleKey(**{label: meta[label] for label in _IDENTITY_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        return f"identity block incomplete ({exc})"
    digest = digest_from_entry_name(name)
    if digest is not None and not key.digest().startswith(digest):
        return "recomputed bundle-key digest does not match file name"
    return None


class BundleStore(EntryStore):
    """A sharded directory of characterization bundles, keyed by :class:`BundleKey`.

    Loads re-validate the identity block; a well-formed entry that does not
    match its key is a loud :class:`BundleSchemaError`.  An entry that does
    not decode (torn, or trait tables the bundle form does not accept) is
    a quarantined miss (:meth:`EntryStore._read`), so the worst outcome is
    one more characterization.
    """

    KIND = "bundle"
    ENTRY_GLOB = "bundle-*" + colfmt.COL_SUFFIX
    _digest_from_name = staticmethod(digest_from_entry_name)
    _name_problem = staticmethod(_name_problem)

    @classmethod
    def under(cls, trace_store: str | Path) -> BundleStore:
        """The bundle store that rides along with a trace store."""
        return cls(Path(trace_store) / BUNDLE_DIR)

    def path_for(self, key: BundleKey) -> Path:
        """The (sharded) file a bundle persists to."""
        digest = key.digest()
        return shards.shard_dir(self.root, digest) / _bundle_file_name(digest)

    def save(self, bundle: CharacterizationBundle, key: BundleKey) -> Path:
        """Persist a bundle; returns the file written."""
        digest = key.digest()
        return self._write(digest, _bundle_file_name(digest), _encode(bundle, key))

    def _decode(self, path: Path) -> tuple[dict, CharacterizationBundle]:
        """The header meta and the bundle of one bundle entry."""
        meta, columns = colfmt.read_columns(path, LAYOUT, root=self.root)
        try:
            tables = dict(meta["bundle"])
            tables["accuracy"] = {
                name: tables["accuracy"][name] for name in meta["accuracy_models"]
            }
            bundle = bundle_from_dict({**tables, "observations": []})
        except (BundleSchemaError, LookupError, TypeError, ValueError) as exc:
            raise colfmt.ColumnFormatError(f"bundle trait tables do not decode: {exc}") from exc
        models = meta["models"]
        width = len(models)
        pairs = list(zip(columns["confidence"], columns["iou"]))
        bundle.observations = [
            ConfidenceObservation(
                index, difficulty, dict(zip(models, pairs[i * width : (i + 1) * width]))
            )
            for i, (index, difficulty)
            in enumerate(zip(columns["sample_index"], columns["difficulty"]))
        ]
        return meta, bundle

    def load(self, key: BundleKey) -> CharacterizationBundle | None:
        """The stored bundle for ``key``, or None on a miss."""
        decoded = self._read(self.path_for(key), self._decode)
        if decoded is None:
            return None
        meta, bundle = decoded
        _validate_identity(meta, key)
        return bundle

    def get(
        self, key: BundleKey, build: Callable[[], CharacterizationBundle]
    ) -> CharacterizationBundle:
        """Load the bundle, building (and persisting) it on a miss."""
        bundle = self.load(key)
        if bundle is None:
            bundle = build()
            self.save(bundle, key)
        return bundle
