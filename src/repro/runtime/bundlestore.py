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

**Payload.**  :func:`bundle_entry_to_dict` is the identity block plus the
``--shift-bundle`` JSON form of the bundle
(:func:`~repro.characterization.serialization.bundle_to_dict`); the codec
(:func:`~repro.runtime.colfmt.encode_bundle`) keeps the trait tables in the
header and packs the observations into columns.  The bundle fingerprint is
never stored: a loaded bundle recomputes it from its own content.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..characterization.profiler import DEFAULT_PERF_REPEATS, CharacterizationBundle
from ..characterization.serialization import (
    BundleSchemaError,
    bundle_from_dict,
    bundle_to_dict,
)
from . import colfmt, iolayer, shards
from .store import EntryStore, digest_from_entry_name

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


def bundle_entry_to_dict(bundle: CharacterizationBundle, key: BundleKey) -> dict:
    """Plain-dict form of a stored bundle: identity block + the bundle itself."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": BUNDLE_ALGORITHM_VERSION,
        "zoo_fingerprint": key.zoo_fingerprint,
        "soc_fingerprint": key.soc_fingerprint,
        "validation_size": key.validation_size,
        "validation_seed": key.validation_seed,
        "perf_repeats": key.perf_repeats,
        "bundle": bundle_to_dict(bundle),
    }


def _version_problem(payload: dict) -> str | None:
    if payload.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {payload.get('schema_version')!r} != {SCHEMA_VERSION}"
    if payload.get("algorithm_version") != BUNDLE_ALGORITHM_VERSION:
        return (
            f"algorithm_version {payload.get('algorithm_version')!r} "
            f"!= {BUNDLE_ALGORITHM_VERSION}"
        )
    return None


def _validate_identity(payload: dict, key: BundleKey) -> None:
    problem = _version_problem(payload)
    if problem is not None:
        raise BundleSchemaError(f"stored bundle: {problem}")
    for label in _IDENTITY_FIELDS:
        if payload.get(label) != getattr(key, label):
            raise BundleSchemaError(f"stored bundle has a different {label} (key mismatch)")


def _bundle_file_name(digest: str) -> str:
    return f"bundle-v{BUNDLE_ALGORITHM_VERSION}-{digest[:32]}{colfmt.COL_SUFFIX}"


def _scrub_problem(name: str, payload: dict) -> str | None:
    """Why a parsed bundle entry is unsound, or None when it checks out.

    Rebuilds the key from the identity block (its digest must reproduce
    the file name) and the bundle from its block (it must parse).
    """
    problem = _version_problem(payload)
    if problem is not None:
        return problem
    try:
        key = BundleKey(**{label: payload[label] for label in _IDENTITY_FIELDS})
    except (KeyError, TypeError, ValueError) as exc:
        return f"identity block incomplete ({exc})"
    digest = digest_from_entry_name(name)
    if digest is not None and not key.digest().startswith(digest):
        return "recomputed bundle-key digest does not match file name"
    try:
        bundle_from_dict(payload.get("bundle"))
    except (BundleSchemaError, AttributeError) as exc:
        return f"bundle block does not parse ({exc})"
    return None


class BundleStore(EntryStore):
    """A sharded directory of characterization bundles, keyed by :class:`BundleKey`.

    Loads re-validate the identity block; a parseable entry that does not
    match its key is a loud :class:`BundleSchemaError`.  Torn entries are
    quarantined misses (:meth:`EntryStore._read`), so the worst outcome is
    one more characterization.
    """

    KIND = "bundle"
    ENTRY_GLOB = "bundle-*" + colfmt.COL_SUFFIX
    _encode = staticmethod(colfmt.encode_bundle)
    _digest_from_name = staticmethod(digest_from_entry_name)
    _scrub_problem = staticmethod(_scrub_problem)

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
        return self._write(digest, _bundle_file_name(digest), bundle_entry_to_dict(bundle, key))

    def load(self, key: BundleKey) -> CharacterizationBundle | None:
        """The stored bundle for ``key``, or None on a miss."""
        payload = self._read(
            self.path_for(key),
            lambda path: colfmt.decode_bundle(iolayer.read_bytes(path, root=self.root, map=True)),
        )
        if payload is None:
            return None
        _validate_identity(payload, key)
        return bundle_from_dict(payload["bundle"])

    def get(
        self, key: BundleKey, build: Callable[[], CharacterizationBundle]
    ) -> CharacterizationBundle:
        """Load the bundle, building (and persisting) it on a miss."""
        bundle = self.load(key)
        if bundle is None:
            bundle = build()
            self.save(bundle, key)
        return bundle
