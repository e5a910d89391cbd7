"""On-disk persistence for finished policy runs.

A finished policy run is a pure function of its inputs, so it is worth
keeping: every cell the executor
(:class:`~repro.runtime.experiment.ExperimentRunner`) runs — a table row,
a figure series, a sensitivity point, ``repro run``, a served or queued
job — can be persisted here and reloaded by any later process instead of
replayed.  This module is the run tier's analogue of
:class:`~repro.runtime.store.TraceStore` and shares its
:class:`~repro.runtime.store.EntryStore` base: schema-validated binary
columnar entries (:mod:`repro.runtime.colfmt`), content-addressed, atomic
writes.

**Cache key.**  A run's frame records are a pure function of four inputs,
so a persisted run is keyed by the tuple of their content fingerprints
(plus the policy's display name, which labels the persisted rows):

``policy_fingerprint``
    :meth:`~repro.core.policy.Policy.fingerprint` — the policy's full
    configuration (for SHIFT: config knobs + characterization bundle +
    confidence graph content).  Retuning any knob changes the digest.
``scenario_fingerprint`` / ``zoo_fingerprint``
    together they identify the *trace* the policy ran over (the same pair
    of digests the trace store keys by): scenario script + every model's
    parameterization.
``soc_fingerprint``
    :meth:`~repro.sim.soc.SoC.fingerprint` — the platform configuration
    (accelerators, memory budgets, power rails, schedulability).
``engine_seed``
    the execution engine's jitter stream seed.

Change any one of the five and the key misses; nothing is ever
invalidated in place.  :data:`RUN_ALGORITHM_VERSION` additionally pins the
run-producing code itself (scheduler semantics, engine jitter model):
bumping it orphans stale files, which are then treated as misses.

**Entry.**  Each file is a ``run`` container (:mod:`repro.runtime.colfmt`).
Its header meta (:func:`_meta_to_dict`) holds the identity block,
``frame_count``, the pre-aggregated
:class:`~repro.runtime.metrics.RunMetrics` (:func:`_metrics_row`) and the
sorted ``model_names`` / ``accelerator_names`` vocabularies; its columns
hold one value per frame record, in the order of :func:`_frame_row`
(names as ``model_code`` / ``accel_code`` into the vocabularies, the box
as ``box`` + ``box_mask``).  Sweeps that only need metrics (tables,
figures, fuzz sweeps) hit :meth:`RunStore.load_metrics`, which reads the
header and skips rebuilding :class:`~repro.core.records.FrameRecord`
objects entirely — that is what makes a warm sweep as cheap as a trace
reload.  Floats survive the round-trip exactly (float64 columns; the
metrics sit in the JSON header in shortest-round-trip repr), so a warm
sweep is bit-identical to a cold one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..vision.bbox import BoundingBox
from . import colfmt, shards
from .metrics import RunMetrics, aggregate
from .store import EntryStore, box_columns, digest_from_entry_name, header_names
from ..core.records import FrameRecord, RunResult

SCHEMA_VERSION = 1

# Version of the run-producing algorithm (scheduler heuristics, engine
# jitter model, loader policy).  Fingerprints pin what a run was built
# FROM; this pins what it was built WITH.  Bump whenever a code change
# alters frame records, or stale runs would masquerade as current.
RUN_ALGORITHM_VERSION = 1


class RunSchemaError(ValueError):
    """Raised when a persisted run does not match its key."""


@dataclass(frozen=True)
class RunKey:
    """The content address of one policy run.

    ``policy_name`` is part of the key even though it never changes frame
    records: the name is baked into the persisted result/metrics rows, so
    an identically configured policy under a different display name must
    miss rather than return rows labelled with the stale name.
    """

    policy_name: str
    policy_fingerprint: str
    scenario_fingerprint: str
    zoo_fingerprint: str
    soc_fingerprint: str
    engine_seed: int

    def __post_init__(self) -> None:
        for label in ("policy_name", "policy_fingerprint", "scenario_fingerprint",
                      "zoo_fingerprint", "soc_fingerprint"):
            if not getattr(self, label):
                raise ValueError(f"run key needs a non-empty {label}")

    def digest(self) -> str:
        """Combined digest used for the on-disk file name."""
        return hashlib.sha256(
            "|".join(
                (
                    self.policy_name,
                    self.policy_fingerprint,
                    self.scenario_fingerprint,
                    self.zoo_fingerprint,
                    self.soc_fingerprint,
                    str(self.engine_seed),
                )
            ).encode("utf-8")
        ).hexdigest()


def _metrics_row(metrics: RunMetrics) -> dict:
    """RunMetrics as a flat dict keyed by its own field names."""
    return {
        "policy_name": metrics.policy_name,
        "scenario_name": metrics.scenario_name,
        "frames": metrics.frames,
        "mean_iou": metrics.mean_iou,
        "success_rate": metrics.success_rate,
        "mean_latency_s": metrics.mean_latency_s,
        "mean_energy_j": metrics.mean_energy_j,
        "total_energy_j": metrics.total_energy_j,
        "non_gpu_share": metrics.non_gpu_share,
        "swaps": metrics.swaps,
        "cold_loads": metrics.cold_loads,
        "pairs_used": metrics.pairs_used,
        "mean_overhead_s": metrics.mean_overhead_s,
        "detected_share": metrics.detected_share,
    }


#: Record fields stored as float64 columns, then as one-byte flags, in column order.
_FLOAT_FIELDS = (
    "confidence", "iou", "latency_s", "inference_s", "stall_s", "overhead_s", "energy_j",
    "similarity",
)
_FLAG_FIELDS = (
    "ground_truth_present", "detected", "swap", "cold_load", "used_tracker", "rescheduled",
)


def _run_shapes(meta: dict, counts: dict[str, int]) -> dict[str, list[int]]:
    rows = [meta.get("frame_count")]
    return {name: rows for name in LAYOUT.columns} | {"box": [*rows, 4]}


#: A run entry's columns, in packing order, with their dtype codes: the
#: per-record codes into the header's model and accelerator vocabularies,
#: the box and its mask, then the float fields and the flags.
LAYOUT = colfmt.Layout(
    "run",
    {"frame_index": "i8", "model_code": "u2", "accel_code": "u2", "box": "f8", "box_mask": "u1",
     **dict.fromkeys(_FLOAT_FIELDS, "f8"), **dict.fromkeys(_FLAG_FIELDS, "u1")},
    _run_shapes,
)


def _meta_to_dict(result: RunResult, key: RunKey) -> dict:
    """The header meta of a run entry: identity, metrics and the record vocabularies."""
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm_version": RUN_ALGORITHM_VERSION,
        "policy_name": result.policy_name,
        "scenario_name": result.scenario_name,
        "policy_fingerprint": key.policy_fingerprint,
        "scenario_fingerprint": key.scenario_fingerprint,
        "zoo_fingerprint": key.zoo_fingerprint,
        "soc_fingerprint": key.soc_fingerprint,
        "engine_seed": key.engine_seed,
        "frame_count": result.frame_count,
        "metrics": _metrics_row(aggregate(result)),
        "model_names": sorted({record.model_name for record in result.records}),
        "accelerator_names": sorted({record.accelerator_name for record in result.records}),
    }


def _frame_row(record: FrameRecord) -> list:
    """One frame record's fields in column order (names become vocabulary codes)."""
    return [
        record.frame_index,
        record.model_name,
        record.accelerator_name,
        record.box,
        record.confidence,
        record.iou,
        record.latency_s,
        record.inference_s,
        record.stall_s,
        record.overhead_s,
        record.energy_j,
        record.similarity,
        record.ground_truth_present,
        record.detected,
        record.swap,
        record.cold_load,
        record.used_tracker,
        record.rescheduled,
    ]


def _encode(result: RunResult, key: RunKey) -> bytes:
    """A run entry: the header meta (metrics included), then one column per record field.

    Metrics stay in the header — :meth:`RunStore.load_metrics` (the
    warm-sweep hot path) decodes ≤4 KiB and never touches the record
    columns.
    """
    import numpy as np

    meta = _meta_to_dict(result, key)
    index, models, accelerators, boxes, *values = zip(*map(_frame_row, result.records))
    floats, flags = values[: len(_FLOAT_FIELDS)], values[len(_FLOAT_FIELDS) :]
    model_code = {name: code for code, name in enumerate(meta["model_names"])}
    accel_code = {name: code for code, name in enumerate(meta["accelerator_names"])}
    box, box_mask = box_columns(boxes, (len(boxes),))
    columns = {
        "frame_index": np.array(index, dtype=np.int64),
        "model_code": np.array([model_code[name] for name in models], dtype=np.uint16),
        "accel_code": np.array([accel_code[name] for name in accelerators], dtype=np.uint16),
        "box": box,
        "box_mask": box_mask,
    }
    for name, column in zip(_FLOAT_FIELDS, floats, strict=True):
        columns[name] = np.array(column, dtype=np.float64)
    for name, column in zip(_FLAG_FIELDS, flags, strict=True):
        columns[name] = np.array(column, dtype=bool).astype(np.uint8)
    return colfmt.pack(LAYOUT, meta, columns)


def _decode_metrics(meta: dict) -> RunMetrics:
    """The pre-aggregated metrics block of a run entry's header meta."""
    try:
        return RunMetrics(**meta["metrics"])
    except (KeyError, TypeError) as exc:
        raise colfmt.ColumnFormatError(f"run metrics do not decode: {exc!r}") from exc


def _validate_identity(meta: dict, key: RunKey) -> None:
    """A run entry's identity against ``key`` (raises :class:`RunSchemaError`)."""
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise RunSchemaError(
            f"unsupported run schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = meta.get("algorithm_version")
    if algorithm != RUN_ALGORITHM_VERSION:
        raise RunSchemaError(
            f"run was produced by algorithm version {algorithm!r}; this build produces "
            f"version {RUN_ALGORITHM_VERSION} — rerun (delete the store entry)"
        )
    for label in ("policy_name", "policy_fingerprint", "scenario_fingerprint",
                  "zoo_fingerprint", "soc_fingerprint"):
        if meta.get(label) != getattr(key, label):
            raise RunSchemaError(f"persisted run has a different {label} (key mismatch)")
    if meta.get("engine_seed") != key.engine_seed:
        raise RunSchemaError("persisted run used a different engine seed (key mismatch)")


def _run_file_name(digest: str) -> str:
    """The entry file name for one run-key digest.

    The algorithm version is part of the name, so bumping it orphans
    stale files (treated as misses) rather than erroring on them.
    """
    return f"run-v{RUN_ALGORITHM_VERSION}-{digest[:32]}{colfmt.COL_SUFFIX}"


def _name_problem(name: str, meta: dict) -> str | None:
    """Why a decoded run entry does not match its file name, or None.

    The strongest check a scrub can make without replaying the run:
    rebuild the :class:`RunKey` from the header's identity block and
    require its digest to reproduce the file name — an entry whose
    fingerprints were tampered with (or torn into another entry's slot)
    cannot pass.
    """
    if meta.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {meta.get('schema_version')!r} != {SCHEMA_VERSION}"
    if meta.get("algorithm_version") != RUN_ALGORITHM_VERSION:
        return (
            f"algorithm_version {meta.get('algorithm_version')!r} "
            f"!= {RUN_ALGORITHM_VERSION}"
        )
    try:
        key = RunKey(
            policy_name=meta["policy_name"],
            policy_fingerprint=meta["policy_fingerprint"],
            scenario_fingerprint=meta["scenario_fingerprint"],
            zoo_fingerprint=meta["zoo_fingerprint"],
            soc_fingerprint=meta["soc_fingerprint"],
            engine_seed=meta["engine_seed"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        return f"identity block incomplete ({exc})"
    digest = digest_from_entry_name(name)
    if digest is not None and not key.digest().startswith(digest):
        return "recomputed run-key digest does not match file name"
    return None


class RunStore(EntryStore):
    """A sharded directory of persisted policy runs, content-addressed by run key.

    Entries shard by run-key-digest prefix under ``root/<2-hex>/`` (see
    :class:`~repro.runtime.store.EntryStore`), so service worker threads,
    queue worker processes, and separate invocations can race on the
    same keys and only ever leave complete files behind.  Loads
    re-validate the full identity block: a well-formed entry that does
    not match its key is a loud :class:`RunSchemaError`.  Never a
    silently wrong run.
    """

    KIND = "run"
    ENTRY_GLOB = "run-*" + colfmt.COL_SUFFIX
    _digest_from_name = staticmethod(digest_from_entry_name)
    _name_problem = staticmethod(_name_problem)

    def path_for(self, key: RunKey) -> Path:
        """The (sharded) file a run persists to."""
        digest = key.digest()
        return shards.shard_dir(self.root, digest) / _run_file_name(digest)

    def save(self, result: RunResult, key: RunKey) -> Path:
        """Persist a finished run; returns the file written."""
        digest = key.digest()
        return self._write(digest, _run_file_name(digest), _encode(result, key))

    def commit(self, result: RunResult, key: RunKey) -> tuple[Path, bool]:
        """Idempotently persist a run: ``(path, True)`` only for the first commit.

        The at-most-once-in-effect primitive for crash-safe execution: a
        re-executed job (lease expired, worker killed after ``save`` but
        before acknowledging) produces bit-identical content, so a second
        commit observes the existing readable entry and writes nothing.
        A torn entry left by a crashed writer is quarantined by the
        ``load_metrics`` probe and then overwritten — corrupt bytes are
        never served and never block a retry.
        """
        if self.load_metrics(key) is not None:
            return self.path_for(key), False
        return self.save(result, key), True

    def _probe(self, path: Path) -> tuple[dict, RunMetrics]:
        """The header half of :meth:`_decode`: the meta and its metrics, no column read."""
        meta = colfmt.read_header(path, LAYOUT, root=self.root)["meta"]
        return meta, _decode_metrics(meta)

    def _decode(self, path: Path) -> tuple[dict, RunResult]:
        """The header meta and the finished run of one run entry."""
        meta, columns = colfmt.read_columns(path, LAYOUT, root=self.root)
        _decode_metrics(meta)  # the header half: metrics that do not decode are corrupt here too
        model_names = header_names(meta, "model_names")
        accelerator_names = header_names(meta, "accelerator_names")
        try:
            models = [model_names[code] for code in columns["model_code"]]
            accelerators = [accelerator_names[code] for code in columns["accel_code"]]
            records = [
                FrameRecord(index, model, accelerator, BoundingBox(*box) if masked else None,
                            confidence, iou, bool(truth), bool(detected), latency, inference,
                            stall, overhead, energy, bool(swap), bool(cold), bool(tracked),
                            bool(rescheduled), similarity)
                for (index, model, accelerator, box, masked, confidence, iou, latency,
                     inference, stall, overhead, energy, similarity, truth, detected, swap,
                     cold, tracked, rescheduled) in zip(
                    columns["frame_index"], models, accelerators,
                    colfmt.rows(columns["box"], 4), columns["box_mask"],
                    *(columns[name] for name in (*_FLOAT_FIELDS, *_FLAG_FIELDS)),
                )
            ]
            result = RunResult(meta["policy_name"], meta["scenario_name"], records)
        except (LookupError, ValueError) as exc:
            raise colfmt.ColumnFormatError(f"run records do not decode: {exc!r}") from exc
        return meta, result

    def load(self, key: RunKey) -> RunResult | None:
        """Load the persisted run for ``key``, or None if absent.

        An entry that does not decode (torn by a crash, a value no encoder
        writes) is a miss too — counted in :attr:`corrupt_entries` and
        quarantined, never served.
        """
        decoded = self._read(self.path_for(key), self._decode)
        if decoded is None:
            return None
        meta, result = decoded
        _validate_identity(meta, key)
        return result

    def load_metrics(self, key: RunKey) -> RunMetrics | None:
        """Load only the pre-aggregated metrics of a persisted run.

        The warm-sweep fast path: the identity block and metrics live in
        the entry's few-KiB column header, so the record columns are never
        read regardless of run length.
        """
        decoded = self._read(self.path_for(key), self._probe)
        if decoded is None:
            return None
        meta, metrics = decoded
        _validate_identity(meta, key)
        return metrics

    def __contains__(self, key: RunKey) -> bool:
        return self.path_for(key).exists()
