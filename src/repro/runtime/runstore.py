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

**Payload.**  Each file stores the full per-frame record rows *and* the
pre-aggregated :class:`~repro.runtime.metrics.RunMetrics` dict.  Sweeps
that only need metrics (tables, figures, fuzz drivers) hit
:meth:`RunStore.load_metrics`, which skips rebuilding
:class:`~repro.core.records.FrameRecord` objects entirely — that is
what makes a warm sweep as cheap as a trace reload.  Floats survive the
round-trip exactly (float64 columns; the metrics sit in the JSON header
in shortest-round-trip repr), so a warm sweep is bit-identical to a cold
one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from ..vision.bbox import BoundingBox
from . import colfmt, iolayer, shards
from .metrics import RunMetrics, aggregate
from .store import EntryStore, digest_from_entry_name
from ..core.records import FrameRecord, RunResult

SCHEMA_VERSION = 1

# Version of the run-producing algorithm (scheduler heuristics, engine
# jitter model, loader policy).  Fingerprints pin what a run was built
# FROM; this pins what it was built WITH.  Bump whenever a code change
# alters frame records, or stale runs would masquerade as current.
RUN_ALGORITHM_VERSION = 1


class RunSchemaError(ValueError):
    """Raised when a persisted run cannot be understood or doesn't match."""


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


def _record_row(record: FrameRecord) -> list:
    """One compact JSON row per frame record (field order is the schema)."""
    return [
        record.frame_index,
        record.model_name,
        record.accelerator_name,
        None if record.box is None else [record.box.x1, record.box.y1,
                                         record.box.x2, record.box.y2],
        record.confidence,
        record.iou,
        record.ground_truth_present,
        record.detected,
        record.latency_s,
        record.inference_s,
        record.stall_s,
        record.overhead_s,
        record.energy_j,
        record.swap,
        record.cold_load,
        record.used_tracker,
        record.rescheduled,
        record.similarity,
    ]


def _record_from_row(row: list) -> FrameRecord:
    return FrameRecord(
        frame_index=row[0],
        model_name=row[1],
        accelerator_name=row[2],
        box=None if row[3] is None else BoundingBox(*row[3]),
        confidence=row[4],
        iou=row[5],
        ground_truth_present=row[6],
        detected=row[7],
        latency_s=row[8],
        inference_s=row[9],
        stall_s=row[10],
        overhead_s=row[11],
        energy_j=row[12],
        swap=row[13],
        cold_load=row[14],
        used_tracker=row[15],
        rescheduled=row[16],
        similarity=row[17],
    )


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


def run_to_dict(result: RunResult, key: RunKey) -> dict:
    """Plain-dict form of a finished run (JSON-compatible)."""
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
        "records": [_record_row(record) for record in result.records],
    }


def _validate_identity(payload: dict, key: RunKey) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise RunSchemaError(
            f"unsupported run schema {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    algorithm = payload.get("algorithm_version")
    if algorithm != RUN_ALGORITHM_VERSION:
        raise RunSchemaError(
            f"run was produced by algorithm version {algorithm!r}; this build produces "
            f"version {RUN_ALGORITHM_VERSION} — rerun (delete the store entry)"
        )
    for label in ("policy_name", "policy_fingerprint", "scenario_fingerprint",
                  "zoo_fingerprint", "soc_fingerprint"):
        if payload.get(label) != getattr(key, label):
            raise RunSchemaError(f"persisted run has a different {label} (key mismatch)")
    if payload.get("engine_seed") != key.engine_seed:
        raise RunSchemaError("persisted run used a different engine seed (key mismatch)")


def run_from_dict(payload: dict, key: RunKey) -> RunResult:
    """Rebuild a run from its dict form, validating identity and shape."""
    _validate_identity(payload, key)
    try:
        records = [_record_from_row(row) for row in payload["records"]]
        result = RunResult(
            policy_name=payload["policy_name"],
            scenario_name=payload["scenario_name"],
            records=records,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise RunSchemaError(f"malformed run payload: {exc}") from exc
    if payload.get("frame_count") != result.frame_count:
        raise RunSchemaError(
            f"run payload declares {payload.get('frame_count')!r} frames but carries "
            f"{result.frame_count} records"
        )
    return result


def metrics_from_dict(payload: dict, key: RunKey) -> RunMetrics:
    """The pre-aggregated metrics block of a persisted run."""
    _validate_identity(payload, key)
    try:
        return RunMetrics(**payload["metrics"])
    except (KeyError, TypeError) as exc:
        raise RunSchemaError(f"malformed run metrics: {exc}") from exc


def _run_file_name(digest: str) -> str:
    """The entry file name for one run-key digest.

    The algorithm version is part of the name, so bumping it orphans
    stale files (treated as misses) rather than erroring on them.
    """
    return f"run-v{RUN_ALGORITHM_VERSION}-{digest[:32]}{colfmt.COL_SUFFIX}"


def _scrub_problem(name: str, payload: dict) -> str | None:
    """Why a parsed run entry is unsound, or None when it checks out.

    The strongest check a scrub can make without replaying the run:
    rebuild the :class:`RunKey` from the payload's identity block and
    require its digest to reproduce the file name — a payload whose
    fingerprints were tampered with (or torn into another entry's slot)
    cannot pass.
    """
    if payload.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {payload.get('schema_version')!r} != {SCHEMA_VERSION}"
    if payload.get("algorithm_version") != RUN_ALGORITHM_VERSION:
        return (
            f"algorithm_version {payload.get('algorithm_version')!r} "
            f"!= {RUN_ALGORITHM_VERSION}"
        )
    try:
        key = RunKey(
            policy_name=payload["policy_name"],
            policy_fingerprint=payload["policy_fingerprint"],
            scenario_fingerprint=payload["scenario_fingerprint"],
            zoo_fingerprint=payload["zoo_fingerprint"],
            soc_fingerprint=payload["soc_fingerprint"],
            engine_seed=payload["engine_seed"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        return f"identity block incomplete ({exc})"
    digest = digest_from_entry_name(name)
    if digest is not None and not key.digest().startswith(digest):
        return "recomputed run-key digest does not match file name"
    records = payload.get("records")
    if not isinstance(records, list):
        return "records block is not a list"
    if payload.get("frame_count") != len(records):
        return (
            f"frame_count {payload.get('frame_count')!r} does not match "
            f"{len(records)} records"
        )
    if not isinstance(payload.get("metrics"), dict):
        return "metrics block is not an object"
    return None


class RunStore(EntryStore):
    """A sharded directory of persisted policy runs, content-addressed by run key.

    Entries shard by run-key-digest prefix under ``root/<2-hex>/`` (see
    :class:`~repro.runtime.store.EntryStore`), so service worker threads,
    parallel sweep workers, and whole separate processes can race on the
    same keys and only ever leave complete files behind.  Loads
    re-validate the full identity block: a parseable entry that does not
    match its key is a loud :class:`RunSchemaError`.  Never a silently
    wrong run.
    """

    KIND = "run"
    ENTRY_GLOB = "run-*" + colfmt.COL_SUFFIX
    _encode = staticmethod(colfmt.encode_run)
    _digest_from_name = staticmethod(digest_from_entry_name)
    _scrub_problem = staticmethod(_scrub_problem)

    def path_for(self, key: RunKey) -> Path:
        """The (sharded) file a run persists to."""
        digest = key.digest()
        return shards.shard_dir(self.root, digest) / _run_file_name(digest)

    def save(self, result: RunResult, key: RunKey) -> Path:
        """Persist a finished run; returns the file written."""
        digest = key.digest()
        return self._write(digest, _run_file_name(digest), run_to_dict(result, key))

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

    def load(self, key: RunKey) -> RunResult | None:
        """Load the persisted run for ``key``, or None if absent.

        Unreadable entries (torn by a crash) are misses too — counted in
        :attr:`corrupt_entries` and quarantined, never served.
        """
        payload = self._read(
            self.path_for(key),
            lambda path: colfmt.decode_run(iolayer.read_bytes(path, root=self.root, map=True)),
        )
        return None if payload is None else run_from_dict(payload, key)

    def load_metrics(self, key: RunKey) -> RunMetrics | None:
        """Load only the pre-aggregated metrics of a persisted run.

        The warm-sweep fast path: the identity block and metrics live in
        the entry's few-KiB column header, so the record columns are never
        read regardless of run length.
        """
        payload = self._read(
            self.path_for(key), lambda path: colfmt.read_run_header(path, root=self.root)
        )
        return None if payload is None else metrics_from_dict(payload, key)

    def __contains__(self, key: RunKey) -> bool:
        return self.path_for(key).exists()
