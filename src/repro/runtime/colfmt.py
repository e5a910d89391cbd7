"""Schema-versioned binary columnar format for trace, run, and bundle entries.

ROADMAP item 2: JSON entries made the warm path parse-bound — reloading a
trace spent its time in ``json.loads`` plus per-row object rebuild, and a
warm sweep re-parsed every record it had already computed.  This module
packs the bulk per-frame data of an entry into typed, C-contiguous
*columns* (one ndarray per field) appended after a small JSON header, so
a reload is a header parse plus zero-copy ``np.frombuffer`` views over an
``mmap`` — no token stream, no row loop until a caller actually asks for
the rows.

Container layout (little-endian throughout)::

    offset 0   MAGIC            8 bytes   b"RPROCOL1"
    offset 8   header length    u32 LE    byte length of the header JSON
    offset 12  header JSON      utf-8     {"colfmt_version", "kind",
                                           "meta", "columns": [...]}
    ...        padding          zeros     to a 64-byte boundary
    data_start column payload             each column 16-byte aligned,
                                          offsets relative to data_start

The header is ordinary strict JSON (via :mod:`repro.util.jsonsafe`, so a
NaN metric cannot corrupt it) holding everything *small*: schema and
algorithm versions, fingerprints, metrics, vocabularies — exactly the
fields maintenance sweeps and warm metric reads need.  ``meta`` is the
entry's JSON payload minus its bulk field (``outcomes`` for traces,
``records`` for runs, the bundle's ``observations`` for characterization
bundles), which lives in the columns.  That split is the
whole speed story: :meth:`RunStore.load_metrics` and the trace identity
checks read ≤4 KiB of header and never touch a column byte.

Decoding goes back to *pure Python* values (``.tolist()``), so a decoded
payload is bit-identical to the ``trace_to_dict``/``run_to_dict`` payload
that was encoded — the property the ``store``/``fastrun`` differential
checks assert.

Like every persistence-tier module, writes and reads route through the
:mod:`repro.runtime.iolayer` seam; this module itself only encodes and
decodes buffers plus offers :func:`load_entry_payload` as the
suffix-dispatching read used by maintenance/quarantine/audit (``.col``
entries and the job queue's JSON records).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..util import jsonsafe
from . import iolayer

#: Version of the container + column schemas; pinned in analysis/schema_manifest.json.
COLFMT_SCHEMA_VERSION = 1

#: File magic: 8 bytes, embeds the container major version.
MAGIC = b"RPROCOL1"

#: Suffix of binary column entries.
COL_SUFFIX = ".col"

#: Alignment of the data segment start and of each column within it.
_DATA_ALIGN = 64
_COL_ALIGN = 16

#: Bytes read when probing a file for its header; headers are far smaller.
_HEADER_PROBE = 4096


class ColumnFormatError(ValueError):
    """A ``.col`` buffer that cannot be decoded: bad magic, version, bounds."""


#: Exceptions that mean *corrupt entry* (quarantine), as opposed to an
#: ``OSError`` which means *unavailable entry* (miss, never quarantine).
PARSE_ERRORS = (json.JSONDecodeError, UnicodeDecodeError, ColumnFormatError)


def column_to_dict(name: str, array: np.ndarray, offset: int) -> dict:
    """Header descriptor for one packed column (field order is pinned)."""
    return {
        "name": name,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "offset": offset,
        "nbytes": array.nbytes,
    }


def _pack(kind: str, meta: dict, columns: list[tuple[str, np.ndarray]]) -> bytes:
    """Assemble the container: header JSON, padding, aligned column payload."""
    descriptors = []
    offset = 0
    for name, array in columns:
        offset = -(-offset // _COL_ALIGN) * _COL_ALIGN
        descriptors.append(column_to_dict(name, array, offset))
        offset += array.nbytes
    header = jsonsafe.dumps(
        {
            "colfmt_version": COLFMT_SCHEMA_VERSION,
            "kind": kind,
            "meta": meta,
            "columns": descriptors,
        },
        sort_keys=True,
    ).encode("utf-8")
    data_start = -(-(len(MAGIC) + 4 + len(header)) // _DATA_ALIGN) * _DATA_ALIGN
    out = bytearray(data_start + offset)
    out[: len(MAGIC)] = MAGIC
    out[len(MAGIC) : len(MAGIC) + 4] = len(header).to_bytes(4, "little")
    out[len(MAGIC) + 4 : len(MAGIC) + 4 + len(header)] = header
    for descriptor, (_, array) in zip(descriptors, columns):
        start = data_start + descriptor["offset"]
        out[start : start + array.nbytes] = np.ascontiguousarray(array).tobytes()
    return bytes(out)


def _parse_header(buffer, *, size: int | None = None) -> tuple[dict, int]:
    """Validate magic/version and return ``(header, data_start)``.

    Raises :class:`ColumnFormatError` for anything that cannot be a valid
    container — truncation, wrong magic, bad version, malformed header
    JSON, or a column descriptor pointing past ``size``: the length of the
    whole file, which defaults to ``len(buffer)`` (``buffer`` *is* the
    file) and is passed explicitly when ``buffer`` is a prefix probe.
    """
    if len(buffer) < len(MAGIC) + 4:
        raise ColumnFormatError(f"buffer too short for container ({len(buffer)} bytes)")
    if bytes(buffer[: len(MAGIC)]) != MAGIC:
        raise ColumnFormatError("bad magic: not a column-format entry")
    header_len = int.from_bytes(bytes(buffer[len(MAGIC) : len(MAGIC) + 4]), "little")
    header_end = len(MAGIC) + 4 + header_len
    if header_len <= 0 or header_end > len(buffer):
        raise ColumnFormatError(f"header length {header_len} exceeds buffer")
    try:
        header = jsonsafe.loads(bytes(buffer[len(MAGIC) + 4 : header_end]).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ColumnFormatError(f"unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ColumnFormatError("header is not a JSON object")
    if header.get("colfmt_version") != COLFMT_SCHEMA_VERSION:
        raise ColumnFormatError(f"unsupported colfmt_version {header.get('colfmt_version')!r}")
    data_start = -(-header_end // _DATA_ALIGN) * _DATA_ALIGN
    limit = len(buffer) if size is None else size
    for descriptor in header.get("columns", ()):
        if not isinstance(descriptor, dict):
            raise ColumnFormatError("column descriptor is not an object")
        end = data_start + descriptor.get("offset", 0) + descriptor.get("nbytes", 0)
        if descriptor.get("offset", -1) < 0 or end > limit:
            raise ColumnFormatError(f"column {descriptor.get('name')!r} out of bounds")
    return header, data_start


def column_array(buffer, header: dict, data_start: int, name: str) -> np.ndarray:
    """Zero-copy ndarray view of one column (bounds pre-validated by the parser)."""
    for descriptor in header["columns"]:
        if descriptor["name"] == name:
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(descriptor["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            array = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=data_start + descriptor["offset"]
            )
            return array.reshape(shape)
    raise ColumnFormatError(f"missing column {name!r}")


def read_header(path: str | Path, *, root: str | Path | None = None) -> dict:
    """Parse only the JSON header of a ``.col`` file (≤ a few KiB read).

    This is the warm-path primitive: metrics, fingerprints, and identity
    checks live in the header, so the column payload is never read.  The
    column directory is still checked against the file's size, so an
    entry torn after its header (a partial write) raises
    :class:`ColumnFormatError` here rather than serving a hit whose
    columns are missing.
    """
    path = Path(path)
    probe = iolayer.read_bytes(path, root=root, count=_HEADER_PROBE)
    # A short probe is the whole file; only a full one needs the size asked.
    size = len(probe) if len(probe) < _HEADER_PROBE else path.stat().st_size
    if len(probe) >= len(MAGIC) + 4:
        header_len = int.from_bytes(bytes(probe[len(MAGIC) : len(MAGIC) + 4]), "little")
        needed = len(MAGIC) + 4 + header_len
        if 0 < header_len and needed > len(probe) and needed <= 64 * 1024 * 1024:
            probe = iolayer.read_bytes(path, root=root, count=needed)
    header, _ = _parse_header(probe, size=size)
    return header


# ---------------------------------------------------------------------------
# Trace payloads: {"schema_version", ..., "outcomes": {model: [rows]}}
# Row = [box|None, confidence, iou, quality, detected, false_positive].

def encode_trace(payload: dict) -> bytes:
    """Pack a trace payload (as produced by ``trace_to_dict``) into a container."""
    meta = {key: value for key, value in payload.items() if key != "outcomes"}
    outcomes = payload["outcomes"]
    models = list(outcomes)  # preserve payload order: readers see the zoo's order
    meta["models"] = models
    n_models = len(models)
    n_frames = len(outcomes[models[0]]) if models else 0
    box = np.zeros((n_models, n_frames, 4), dtype=np.float64)
    box_mask = np.zeros((n_models, n_frames), dtype=np.uint8)
    confidence = np.zeros((n_models, n_frames), dtype=np.float64)
    iou = np.zeros((n_models, n_frames), dtype=np.float64)
    quality = np.zeros((n_models, n_frames), dtype=np.float64)
    detected = np.zeros((n_models, n_frames), dtype=np.uint8)
    false_positive = np.zeros((n_models, n_frames), dtype=np.uint8)
    for m, model in enumerate(models):
        rows = outcomes[model]
        if len(rows) != n_frames:
            raise ColumnFormatError(
                f"ragged outcomes: {model!r} has {len(rows)} rows, expected {n_frames}"
            )
        for f, row in enumerate(rows):
            if row[0] is not None:
                box[m, f] = row[0]
                box_mask[m, f] = 1
            confidence[m, f] = row[1]
            iou[m, f] = row[2]
            quality[m, f] = row[3]
            detected[m, f] = bool(row[4])
            false_positive[m, f] = bool(row[5])
    return _pack(
        "trace",
        meta,
        [
            ("box", box),
            ("box_mask", box_mask),
            ("confidence", confidence),
            ("iou", iou),
            ("quality", quality),
            ("detected", detected),
            ("false_positive", false_positive),
        ],
    )


def decode_trace_outcomes(buffer) -> dict:
    """Rebuild the ``outcomes`` mapping (pure Python rows) from a trace container."""
    header, data_start = _parse_header(buffer)
    if header.get("kind") != "trace":
        raise ColumnFormatError(f"expected trace container, got {header.get('kind')!r}")
    models = header["meta"].get("models", [])
    box = column_array(buffer, header, data_start, "box").tolist()
    box_mask = column_array(buffer, header, data_start, "box_mask").tolist()
    confidence = column_array(buffer, header, data_start, "confidence").tolist()
    iou = column_array(buffer, header, data_start, "iou").tolist()
    quality = column_array(buffer, header, data_start, "quality").tolist()
    detected = column_array(buffer, header, data_start, "detected").tolist()
    false_positive = column_array(buffer, header, data_start, "false_positive").tolist()
    outcomes = {}
    for m, model in enumerate(models):
        outcomes[model] = [
            [
                box[m][f] if box_mask[m][f] else None,
                confidence[m][f],
                iou[m][f],
                quality[m][f],
                bool(detected[m][f]),
                bool(false_positive[m][f]),
            ]
            for f in range(len(box_mask[m]))
        ]
    return outcomes


def decode_trace(buffer) -> dict:
    """Full trace payload, bit-identical to the encoded ``trace_to_dict`` output."""
    header, _ = _parse_header(buffer)
    if header.get("kind") != "trace":
        raise ColumnFormatError(f"expected trace container, got {header.get('kind')!r}")
    payload = {k: v for k, v in header["meta"].items() if k != "models"}
    payload["outcomes"] = decode_trace_outcomes(buffer)
    return payload


# ---------------------------------------------------------------------------
# Run payloads: {"schema_version", ..., "metrics": {...}, "records": [rows]}
# Record row = the 18-field list produced by runstore._record_row.

_RUN_FLOAT_FIELDS = (
    # (column name, record-row index)
    ("confidence", 4),
    ("iou", 5),
    ("latency_s", 8),
    ("inference_s", 9),
    ("stall_s", 10),
    ("overhead_s", 11),
    ("energy_j", 12),
    ("similarity", 17),
)

_RUN_FLAG_FIELDS = (
    ("ground_truth_present", 6),
    ("detected", 7),
    ("swap", 13),
    ("cold_load", 14),
    ("used_tracker", 15),
    ("rescheduled", 16),
)


def encode_run(payload: dict) -> bytes:
    """Pack a run payload (as produced by ``run_to_dict``) into a container.

    Metrics stay in the header — ``RunStore.load_metrics`` (the warm-sweep
    hot path) decodes ≤4 KiB and never touches the record columns.
    """
    meta = {key: value for key, value in payload.items() if key != "records"}
    records = payload["records"]
    n = len(records)
    model_names = sorted({row[1] for row in records})
    accelerator_names = sorted({row[2] for row in records})
    meta["model_names"] = model_names
    meta["accelerator_names"] = accelerator_names
    model_code = {name: code for code, name in enumerate(model_names)}
    accel_code = {name: code for code, name in enumerate(accelerator_names)}
    frame_index = np.zeros(n, dtype=np.int64)
    models = np.zeros(n, dtype=np.uint16)
    accels = np.zeros(n, dtype=np.uint16)
    box = np.zeros((n, 4), dtype=np.float64)
    box_mask = np.zeros(n, dtype=np.uint8)
    floats = {name: np.zeros(n, dtype=np.float64) for name, _ in _RUN_FLOAT_FIELDS}
    flags = {name: np.zeros(n, dtype=np.uint8) for name, _ in _RUN_FLAG_FIELDS}
    for i, row in enumerate(records):
        frame_index[i] = row[0]
        models[i] = model_code[row[1]]
        accels[i] = accel_code[row[2]]
        if row[3] is not None:
            box[i] = row[3]
            box_mask[i] = 1
        for name, idx in _RUN_FLOAT_FIELDS:
            floats[name][i] = row[idx]
        for name, idx in _RUN_FLAG_FIELDS:
            flags[name][i] = bool(row[idx])
    columns = [
        ("frame_index", frame_index),
        ("model_code", models),
        ("accel_code", accels),
        ("box", box),
        ("box_mask", box_mask),
    ]
    columns += [(name, floats[name]) for name, _ in _RUN_FLOAT_FIELDS]
    columns += [(name, flags[name]) for name, _ in _RUN_FLAG_FIELDS]
    return _pack("run", meta, columns)


def read_run_header(path: str | Path, *, root: str | Path | None = None) -> dict:
    """Run payload minus records: the header ``meta`` with vocab keys stripped."""
    header = read_header(path, root=root)
    if header.get("kind") != "run":
        raise ColumnFormatError(f"expected run container, got {header.get('kind')!r}")
    return {
        k: v
        for k, v in header["meta"].items()
        if k not in ("model_names", "accelerator_names")
    }


def decode_run(buffer) -> dict:
    """Full run payload, bit-identical to the encoded ``run_to_dict`` output."""
    header, data_start = _parse_header(buffer)
    if header.get("kind") != "run":
        raise ColumnFormatError(f"expected run container, got {header.get('kind')!r}")
    meta = header["meta"]
    model_names = meta.get("model_names", [])
    accelerator_names = meta.get("accelerator_names", [])
    frame_index = column_array(buffer, header, data_start, "frame_index").tolist()
    model_code = column_array(buffer, header, data_start, "model_code").tolist()
    accel_code = column_array(buffer, header, data_start, "accel_code").tolist()
    box = column_array(buffer, header, data_start, "box").tolist()
    box_mask = column_array(buffer, header, data_start, "box_mask").tolist()
    floats = {
        name: column_array(buffer, header, data_start, name).tolist()
        for name, _ in _RUN_FLOAT_FIELDS
    }
    flags = {
        name: column_array(buffer, header, data_start, name).tolist()
        for name, _ in _RUN_FLAG_FIELDS
    }
    records = []
    for i in range(len(frame_index)):
        row = [
            frame_index[i],
            model_names[model_code[i]],
            accelerator_names[accel_code[i]],
            box[i] if box_mask[i] else None,
        ]
        row += [floats[name][i] for name, _ in _RUN_FLOAT_FIELDS[:2]]
        row += [bool(flags["ground_truth_present"][i]), bool(flags["detected"][i])]
        row += [floats[name][i] for name, _ in _RUN_FLOAT_FIELDS[2:7]]
        row += [
            bool(flags["swap"][i]),
            bool(flags["cold_load"][i]),
            bool(flags["used_tracker"][i]),
            bool(flags["rescheduled"][i]),
        ]
        row.append(floats["similarity"][i])
        records.append(row)
    payload = {
        k: v for k, v in meta.items() if k not in ("model_names", "accelerator_names")
    }
    payload["records"] = records
    return payload


# ---------------------------------------------------------------------------
# Bundle payloads: {"schema_version", ..., "bundle": bundle_to_dict(...)}.
# The bundle's observations become columns: sample_index [n], difficulty
# [n], and confidence / iou [n, models].  Everything else (identity block,
# trait tables) stays in the header.  The header is written with sorted
# keys, so the two dict orders a bundle depends on are kept as lists:
# ``models`` (every observation's readings order) and ``accuracy_models``.

def encode_bundle(payload: dict) -> bytes:
    """Pack a bundle entry payload into a container.

    Every observation must read the same models in the same order (what
    ``characterize`` produces); anything else cannot fill the
    [samples, models] columns and raises :class:`ColumnFormatError`.
    """
    bundle = payload["bundle"]
    observations = bundle["observations"]
    models = list(observations[0]["readings"]) if observations else []
    n = len(observations)
    sample_index = np.zeros(n, dtype=np.int64)
    difficulty = np.zeros(n, dtype=np.float64)
    confidence = np.zeros((n, len(models)), dtype=np.float64)
    iou = np.zeros((n, len(models)), dtype=np.float64)
    for i, obs in enumerate(observations):
        readings = obs["readings"]
        if list(readings) != models:
            raise ColumnFormatError(
                f"observation {i} reads models {list(readings)}, expected {models}"
            )
        sample_index[i] = obs["sample_index"]
        difficulty[i] = obs["difficulty"]
        for j, reading in enumerate(readings.values()):
            confidence[i, j], iou[i, j] = reading
    meta = {key: value for key, value in payload.items() if key != "bundle"}
    meta["bundle"] = {key: value for key, value in bundle.items() if key != "observations"}
    meta["models"] = models
    meta["accuracy_models"] = list(bundle["accuracy"])
    return _pack(
        "bundle",
        meta,
        [
            ("sample_index", sample_index),
            ("difficulty", difficulty),
            ("confidence", confidence),
            ("iou", iou),
        ],
    )


def decode_bundle(buffer) -> dict:
    """Full bundle entry payload, equal to the encoded one (dict orders included)."""
    header, data_start = _parse_header(buffer)
    if header.get("kind") != "bundle":
        raise ColumnFormatError(f"expected bundle container, got {header.get('kind')!r}")
    meta = header["meta"]
    sample_index = column_array(buffer, header, data_start, "sample_index").tolist()
    difficulty = column_array(buffer, header, data_start, "difficulty").tolist()
    confidence = column_array(buffer, header, data_start, "confidence").tolist()
    iou = column_array(buffer, header, data_start, "iou").tolist()
    try:
        models = meta["models"]
        bundle = dict(meta["bundle"])
        bundle["accuracy"] = {
            name: bundle["accuracy"][name] for name in meta["accuracy_models"]
        }
        bundle["observations"] = [
            {
                "sample_index": sample_index[i],
                "difficulty": difficulty[i],
                "readings": {
                    model: [confidence[i][j], iou[i][j]] for j, model in enumerate(models)
                },
            }
            for i in range(len(sample_index))
        ]
    except (KeyError, TypeError, IndexError) as exc:
        raise ColumnFormatError(f"malformed bundle container: {exc!r}") from exc
    payload = {
        key: value
        for key, value in meta.items()
        if key not in ("bundle", "models", "accuracy_models")
    }
    payload["bundle"] = bundle
    return payload


# ---------------------------------------------------------------------------
# Suffix-dispatching entry read for maintenance / quarantine / audit.

def load_entry_payload(path: str | Path, *, root: str | Path | None = None) -> dict:
    """Parse a ``.col`` entry or a JSON job record into its payload dict.

    Raises :class:`FileNotFoundError` for a missing entry, one of
    :data:`PARSE_ERRORS` for a corrupt one, and any other ``OSError``
    (post-retry, via the seam) for an *unavailable* one — callers must
    treat only the middle case as quarantinable.
    """
    path = Path(path)
    if path.name.endswith(COL_SUFFIX):
        buffer = iolayer.read_bytes(path, root=root)
        header, _ = _parse_header(buffer)
        kind = header.get("kind")
        if kind == "trace":
            return decode_trace(buffer)
        if kind == "run":
            return decode_run(buffer)
        if kind == "bundle":
            return decode_bundle(buffer)
        raise ColumnFormatError(f"unknown container kind {kind!r}")
    payload = jsonsafe.loads(iolayer.read_text(path, root=root))
    if not isinstance(payload, dict):
        raise json.JSONDecodeError("entry is not a JSON object", "", 0)
    return payload
