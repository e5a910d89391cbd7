"""Schema-versioned binary columnar format for trace, run, and bundle entries.

ROADMAP item 2: JSON entries made the warm path parse-bound — reloading a
trace spent its time in ``json.loads`` plus per-row object rebuild, and a
warm sweep re-parsed every record it had already computed.  This module
packs the bulk per-frame data of an entry into typed, C-contiguous
*columns* (one array per field) appended after a small JSON header, so
a reload is a header parse plus one :func:`struct.unpack_from` per
column over an ``mmap`` — no token stream, and no column read until a
caller actually asks for the rows.

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

Decoding goes back to *pure Python* values: :mod:`struct` reads each
column in the byte order its dtype names into the same ints and floats
NumPy's ``.tolist()`` would, so a decoded payload is bit-identical to the
``trace_to_dict``/``run_to_dict``/bundle payload that was encoded — the
property the ``store``/``fastrun`` differential checks assert.  NumPy is
imported only by the encoders, where the arrays are built, so a process
that reads entries and writes none (a warm sweep: run-store hits and one
bundle decode) never loads it.

The header parser accepts only the column types the codec writes
(``f8``, ``i8``, ``u2``, ``u1``) with ``nbytes`` equal to the shape's
element count times the item size, and a container of a known kind must
carry exactly the columns its encoder writes, each in its type and in
the shape its encoder gives it for the entry's size.  Any other
descriptor raises :class:`ColumnFormatError` on the header probe, which
the stores treat as a corrupt entry (quarantined, a miss), so no column
is read through a type, a length or a shape its encoder did not write.

Like every persistence-tier module, writes and reads route through the
:mod:`repro.runtime.iolayer` seam; this module itself only encodes and
decodes buffers plus offers :func:`load_entry_payload` as the
suffix-dispatching read used by maintenance/quarantine/audit (``.col``
entries and the job queue's JSON records).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import TYPE_CHECKING

from ..util import jsonsafe
from . import iolayer

if TYPE_CHECKING:
    import numpy as np

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

#: The column types the codec writes, by NumPy dtype code without its
#: byte-order mark: (item size, :mod:`struct` format character).
_COLUMN_TYPES = {"f8": (8, "d"), "i8": (8, "q"), "u2": (2, "H"), "u1": (1, "B")}

#: Dtype strings a descriptor may carry: either byte order, ``|`` for one byte.
_COLUMN_DTYPES = frozenset({"<f8", ">f8", "<i8", ">i8", "<u2", ">u2", "|u1"})


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
        out[start : start + array.nbytes] = array.tobytes()  # C order, whatever the layout
    return bytes(out)


def _parse_header(buffer, *, size: int | None = None) -> tuple[dict, int]:
    """Validate magic/version and return ``(header, data_start)``.

    Raises :class:`ColumnFormatError` for anything that cannot be a valid
    container — truncation, wrong magic, bad version, malformed header
    JSON, or a column descriptor of a type the codec does not write, whose
    size does not match its shape, or that points past ``size``: the
    length of the whole file, which defaults to ``len(buffer)`` (``buffer``
    *is* the file) and is passed explicitly when ``buffer`` is a prefix
    probe.  A container of a known kind must carry exactly the columns its
    encoder writes, each in the encoder's type and shape (see
    :func:`_encoded_shapes`), so a store's header probe refuses what a
    later column decode could not read.
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
    columns = header.get("columns")
    if not isinstance(columns, list):
        raise ColumnFormatError("column directory is not a list")
    for descriptor in columns:
        if not isinstance(descriptor, dict):
            raise ColumnFormatError("column descriptor is not an object")
        name, dtype, shape = descriptor.get("name"), descriptor.get("dtype"), descriptor.get("shape")
        offset, nbytes = descriptor.get("offset"), descriptor.get("nbytes")
        if not (isinstance(name, str) and isinstance(dtype, str) and isinstance(shape, list)
                and all(map(_is_count, shape)) and _is_count(offset) and _is_count(nbytes)):
            raise ColumnFormatError(f"column {name!r} has a malformed name, dtype, shape, offset or size")
        if dtype not in _COLUMN_DTYPES:
            raise ColumnFormatError(f"column {name!r} has dtype {dtype!r}, which the codec does not write")
        if nbytes != math.prod(shape) * _COLUMN_TYPES[dtype[1:]][0]:
            raise ColumnFormatError(f"column {name!r}: {nbytes} bytes do not hold {shape} x {dtype}")
        if data_start + offset + nbytes > limit:
            raise ColumnFormatError(f"column {name!r} out of bounds")
    kind = header.get("kind")
    expected = _KIND_COLUMNS.get(kind) if isinstance(kind, str) else None
    if expected is not None:
        written = {descriptor["name"]: descriptor["dtype"][1:] for descriptor in columns}
        if written != expected or len(columns) != len(written):
            raise ColumnFormatError(f"{kind} columns {written} are not what its encoder writes")
        if not isinstance(header.get("meta"), dict):
            raise ColumnFormatError(f"{kind} header meta is not an object")
        shapes = {descriptor["name"]: descriptor["shape"] for descriptor in columns}
        encoded = _encoded_shapes(kind, header["meta"], shapes)
        if shapes != encoded:
            raise ColumnFormatError(f"{kind} column shapes {shapes}, expected {encoded}")
    return header, data_start


def _encoded_shapes(kind: str, meta: dict, shapes: dict[str, list[int]]) -> dict[str, list[int]]:
    """The shape each column of a ``kind`` entry gets from its encoder.

    An entry's size is read off one column's element count (and, for
    traces and bundles, the header's model list), so a column reshaped
    within its own bytes differs from what the encoder would write.
    """
    if kind == "run":
        rows = [math.prod(shapes["frame_index"])]
        return {name: rows for name in _RUN_COLUMNS} | {"box": [*rows, 4]}
    models = meta.get("models")
    if not isinstance(models, list):
        raise ColumnFormatError(f"{kind} header lists no models")
    if kind == "trace":
        frames = math.prod(shapes["box_mask"]) // len(models) if models else 0
        rows = [len(models), frames]
        return {name: rows for name in _TRACE_COLUMNS} | {"box": [*rows, 4]}
    rows = [math.prod(shapes["sample_index"])]
    return {"sample_index": rows, "difficulty": rows,
            "confidence": [*rows, len(models)], "iou": [*rows, len(models)]}


def _is_count(value) -> bool:
    """A JSON integer that can be a size, offset or dimension."""
    return type(value) is int and value >= 0


def _descriptor(header: dict, name: str) -> dict:
    for descriptor in header["columns"]:
        if descriptor["name"] == name:
            return descriptor
    raise ColumnFormatError(f"missing column {name!r}")


def _column_values(buffer, header: dict, data_start: int, name: str) -> tuple:
    """One column's values in C order, as Python ints and floats.

    Decodes with :func:`struct.unpack_from` in the byte order the dtype
    names, so the values are bit for bit those NumPy's
    ``np.frombuffer(...).tolist()`` reads, without importing NumPy.
    """
    descriptor = _descriptor(header, name)
    dtype = descriptor["dtype"]
    order = ">" if dtype[0] == ">" else "<"
    count = math.prod(descriptor["shape"])
    return struct.unpack_from(
        f"{order}{count}{_COLUMN_TYPES[dtype[1:]][1]}", buffer, data_start + descriptor["offset"]
    )


def _boxes(values: tuple) -> list[list[float]]:
    """A flat ``box`` column as one 4-float list per row."""
    return list(map(list, zip(*[iter(values)] * 4)))


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

#: Each column's dtype code (see ``_COLUMN_TYPES``) as the encoder writes it.
_TRACE_COLUMNS = {
    "box": "f8", "box_mask": "u1", "confidence": "f8", "iou": "f8", "quality": "f8",
    "detected": "u1", "false_positive": "u1",
}


def encode_trace(payload: dict) -> bytes:
    """Pack a trace payload (as produced by ``trace_to_dict``) into a container."""
    import numpy as np

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
    models = header["meta"]["models"]
    frames = _descriptor(header, "box_mask")["shape"][1]
    box, box_mask, confidence, iou, quality, detected, false_positive = (
        _column_values(buffer, header, data_start, name) for name in _TRACE_COLUMNS
    )
    boxes = _boxes(box)
    outcomes = {}
    for m, model in enumerate(models):
        rows = slice(m * frames, (m + 1) * frames)
        outcomes[model] = [
            [row_box if masked else None, conf, overlap, qual, bool(hit), bool(false_hit)]
            for row_box, masked, conf, overlap, qual, hit, false_hit in zip(
                boxes[rows], box_mask[rows], confidence[rows], iou[rows], quality[rows],
                detected[rows], false_positive[rows],
            )
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

_RUN_COLUMNS = {
    "frame_index": "i8", "model_code": "u2", "accel_code": "u2", "box": "f8", "box_mask": "u1",
    **{name: "f8" for name, _ in _RUN_FLOAT_FIELDS},
    **{name: "u1" for name, _ in _RUN_FLAG_FIELDS},
}


def encode_run(payload: dict) -> bytes:
    """Pack a run payload (as produced by ``run_to_dict``) into a container.

    Metrics stay in the header — ``RunStore.load_metrics`` (the warm-sweep
    hot path) decodes ≤4 KiB and never touches the record columns.
    """
    import numpy as np

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
    values = {name: _column_values(buffer, header, data_start, name) for name in _RUN_COLUMNS}
    try:
        models, accelerators = meta["model_names"], meta["accelerator_names"]
        model_names = [models[code] for code in values["model_code"]]
        accelerator_names = [accelerators[code] for code in values["accel_code"]]
    except (LookupError, TypeError) as exc:
        raise ColumnFormatError(f"run codes outside their vocabulary: {exc!r}") from exc
    records = [
        [index, model, accelerator, box if masked else None, confidence, iou,
         bool(truth), bool(detected), latency, inference, stall, overhead, energy,
         bool(swap), bool(cold), bool(tracked), bool(rescheduled), similarity]
        for (index, model, accelerator, box, masked,
             confidence, iou, latency, inference, stall, overhead, energy, similarity,
             truth, detected, swap, cold, tracked, rescheduled) in zip(
            values["frame_index"], model_names, accelerator_names, _boxes(values["box"]),
            values["box_mask"],
            *(values[name] for name, _ in _RUN_FLOAT_FIELDS),
            *(values[name] for name, _ in _RUN_FLAG_FIELDS),
        )
    ]
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

_BUNDLE_COLUMNS = {"sample_index": "i8", "difficulty": "f8", "confidence": "f8", "iou": "f8"}


def encode_bundle(payload: dict) -> bytes:
    """Pack a bundle entry payload into a container.

    Every observation must read the same models in the same order (what
    ``characterize`` produces); anything else cannot fill the
    [samples, models] columns and raises :class:`ColumnFormatError`.
    """
    import numpy as np

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
    sample_index, difficulty, confidence, iou = (
        _column_values(buffer, header, data_start, name) for name in _BUNDLE_COLUMNS
    )
    models = meta["models"]
    width = len(models)
    try:
        bundle = dict(meta["bundle"])
        bundle["accuracy"] = {
            name: bundle["accuracy"][name] for name in meta["accuracy_models"]
        }
        bundle["observations"] = [
            {
                "sample_index": sample_index[i],
                "difficulty": difficulty[i],
                "readings": {
                    model: [confidence[i * width + j], iou[i * width + j]]
                    for j, model in enumerate(models)
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


#: Every container kind's columns, each in the type its encoder writes.
_KIND_COLUMNS = {"trace": _TRACE_COLUMNS, "run": _RUN_COLUMNS, "bundle": _BUNDLE_COLUMNS}


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
