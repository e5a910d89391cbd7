"""Schema-versioned binary container for store entries: a JSON header plus typed columns.

ROADMAP item 2: JSON entries made the warm path parse-bound — reloading a
trace spent its time in ``json.loads`` plus per-row object rebuild, and a
warm sweep re-parsed every record it had already computed.  A store
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
NaN metric cannot corrupt it, and written with sorted keys) holding
everything *small*: the ``kind`` tag, the ``meta`` block the owning store
writes (versions, fingerprints, metrics, vocabularies, trait tables) and
the column directory.  That split is the whole speed story: a store's
identity checks and warm metric reads parse ≤4 KiB of header and never
touch a column byte.

This module is only the container.  It names no entry kind: each store
(:mod:`repro.runtime.store`, :mod:`~repro.runtime.runstore`,
:mod:`~repro.runtime.bundlestore`) declares its :class:`Layout`, encodes
its objects into columns with :func:`pack`, and keeps the one decoder
from :func:`read_header` / :func:`read_columns` back to its objects.

Columns read back as *pure Python* values: :mod:`struct` reads each
column in the byte order its dtype names into the same ints and floats
NumPy's ``.tolist()`` would, bit for bit.  NumPy is imported only where
columns are encoded, so a process that reads entries and writes none (a
warm sweep: run-store hits and one bundle decode) never loads it.

The header parser accepts only the column types the container writes
(``f8``, ``i8``, ``u2``, ``u1``) with ``nbytes`` equal to the shape's
element count times the item size, and only the calling store's layout:
its kind, exactly its columns, each in its dtype and in the shape the
layout gives it for the entry's meta.  Any other descriptor raises
:class:`ColumnFormatError` on the header probe, which the stores treat as
a corrupt entry (quarantined, a miss), so no column is read through a
type, a length or a shape its encoder did not write.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..util import jsonsafe
from . import iolayer

if TYPE_CHECKING:
    import numpy as np

#: Version of the container; pinned in analysis/schema_manifest.json.
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

#: The column types the container writes, by NumPy dtype code without its
#: byte-order mark: (item size, :mod:`struct` format character).
_COLUMN_TYPES = {"f8": (8, "d"), "i8": (8, "q"), "u2": (2, "H"), "u1": (1, "B")}

#: Dtype strings a descriptor may carry: either byte order, ``|`` for one byte.
_COLUMN_DTYPES = frozenset({"<f8", ">f8", "<i8", ">i8", "<u2", ">u2", "|u1"})


class ColumnFormatError(ValueError):
    """An entry that cannot be decoded: bad magic, version, bounds, layout or values."""


@dataclass(frozen=True)
class Layout:
    """What one kind of entry carries, as its store's encoder writes it.

    ``columns`` maps each column, in the order the encoder packs them, to
    its dtype code (``f8``, ``i8``, ``u2`` or ``u1``).  ``shapes(meta,
    counts)`` gives the shape each column has in an entry whose header
    meta is ``meta`` and whose columns hold ``counts[name]`` elements, so a
    column reshaped within its own bytes is refused; it raises
    :class:`ColumnFormatError` for a meta it cannot size.
    """

    kind: str
    columns: dict[str, str]
    shapes: Callable[[dict, dict[str, int]], dict[str, list[int]]]


def column_to_dict(name: str, array: np.ndarray, offset: int) -> dict:
    """Header descriptor for one packed column (field order is pinned)."""
    return {
        "name": name,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "offset": offset,
        "nbytes": array.nbytes,
    }


def pack(layout: Layout, meta: dict, columns: dict[str, np.ndarray]) -> bytes:
    """Assemble one entry: header JSON, padding, each column of ``layout`` aligned."""
    arrays = [(name, columns[name]) for name in layout.columns]
    descriptors = []
    offset = 0
    for name, array in arrays:
        offset = -(-offset // _COL_ALIGN) * _COL_ALIGN
        descriptors.append(column_to_dict(name, array, offset))
        offset += array.nbytes
    header = jsonsafe.dumps(
        {
            "colfmt_version": COLFMT_SCHEMA_VERSION,
            "kind": layout.kind,
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
    for descriptor, (_, array) in zip(descriptors, arrays):
        start = data_start + descriptor["offset"]
        out[start : start + array.nbytes] = array.tobytes()  # C order, whatever the layout
    return bytes(out)


def _parse_header(buffer, layout: Layout, *, size: int | None = None) -> tuple[dict, int]:
    """Validate the container against ``layout``; return ``(header, data_start)``.

    Raises :class:`ColumnFormatError` for anything that cannot be a valid
    entry of the layout's kind — truncation, wrong magic, bad version,
    malformed header JSON, another kind, or a column descriptor of a type
    the container does not write, whose size does not match its shape,
    that points past ``size``, or that the layout does not give that
    name, dtype and shape.  ``size`` is the length of the whole file; it
    defaults to ``len(buffer)`` (``buffer`` *is* the file) and is passed
    explicitly when ``buffer`` is a prefix probe.
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
    if header.get("kind") != layout.kind:
        raise ColumnFormatError(f"expected {layout.kind} container, got {header.get('kind')!r}")
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
    written = {descriptor["name"]: descriptor["dtype"][1:] for descriptor in columns}
    if written != layout.columns or len(columns) != len(written):
        raise ColumnFormatError(f"{layout.kind} columns {written} are not what its encoder writes")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise ColumnFormatError(f"{layout.kind} header meta is not an object")
    shapes = {descriptor["name"]: descriptor["shape"] for descriptor in columns}
    expected = layout.shapes(meta, {name: math.prod(shape) for name, shape in shapes.items()})
    if shapes != expected:
        raise ColumnFormatError(f"{layout.kind} column shapes {shapes}, expected {expected}")
    return header, data_start


def _is_count(value) -> bool:
    """A JSON integer that can be a size, offset or dimension."""
    return type(value) is int and value >= 0


def read_header(path: str | Path, layout: Layout, *, root: str | Path | None = None) -> dict:
    """Parse only the JSON header of a ``.col`` file (≤ a few KiB read).

    This is the warm-path primitive: metrics, fingerprints, and identity
    checks live in the header, so the column payload is never read.  The
    column directory is still checked against ``layout`` and the file's
    size, so an entry torn after its header (a partial write) raises
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
    header, _ = _parse_header(probe, layout, size=size)
    return header


def read_columns(
    path: str | Path, layout: Layout, *, root: str | Path | None = None
) -> tuple[dict, dict[str, tuple]]:
    """The header ``meta`` and every column of one entry, as Python values.

    Each column's values come back flat, in C order, read with
    :func:`struct.unpack_from` in the byte order its dtype names — bit
    for bit what NumPy's ``np.frombuffer(...).tolist()`` reads, without
    importing NumPy.
    """
    buffer = iolayer.read_bytes(path, root=root, map=True)
    header, data_start = _parse_header(buffer, layout)
    columns = {}
    for descriptor in header["columns"]:
        dtype = descriptor["dtype"]
        order = ">" if dtype[0] == ">" else "<"
        columns[descriptor["name"]] = struct.unpack_from(
            f"{order}{math.prod(descriptor['shape'])}{_COLUMN_TYPES[dtype[1:]][1]}",
            buffer, data_start + descriptor["offset"],
        )
    return header["meta"], columns


def rows(values: tuple, width: int) -> list[tuple]:
    """A flat column as one ``width``-tuple per row (C order)."""
    return list(zip(*[iter(values)] * width))
