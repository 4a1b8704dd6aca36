"""Flat binary snapshot format shared by backbone, PET, and map checkpoints.

Layout, all integers little-endian:
    8 bytes   magic b"BTSNAP01"
    u32       JSON header length, then that many UTF-8 bytes (header dict)
    u32       record count
    per record:
        u16   name length, then UTF-8 name
        u8    ndim, then ndim * u32 dims
        float64 data, row-major
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import fields

import numpy as np

MAGIC = b"BTSNAP01"


class SnapshotFormatError(ValueError):
    """File is not a snapshot or is truncated/corrupt."""


def save_snapshot(path, header: dict, tensors: dict) -> None:
    """tensors maps name -> ndarray; insertion order is preserved. The file
    is written beside path under a temporary name, then moved onto path, so
    a write that fails leaves any old file at path as it was."""
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    directory, base = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{base}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(hdr)))
            f.write(hdr)
            f.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr, dtype=np.float64)
                nb = name.encode("utf-8")
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<I", dim))
                f.write(arr.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_snapshot(path):
    """Returns (header dict, dict name -> float64 ndarray)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic bytes")
    off = 8

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise SnapshotFormatError(f"{path}: truncated at offset {off}")
        chunk = blob[off:off + n]
        off += n
        return chunk

    (hlen,) = struct.unpack("<I", take(4))
    text = take(hlen)
    try:
        header = json.loads(text.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise SnapshotFormatError(f"{path}: header is not UTF-8 JSON ({e})") from e
    if not isinstance(header, dict):
        raise SnapshotFormatError(f"{path}: header is a {type(header).__name__}, not an object")
    (count,) = struct.unpack("<I", take(4))
    tensors = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        raw = take(nlen)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise SnapshotFormatError(f"{path}: record name is not UTF-8 ({e})") from e
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            tensors[name] = data.reshape(shape).astype(np.float64)
        except ValueError as e:  # more dimensions than numpy allows
            raise SnapshotFormatError(f"{path}: record {name!r}: {e}") from e
    if off != len(blob):
        raise SnapshotFormatError(f"{path}: {len(blob) - off} trailing bytes")
    return header, tensors


def load_kind(path, kind: str):
    """load_snapshot, for a snapshot whose header names the given kind and
    whose records hold only finite values."""
    header, tensors = load_snapshot(path)
    if header.get("kind") != kind:
        raise SnapshotFormatError(f"{path}: not a {kind!r} snapshot "
                                  f"(header kind {header.get('kind')!r})")
    for name, arr in tensors.items():
        if not np.isfinite(arr).all():
            raise SnapshotFormatError(f"{path}: record {name!r} holds a non-finite value")
    return header, tensors


def header_value(path, header: dict, key: str, ok):
    """header[key], when present and ok(header[key]) holds."""
    if key not in header or not ok(header[key]):
        raise SnapshotFormatError(f"{path}: header field {key!r} missing or malformed")
    return header[key]


def header_config(path, header: dict, cls):
    """cls built from the header's "config" object, which must hold exactly
    cls's fields, each a JSON int or string as the field is declared."""
    declared = {f.name: {"int": int, "str": str}[f.type] for f in fields(cls)}
    value = header_value(path, header, "config", lambda v: isinstance(v, dict) and (
        v.keys() == declared.keys() and all(type(v[k]) is t for k, t in declared.items())))
    try:
        return cls(**value)
    except ValueError as e:
        raise SnapshotFormatError(f"{path}: header field 'config': {e}") from e


def check_records(path, tensors: dict, shapes: dict) -> None:
    """Raise SnapshotFormatError unless tensors holds exactly the records
    named in shapes, each of its shape (a None size matches any)."""
    for name in tensors:
        if name not in shapes:
            raise SnapshotFormatError(f"{path}: unexpected record {name!r}")
    for name, shape in shapes.items():
        if name not in tensors:
            raise SnapshotFormatError(f"{path}: record {name!r} missing")
        got = tensors[name].shape
        if len(got) != len(shape) or any(s not in (None, g) for s, g in zip(shape, got)):
            raise SnapshotFormatError(f"{path}: record {name!r} has shape {got}, "
                                      f"not {shape}")
