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
import struct

import numpy as np

MAGIC = b"BTSNAP01"


class SnapshotFormatError(ValueError):
    """File is not a snapshot or is truncated/corrupt."""


def save_snapshot(path, header: dict, tensors: dict) -> None:
    """tensors maps name -> ndarray; insertion order is preserved."""
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
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
