"""Binary snapshot round-trip and corruption handling."""

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bridgetune.snapshot import (MAGIC, SnapshotFormatError, load_snapshot,
                                 save_snapshot)


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "x.bin"
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.standard_normal((3, 4)),
        "deep.nested.name": rng.standard_normal((2, 2, 2)),
        "vec": rng.standard_normal(5),
        "scalar": np.array(3.5),
    }
    header = {"kind": "test", "note": "unicode é", "n": 7}
    save_snapshot(path, header, tensors)
    got_header, got = load_snapshot(path)
    assert got_header == header
    assert list(got) == list(tensors)  # insertion order preserved
    for name, arr in tensors.items():
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name], np.asarray(arr, dtype=np.float64))


def test_save_is_byte_deterministic(tmp_path):
    tensors = {"w": np.arange(6.0).reshape(2, 3)}
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_snapshot(a, {"k": 1}, tensors)
    save_snapshot(b, {"k": 1}, tensors)
    assert a.read_bytes() == b.read_bytes()


def test_empty_snapshot(tmp_path):
    path = tmp_path / "empty.bin"
    save_snapshot(path, {}, {})
    header, tensors = load_snapshot(path)
    assert header == {} and tensors == {}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTSNAP0" + b"\x00" * 16)
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "x.bin"
    save_snapshot(path, {"k": 1}, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    for cut in (9, len(blob) // 2, len(blob) - 1):
        clipped = tmp_path / f"cut{cut}.bin"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(SnapshotFormatError):
            load_snapshot(clipped)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "x.bin"
    save_snapshot(path, {}, {"w": np.ones(2)})
    padded = tmp_path / "padded.bin"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        load_snapshot(padded)


def test_header_layout_is_as_documented(tmp_path):
    path = tmp_path / "x.bin"
    save_snapshot(path, {"z": 2}, {"ab": np.array([[1.0, 2.0]])})
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    (hlen,) = struct.unpack("<I", blob[8:12])
    assert blob[12:12 + hlen] == b'{"z": 2}'
    off = 12 + hlen
    (count,) = struct.unpack("<I", blob[off:off + 4])
    assert count == 1
    off += 4
    (nlen,) = struct.unpack("<H", blob[off:off + 2])
    assert blob[off + 2:off + 2 + nlen] == b"ab"
    off += 2 + nlen
    assert blob[off] == 2  # ndim
    dims = struct.unpack("<II", blob[off + 1:off + 9])
    assert dims == (1, 2)
    vals = np.frombuffer(blob[off + 9:off + 25], dtype="<f8")
    assert np.array_equal(vals, [1.0, 2.0])


def _rewrite_header(blob, text):
    """blob with its JSON header replaced by the raw bytes text."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    return MAGIC + struct.pack("<I", len(text)) + text + blob[12 + hlen:]


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b'{"k": 1', b"[1, 2]", b"3"],
                         ids=["not-utf8", "not-json", "list", "number"])
def test_bad_header_rejected(tmp_path, text):
    path = tmp_path / "x.bin"
    save_snapshot(path, {"k": 1}, {"w": np.ones(2)})
    path.write_bytes(_rewrite_header(path.read_bytes(), text))
    with pytest.raises(SnapshotFormatError, match="header"):
        load_snapshot(path)


def test_record_name_not_utf8_rejected(tmp_path):
    path = tmp_path / "x.bin"
    save_snapshot(path, {}, {"ab": np.ones(2)})
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"ab")] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError, match="name"):
        load_snapshot(path)


def test_huge_dims_rejected_without_wrapping(tmp_path):
    # Four dims of 2**16 hold 2**64 values, which wraps to 0 in int64; the
    # record must read as truncated, not as an empty array.
    path = tmp_path / "x.bin"
    save_snapshot(path, {}, {"w": np.ones((1, 1, 1, 1))})
    blob = bytearray(path.read_bytes())
    dims = blob.index(struct.pack("<4I", 1, 1, 1, 1))
    blob[dims:dims + 16] = struct.pack("<4I", *(4 * [2**16]))
    path.write_bytes(bytes(blob[:-8]))
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(path)


def _small_snapshot():
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/s.bin"
        save_snapshot(path, {"kind": "pet", "n": [1, 2]},
                      {"a": np.arange(6.0).reshape(2, 3), "bc": np.array([0.5])})
        with open(path, "rb") as f:
            return f.read()


SMALL = _small_snapshot()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, len(SMALL)), at=st.integers(0, len(SMALL) - 1),
       byte=st.integers(0, 255), truncate=st.booleans())
def test_any_truncation_or_byte_change_loads_or_raises_format_error(
        tmp_path, cut, at, byte, truncate):
    if truncate:
        blob = SMALL[:cut]
    else:
        blob = SMALL[:at] + bytes([byte]) + SMALL[at + 1:]
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob)
    try:
        header, tensors = load_snapshot(path)
    except SnapshotFormatError:
        return
    assert isinstance(header, dict)
    assert all(isinstance(v, np.ndarray) and v.dtype == np.float64
               for v in tensors.values())
