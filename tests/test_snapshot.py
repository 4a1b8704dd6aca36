"""Binary snapshot round-trip and corruption handling."""

import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bridgetune.backbone import (ModelConfig, freeze, init_backbone, load_backbone,
                                 save_backbone)
from bridgetune.latent_map import build_endpoints, load_mapnet, new_mapnet, save_mapnet
from bridgetune.pets import PetConfig, build_pet, load_pet, save_pet
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


@pytest.mark.parametrize("calls", [1, 4, 9], ids=["header", "first-record", "last-record"])
def test_failed_save_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch, calls):
    path = tmp_path / "x.bin"
    save_snapshot(path, {"k": 1}, {"w": np.ones(2)})
    old = path.read_bytes()
    pack, count = struct.pack, [0]

    def failing_pack(*args):
        count[0] += 1
        if count[0] == calls:
            raise OSError("disk full")
        return pack(*args)

    monkeypatch.setattr(struct, "pack", failing_pack)  # the struct module save_snapshot uses
    with pytest.raises(OSError, match="disk full"):
        save_snapshot(path, {"k": 2}, {"w": np.zeros((3, 2)), "v": np.zeros(4)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]
    monkeypatch.undo()
    save_snapshot(path, {"k": 2}, {"w": np.zeros(2)})  # a later save replaces it
    assert load_snapshot(path)[0] == {"k": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


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


# ------------------------------------------------- backbone, PET and map loaders

TINY = ModelConfig(num_layers=1, hidden_dim=8, num_heads=2, vocab_size=16,
                   max_seq_len=10, ffn_dim=12)
TINY_STATE = freeze(init_backbone(TINY, np.random.default_rng(0)))


def _tiny_files(d):
    """backbone.bin, pet.bin (LoRA) and map.bin of a tiny world in d."""
    rng = np.random.default_rng(1)
    save_backbone(f"{d}/backbone.bin", TINY_STATE)
    save_pet(f"{d}/pet.bin", build_pet(PetConfig(kind="lora"), TINY_STATE, rng))
    endpoints = build_endpoints(TINY_STATE["embed"].data, r=2)
    save_mapnet(f"{d}/map.bin", new_mapnet(16, (6,), 2, rng, time_augmented=False),
                "pdf", endpoints)


# loader, its file, a file of another kind, a header key it reads, a record it reads
LOADERS = {
    "backbone": (load_backbone, "backbone.bin", "pet.bin", "config", "layer0.attn.wq"),
    "pet": (lambda path: load_pet(path, TINY_STATE), "pet.bin", "map.bin", "config",
            "layer0.q.A"),
    "map": (load_mapnet, "map.bin", "backbone.bin", "dims", "map.w0"),
}


def _mistype(value):
    """The header value with its first int turned into a string."""
    if isinstance(value, dict):
        key = next(k for k, v in value.items() if type(v) is int)
        return {**value, key: str(value[key])}
    return [str(value[0]), *value[1:]]


@pytest.mark.parametrize("case, message", [
    ("wrong kind", "not a '"), ("renamed header key", "missing or malformed"),
    ("mistyped header value", "missing or malformed"),
    ("missing record", "missing"), ("misshapen record", "has shape"),
])
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_loader_rejects_bad_snapshot_as_format_error(tmp_path, loader, case, message):
    load, own, other, key, record = LOADERS[loader]
    _tiny_files(tmp_path)
    load(tmp_path / own)  # the untouched file loads
    path = tmp_path / other
    if case != "wrong kind":
        header, tensors = load_snapshot(tmp_path / own)
        if case == "renamed header key":
            header[key + "_"] = header.pop(key)
        elif case == "mistyped header value":
            header[key] = _mistype(header[key])
        elif case == "missing record":
            del tensors[record]
        else:
            tensors[record] = tensors[record].reshape(-1)
        path = tmp_path / "bad.bin"
        save_snapshot(path, header, tensors)
    with pytest.raises(SnapshotFormatError, match=message):
        load(path)


@pytest.mark.parametrize("key, value", [
    ("bridge_kind", "gauss"), ("bridge_kind", None), ("q", "abc"), ("q", float("nan")),
    ("q", -1.0), ("sigma", 0), ("sigma", float("inf")), ("sigma", True),
    ("method", "sde"), ("method", "none"),  # a pdf map's method is pdf
], ids=["kind-gauss", "kind-null", "q-string", "q-nan", "q-negative", "sigma-0",
        "sigma-inf", "sigma-bool", "method-sde", "method-none"])
def test_map_loader_rejects_bad_bridge_field(tmp_path, key, value):
    _tiny_files(tmp_path)
    header, tensors = load_snapshot(tmp_path / "map.bin")
    header[key] = value
    save_snapshot(tmp_path / "bad.bin", header, tensors)
    with pytest.raises(SnapshotFormatError, match=f"header field '{key}' missing or malformed"):
        load_mapnet(tmp_path / "bad.bin")
    del header[key]
    save_snapshot(tmp_path / "bad.bin", header, tensors)
    with pytest.raises(SnapshotFormatError, match=f"header field '{key}' missing or malformed"):
        load_mapnet(tmp_path / "bad.bin")


def test_map_carries_its_sde_grid(tmp_path):
    _tiny_files(tmp_path)
    mapnet, endpoints, header = load_mapnet(tmp_path / "map.bin")
    assert mapnet.sde_steps == header["sde_steps"] == 8  # a hand-built map's default
    mapnet.sde_steps = 6
    save_mapnet(tmp_path / "map6.bin", mapnet, "pdf", endpoints)
    assert load_mapnet(tmp_path / "map6.bin")[0].sde_steps == 6
    assert mapnet.frozen().sde_steps == 6


@pytest.mark.parametrize("value", [3, 8.0, "8", True, None],
                         ids=["below-4", "float", "string", "bool", "null"])
def test_map_loader_rejects_bad_sde_steps(tmp_path, value):
    _tiny_files(tmp_path)
    header, tensors = load_snapshot(tmp_path / "map.bin")
    header["sde_steps"] = value
    save_snapshot(tmp_path / "bad.bin", header, tensors)
    with pytest.raises(SnapshotFormatError,
                       match="header field 'sde_steps' missing or malformed"):
        load_mapnet(tmp_path / "bad.bin")
    del header["sde_steps"]
    save_snapshot(tmp_path / "bad.bin", header, tensors)
    with pytest.raises(SnapshotFormatError,
                       match="header field 'sde_steps' missing or malformed"):
        load_mapnet(tmp_path / "bad.bin")


@pytest.mark.parametrize("value", [[], [5, 5], [5, 2], [2.0, 5], [True, 5], [2, 16],
                                   [{"a": 1}], "25", None],
                         ids=["empty", "repeated", "unsorted", "float", "bool",
                              "outside-vocabulary", "object", "string", "null"])
def test_pet_loader_checks_label_words(tmp_path, value):
    _tiny_files(tmp_path)
    header, tensors = load_snapshot(tmp_path / "pet.bin")
    assert "label_words" not in header and load_pet(tmp_path / "pet.bin",
                                                    TINY_STATE).label_words is None
    save_snapshot(tmp_path / "good.bin", {**header, "label_words": [2, 5]}, tensors)
    assert load_pet(tmp_path / "good.bin", TINY_STATE).label_words == [2, 5]
    save_snapshot(tmp_path / "bad.bin", {**header, "label_words": value}, tensors)
    with pytest.raises(SnapshotFormatError,
                       match="header field 'label_words' missing or malformed"):
        load_pet(tmp_path / "bad.bin", TINY_STATE)


@pytest.fixture(scope="module")
def tiny_blobs(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny")
    _tiny_files(d)
    return {name: (d / LOADERS[name][1]).read_bytes() for name in LOADERS}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(loader=st.sampled_from(sorted(LOADERS)), at=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.integers(0, 255))
def test_loader_byte_change_loads_or_raises_format_error(tmp_path, tiny_blobs, loader,
                                                          at, byte):
    # bytes are drawn mostly from the header, where a change can break a field
    blob = tiny_blobs[loader]
    i = int(at * at * len(blob))
    path = tmp_path / "fuzz.bin"
    path.write_bytes(blob[:i] + bytes([byte]) + blob[i + 1:])
    try:
        LOADERS[loader][0](path)
    except SnapshotFormatError:
        pass
