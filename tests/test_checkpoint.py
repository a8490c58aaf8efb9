"""QEN1 binary persistence: bitwise round-trips and corruption detection."""

import errno
import hashlib
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadenhance.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from quadenhance.config import COST_PRESETS
from quadenhance.errors import CheckpointError, ChecksumError
from quadenhance.models import MLP, MLPConfig
from quadenhance.rng import Rng


def _params(seed=0, dtype=np.float64):
    rng = Rng(seed)
    return {
        "W": rng.uniform(12, -5, 5).reshape(3, 4).astype(dtype),
        "b": rng.split(1).uniform(3, -1, 1).astype(dtype),
        "scalar": np.asarray(rng.split(2).uniform(1, -1, 1)[0], dtype=dtype).reshape(()),
    }


def _sealed(body: bytes) -> bytes:
    """``body`` and its trailer, built here from hashlib rather than taken
    from the loader: the first 8 bytes of its SHA-256."""
    return body + hashlib.sha256(body).digest()[:8]


def _save(path, params) -> bytes:
    save_checkpoint(path, params)
    return path.read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_roundtrip_bitwise(tmp_path, dtype):
    params = _params(dtype=dtype)
    path = tmp_path / "m.qen1"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert list(back) == list(params)
    for k in params:
        assert back[k].shape == params[k].shape
        assert back[k].dtype == params[k].dtype
        assert back[k].tobytes() == params[k].tobytes()


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_roundtrip_random_values(tmp_path_factory, seed):
    tmp = tmp_path_factory.mktemp("ckpt")
    params = _params(seed=seed)
    path = tmp / "m.qen1"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert all(back[k].tobytes() == params[k].tobytes() for k in params)


def test_truncated_file_is_checksum_error(tmp_path):
    path = tmp_path / "m.qen1"
    blob = _save(path, _params())
    path.write_bytes(blob[:-5])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_flipped_byte_is_checksum_error(tmp_path):
    path = tmp_path / "m.qen1"
    blob = bytearray(_save(path, _params()))
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    path.write_bytes(_sealed(b"NOPE" + struct.pack("<II", VERSION, 0)))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    path.write_bytes(_sealed(MAGIC + struct.pack("<II", 99, 0)))
    with pytest.raises(CheckpointError, match=re.escape(
            "unknown format version 99 (supported: 3)")):
        load_checkpoint(path)


# one of each record kind: f32 and f64, a 0-d and an empty array, a
# non-ASCII name and a big-endian array that is stored little-endian
_PINNED = {
    "W": (np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5) / 3,
    "b": np.linspace(-1.0, 1.0, 5, dtype=np.float64),
    "λ[0]": np.asarray(np.pi, dtype=np.float64).reshape(()),
    "empty": np.zeros((0, 3), dtype=np.float32),
    "big-endian": np.arange(4, dtype=">f8") * 0.25,
}


def _assert_loads_pinned(path) -> None:
    back = load_checkpoint(path)
    assert list(back) == list(_PINNED)
    for name, arr in _PINNED.items():
        assert back[name].dtype == arr.dtype.newbyteorder("=")
        assert back[name].shape == arr.shape
        assert back[name].tobytes() == arr.astype(back[name].dtype).tobytes()


def test_file_bytes_are_pinned(tmp_path):
    # the bytes version 3 writes for this parameter set: the format must not drift
    path = tmp_path / "golden.qen1"
    save_checkpoint(path, _PINNED)
    blob = path.read_bytes()
    assert len(blob) == 214
    assert blob[4:8] == struct.pack("<I", 3)
    assert blob[-8:] == bytes.fromhex("81760473cdacdd01")
    assert blob[-8:] == hashlib.sha256(blob[:-8]).digest()[:8]
    assert hashlib.sha256(blob).hexdigest() == \
        "552cc33c0315cd952c4f01f942b4071aa3a4260bd37f240c9fc8435936e851f8"
    _assert_loads_pinned(path)


@pytest.mark.parametrize("old", [1, 2])
def test_version_1_and_2_files_rejected(tmp_path, old):
    # a saved file relabelled as an earlier version: the version is checked
    # before anything is hashed, so the trailer plays no part
    path = tmp_path / "m.qen1"
    blob = _save(path, _PINNED)
    path.write_bytes(blob[:4] + struct.pack("<I", old) + blob[8:])
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: unknown format version {old} (supported: 3)")):
        load_checkpoint(path)


def test_every_flipped_byte_past_the_header_is_checksum_error(tmp_path):
    path = tmp_path / "m.qen1"
    blob = _save(path, _PINNED)
    for pos in range(8, len(blob)):
        flipped = bytearray(blob)
        flipped[pos] ^= 0xFF
        path.write_bytes(bytes(flipped))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)


def test_save_holds_no_copy_of_the_payload(tmp_path):
    # the 7.1 MB vit-m-ffn parameter set: the save hashes and writes views of
    # the arrays, so its traced allocations stay far below one payload
    cfg = COST_PRESETS["vit-m-ffn"].options
    params = MLP(MLPConfig(**cfg, dtype="f32")).parameters()
    payload = sum(arr.nbytes for arr in params.values())
    assert payload > 7_000_000
    tracemalloc.start()
    try:
        save_checkpoint(tmp_path / "m.qen1", params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * payload, f"save peaked at {peak / payload:.3f}x its payload"


def test_load_holds_one_payload(tmp_path):
    # the same parameter set read back: each payload is read from the file
    # straight into its own array, so the traced peak is the arrays alone
    cfg = COST_PRESETS["vit-m-ffn"].options
    params = MLP(MLPConfig(**cfg, dtype="f32")).parameters()
    payload = sum(arr.nbytes for arr in params.values())
    path = tmp_path / "m.qen1"
    save_checkpoint(path, params)
    tracemalloc.start()
    try:
        back = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(back[k].tobytes() == params[k].tobytes() for k in params)
    assert peak < 1.1 * payload, f"load peaked at {peak / payload:.3f}x its payload"


def test_loads_from_a_pipe(tmp_path):
    # a pipe cannot seek, so its end is found by reading it whole
    path, fifo = tmp_path / "m.qen1", tmp_path / "m.fifo"
    save_checkpoint(path, _PINNED)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    back = load_checkpoint(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [(k, v.tobytes()) for k, v in back.items()] == \
        [(k, v.tobytes()) for k, v in load_checkpoint(path).items()]


def test_corrupt_extent_is_checksum_error_unless_resealed(tmp_path):
    # W's first extent 3 -> 1000: under the saved trailer the checksum fails
    # first, and only under a recomputed trailer does the record parser speak
    path = tmp_path / "m.qen1"
    blob = bytearray(_save(path, _PINNED))
    at = 12 + 2 + len("W") + 2             # header, name length, name, tag and ndim
    assert struct.unpack_from("<2I", blob, at) == (3, 4)
    struct.pack_into("<I", blob, at, 1000)
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_checkpoint(path)
    path.write_bytes(_sealed(bytes(blob[:-8])))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: record extends past end of file (wanted 16000 bytes at offset {at + 8})")):
        load_checkpoint(path)


@pytest.mark.parametrize("params, match", [
    ({"x" * 70000: np.zeros(1)}, "xxxx.*65535"),
    ({"huge": np.zeros((2**32, 0), dtype=np.float32)}, "'huge'.*2\\*\\*32"),
], ids=["long-name", "wide-extent"])
def test_unrepresentable_parameter_rejected_on_save(tmp_path, params, match):
    with pytest.raises(CheckpointError, match=match):
        save_checkpoint(tmp_path / "m.qen1", params)
    assert list(tmp_path.iterdir()) == []


def _one_record(name: bytes, extents, payload: bytes, tag: int = 0) -> bytes:
    return (MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<BB", tag, len(extents)) + struct.pack(f"<{len(extents)}I", *extents)
            + payload)


def test_unsupported_dtype_rejected_on_save(tmp_path):
    path = tmp_path / "m.qen1"
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: unsupported dtype int32")):
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.int32)})
    assert list(tmp_path.iterdir()) == []


def test_file_shorter_than_header_and_checksum_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION) + bytes(11))
    with pytest.raises(ChecksumError, match=re.escape(f"{path}: file too short (19 bytes)")):
        load_checkpoint(path)


@pytest.mark.parametrize("body, match", [
    (_one_record(b"w", (1,), struct.pack("<f", 1.0), tag=7), "unknown dtype tag 7 for 'w'"),
    (_one_record(b"w", (1,), struct.pack("<f", 1.0)) + b"\x00\x00", "2 trailing bytes"),
], ids=["unknown-tag", "trailing-bytes"])
def test_checksummed_malformed_record_rejected(tmp_path, body, match):
    # a valid checksum, so the parser rejects the record, not the checksum
    path = tmp_path / "m.qen1"
    path.write_bytes(_sealed(body))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {match}")):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    body = _one_record(b"\xff\xfe", (1,), struct.pack("<f", 1.0))
    path.write_bytes(_sealed(body))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


def test_duplicate_name_rejected(tmp_path):
    # two records "w" under a valid trailer: neither may silently win
    path = tmp_path / "m.qen1"
    record = _one_record(b"w", (1,), struct.pack("<f", 1.0))[12:]
    second = _one_record(b"w", (1,), struct.pack("<f", 2.0))[12:]
    path.write_bytes(_sealed(MAGIC + struct.pack("<II", VERSION, 2) + record + second))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: parameter 'w' appears twice")):
        load_checkpoint(path)


@pytest.mark.parametrize("extents, match", [
    ((2**32 - 1,) * 4, "past end"),          # the byte count overflows int64
    ((1000,), "past end"),
    ((0,) + (2**32 - 1,) * 3, "bad shape"),  # 0 bytes, but too big to index
], ids=["overflow", "past-end", "too-big-to-index"])
def test_impossible_extents_rejected(tmp_path, extents, match):
    path = tmp_path / "m.qen1"
    body = _one_record(b"w", extents, struct.pack("<f", 1.0))
    path.write_bytes(_sealed(body))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


def _load_or_package_error(path):
    """Arrays, or None after a package error; any other exception escapes."""
    try:
        out = load_checkpoint(path)
    except CheckpointError:      # ChecksumError included
        return None
    assert all(isinstance(arr, np.ndarray) for arr in out.values())
    return out


@given(st.one_of(st.binary(max_size=96),
                 st.builds(lambda count, rest: struct.pack("<I", count) + rest,
                           st.integers(0, 3), st.binary(max_size=96))))
@settings(max_examples=300, deadline=None)
def test_fuzzed_records_under_a_valid_trailer(tmp_path_factory, rest):
    # a valid header and any bytes after it, sealed with a correct trailer,
    # so the record parser itself meets the arbitrary bytes
    path = tmp_path_factory.mktemp("fuzz") / "m.qen1"
    path.write_bytes(_sealed(MAGIC + struct.pack("<I", VERSION) + rest))
    _load_or_package_error(path)


@given(st.integers(0, 205), st.integers(1, 255))
@settings(max_examples=300, deadline=None)
def test_fuzzed_byte_of_a_saved_file_under_a_valid_trailer(tmp_path_factory, pos, xor):
    # one byte of a saved file changed and the trailer recomputed
    path = tmp_path_factory.mktemp("fuzz") / "m.qen1"
    body = bytearray(_save(path, _PINNED)[:-8])
    body[pos] ^= xor
    path.write_bytes(_sealed(bytes(body)))
    _load_or_package_error(path)


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_failed_save_leaves_earlier_file_intact(tmp_path, monkeypatch, call):
    path = tmp_path / "m.qen1"
    save_checkpoint(path, _params(seed=1))
    assert list(tmp_path.iterdir()) == [path]
    before = path.read_bytes()

    def fail(*args):
        raise OSError(errno.EIO, "Input/output error")
    monkeypatch.setattr(os, call, fail)
    with pytest.raises(OSError):
        save_checkpoint(path, _params(seed=2))
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before
    monkeypatch.undo()
    assert load_checkpoint(path)["W"].tobytes() == _params(seed=1)["W"].tobytes()


class TestModelRoundTrip:
    def test_forward_identical_after_reload(self, tmp_path):
        cfg = MLPConfig(layer_dims=(4, 6, 3), seed=8, dtype="f32")
        model = MLP(cfg)
        x = Rng(9).uniform(8, -1, 1).reshape(2, 4).astype(np.float32)
        before = model.forward(x)
        path = tmp_path / "m.qen1"
        save_checkpoint(path, model.parameters())
        fresh = MLP(cfg)
        for arr in fresh.parameters().values():
            arr += 1.0          # scribble so the load visibly matters
        fresh.load_parameters(load_checkpoint(path))
        assert fresh.forward(x).tobytes() == before.tobytes()
