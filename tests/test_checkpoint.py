"""QEN1 binary persistence: bitwise round-trips and corruption detection."""

import errno
import hashlib
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fnv1a64_bytewise
from quadenhance import checkpoint
from quadenhance.checkpoint import (MAGIC, fnv1a64, load_checkpoint,
                                    load_into_model, save_checkpoint)
from quadenhance.errors import CheckpointError, ChecksumError
from quadenhance.models import MLP, MLPConfig
from quadenhance.rng import Rng

# the checksum works in blocks of this many bytes; lengths around it and
# around multiples of 8 (its word size) are the interesting edges
BLOCK = checkpoint._BLOCK


def _params(seed=0, dtype=np.float64):
    rng = Rng(seed)
    return {
        "W": rng.uniform(12, -5, 5).reshape(3, 4).astype(dtype),
        "b": rng.split(1).uniform(3, -1, 1).astype(dtype),
        "scalar": np.asarray(rng.split(2).uniform(1, -1, 1)[0], dtype=dtype).reshape(()),
    }


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
    save_checkpoint(path, _params())
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_flipped_byte_is_checksum_error(tmp_path):
    path = tmp_path / "m.qen1"
    save_checkpoint(path, _params())
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    body = b"NOPE" + struct.pack("<I", 1) + struct.pack("<I", 0)
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    body = MAGIC + struct.pack("<I", 99) + struct.pack("<I", 0)
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_fnv1a64_known_vectors():
    # standard FNV-1a test values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


_EDGE_LENGTHS = sorted({n + e for n in (8, 16, 4096, BLOCK - 8, BLOCK, BLOCK + 8, 2 * BLOCK, 3 * BLOCK)
                        for e in (-1, 0, 1)})


@given(st.one_of(st.integers(0, 64), st.sampled_from(_EDGE_LENGTHS), st.integers(0, 3 * BLOCK)),
       st.sampled_from(["random", "zeros", "ones"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fnv1a64_matches_bytewise_oracle(length, fill, seed):
    if fill == "random":
        data = np.random.default_rng(seed).integers(0, 256, length, dtype=np.uint8).tobytes()
    else:
        data = (b"\x00" if fill == "zeros" else b"\xff") * length
    expected = fnv1a64_bytewise(data)
    assert fnv1a64(data) == expected
    assert fnv1a64(memoryview(data)) == expected


def test_file_bytes_are_pinned(tmp_path):
    # the bytes version 1 has always written for this parameter set, as
    # produced by the byte-at-a-time checksum: the format must not drift
    params = {
        "W": (np.arange(12, dtype=np.float32).reshape(3, 4) - 5.5) / 3,
        "b": np.linspace(-1.0, 1.0, 5, dtype=np.float64),
        "λ[0]": np.asarray(np.pi, dtype=np.float64).reshape(()),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "big-endian": np.arange(4, dtype=">f8") * 0.25,
    }
    path = tmp_path / "golden.qen1"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    assert len(blob) == 214
    assert blob[-8:] == struct.pack("<Q", 0x5C59936F5AE44C9C)
    assert hashlib.sha256(blob).hexdigest() == \
        "831763493336d28b2e31cf38cb58cd0201ca76feec878c6edd8cb2f4a92bd881"


@pytest.mark.parametrize("params, match", [
    ({"x" * 70000: np.zeros(1)}, "xxxx.*65535"),
    ({"huge": np.zeros((2**32, 0), dtype=np.float32)}, "'huge'.*2\\*\\*32"),
], ids=["long-name", "wide-extent"])
def test_unrepresentable_parameter_rejected_on_save(tmp_path, params, match):
    with pytest.raises(CheckpointError, match=match):
        save_checkpoint(tmp_path / "m.qen1", params)
    assert list(tmp_path.iterdir()) == []


def _one_record(name: bytes, extents, payload: bytes, tag: int = 0) -> bytes:
    return (MAGIC + struct.pack("<II", 1, 1) + struct.pack("<H", len(name)) + name
            + struct.pack("<BB", tag, len(extents)) + struct.pack(f"<{len(extents)}I", *extents)
            + payload)


def test_unsupported_dtype_rejected_on_save(tmp_path):
    path = tmp_path / "m.qen1"
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: unsupported dtype int32")):
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.int32)})
    assert list(tmp_path.iterdir()) == []


def test_file_shorter_than_header_and_checksum_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    path.write_bytes(MAGIC + bytes(15))
    with pytest.raises(ChecksumError, match=re.escape(f"{path}: file too short (19 bytes)")):
        load_checkpoint(path)


@pytest.mark.parametrize("body, match", [
    (_one_record(b"w", (1,), struct.pack("<f", 1.0), tag=7), "unknown dtype tag 7 for 'w'"),
    (_one_record(b"w", (1,), struct.pack("<f", 1.0)) + b"\x00\x00", "2 trailing bytes"),
], ids=["unknown-tag", "trailing-bytes"])
def test_checksummed_malformed_record_rejected(tmp_path, body, match):
    # a valid checksum, so the parser rejects the record, not the checksum
    path = tmp_path / "m.qen1"
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: {match}")):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "m.qen1"
    body = _one_record(b"\xff\xfe", (1,), struct.pack("<f", 1.0))
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("extents, match", [
    ((2**32 - 1,) * 4, "past end"),          # the byte count overflows int64
    ((1000,), "past end"),
    ((0,) + (2**32 - 1,) * 3, "bad shape"),  # 0 bytes, but too big to index
], ids=["overflow", "past-end", "too-big-to-index"])
def test_impossible_extents_rejected(tmp_path, extents, match):
    path = tmp_path / "m.qen1"
    body = _one_record(b"w", extents, struct.pack("<f", 1.0))
    path.write_bytes(body + struct.pack("<Q", fnv1a64(body)))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(path)


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
        load_into_model(fresh, path)
        assert fresh.forward(x).tobytes() == before.tobytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.qen1"
        save_checkpoint(path, MLP(MLPConfig(layer_dims=(4, 6, 3), seed=0)).parameters())
        other = MLP(MLPConfig(layer_dims=(4, 5, 3), seed=0))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_into_model(other, path)

    def test_plain_checkpoint_into_enhanced_model_needs_flag(self, tmp_path):
        cfg = MLPConfig(layer_dims=(3, 4, 2), seed=5)
        plain = MLP(cfg.plain())
        path = tmp_path / "plain.qen1"
        save_checkpoint(path, plain.parameters())
        enhanced = MLP(cfg)
        with pytest.raises(CheckpointError, match="missing"):
            load_into_model(enhanced, path)
        load_into_model(enhanced, path, allow_missing_lambda=True)
        for name, arr in enhanced.parameters().items():
            if "lam[" in name:
                assert np.all(arr == 0.0)
        x = Rng(6).uniform(3, -1, 1)
        assert enhanced.forward(x).tobytes() == plain.forward(x).tobytes()

    def test_extra_checkpoint_params_rejected(self, tmp_path):
        cfg = MLPConfig(layer_dims=(3, 4, 2), seed=5)
        enhanced = MLP(cfg)
        path = tmp_path / "qe.qen1"
        save_checkpoint(path, enhanced.parameters())
        plain = MLP(cfg.plain())
        with pytest.raises(CheckpointError, match="lacks"):
            load_into_model(plain, path)
