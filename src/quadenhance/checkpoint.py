"""Binary checkpoint format "QEN1".

Layout (all integers little-endian):

    magic     4 bytes  b"QEN1"
    version   u32      3, the only version written or read
    count     u32      number of parameter records
    records   count x { name_len u16, name utf-8,
                        dtype u8 (0 = float32, 1 = float64),
                        ndim u8, extents ndim x u32,
                        raw little-endian scalars, row-major }
    checksum  8 bytes  the first 8 bytes of SHA-256 (FIPS 180-4) of every
                       preceding byte

Versions 1 and 2, which differed only in their checksum, are rejected
as unknown.  OpenSSL's SHA-256 runs on the CPU's SHA extensions where
they exist: a 7.1 MB body hashes in ~6 ms on a 2-vCPU Xeon, but in ~25 ms
with them masked off (``OPENSSL_ia32cap=":~0x20000000"``).  A load checks
the magic and the version, then hashes the body in ``_BLOCK``-byte reads
before it parses any record, so truncation or corruption past the 8-byte
header is a checksum error rather than a confusing parse failure.  The
parse reads the file again and each payload straight into its own array,
allocated once it fits in the bytes left: a load holds one copy of the
payload.
Saving goes through ``write_atomic``, so an interrupted save leaves any
earlier checkpoint at that path untouched; the checksum reads the chunks
handed to it, never a joined copy of the payload.
"""

from __future__ import annotations

import hashlib
import io
import os
import secrets
import struct
from math import prod
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ChecksumError

MAGIC = b"QEN1"
VERSION = 3

_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

# bytes read per step of a load's hash pass
_BLOCK = 1 << 16


def save_checkpoint(path, params: dict[str, np.ndarray], sync: bool = True) -> None:
    """Serialize named arrays atomically; dict insertion order is kept."""
    chunks = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(params))]
    for name, arr in params.items():
        tag = _TAG_FOR_KIND.get(arr.dtype.newbyteorder("="))
        if tag is None:
            raise CheckpointError(f"{path}: unsupported dtype {arr.dtype} for parameter {name!r}")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise CheckpointError(f"{path}: parameter name {name[:40]!r}... is {len(name_b)} "
                                  f"UTF-8 bytes; QEN1 allows at most 65535")
        if any(n > 0xFFFFFFFF for n in arr.shape):
            raise CheckpointError(f"{path}: parameter {name!r} has shape {arr.shape}; "
                                  f"QEN1 extents must be below 2**32")
        # a view unless the array must be converted; the chunks are never joined
        raw = memoryview(np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]))
        chunks += [struct.pack("<H", len(name_b)), name_b, struct.pack("<BB", tag, arr.ndim),
                   struct.pack(f"<{arr.ndim}I", *arr.shape), raw]
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    write_atomic(path, *chunks, digest.digest()[:8], sync=sync)


def write_atomic(path, *chunks: bytes, sync: bool = True) -> None:
    """Write the concatenated chunks to ``path`` whole or not at all.

    The bytes are written and synced under a temporary name in the same
    directory, then renamed over ``path``; on any failure the temporary
    file is removed and an earlier file at ``path`` is untouched.  With
    ``sync=False`` the bytes are not synced, for a private file that the
    caller syncs before it renames it into place.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    # exclusive create: never follows or reuses an existing file
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if sync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """The body of an open QEN1 file, read front to back into writable byte
    buffers; no read may pass ``end``."""

    def __init__(self, fh, end: int, path):
        self.fh, self.end, self.path = fh, end, path
        self.pos = fh.tell()

    def room(self, count: int) -> None:
        if self.pos + count > self.end:
            raise CheckpointError(f"{self.path}: record extends past end of file "
                                  f"(wanted {count} bytes at offset {self.pos})")

    def fill(self, buf) -> None:
        self.room(len(buf))
        if self.fh.readinto(buf) != len(buf):
            raise CheckpointError(f"{self.path}: file shrank while being read")
        self.pos += len(buf)

    def unpack(self, fmt: str):
        buf = bytearray(struct.calcsize(fmt))
        self.fill(buf)
        return struct.unpack(fmt, buf)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read back named arrays, verifying magic, version, then checksum."""
    with open(path, "rb") as fh:
        if not fh.seekable():   # a pipe: where the trailer starts is known only once read
            fh = io.BytesIO(fh.read())
        body = fh.seek(0, os.SEEK_END) - 8
        if body < len(MAGIC) + 4 + 4:
            raise ChecksumError(f"{path}: file too short ({body + 8} bytes) to be a checkpoint")
        fh.seek(0)
        head = fh.read(len(MAGIC) + 4)
        if head[:4] != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a QEN1 checkpoint")
        (version,) = struct.unpack("<I", head[4:])
        if version != VERSION:
            raise CheckpointError(f"{path}: unknown format version {version} "
                                  f"(supported: {VERSION})")
        digest = hashlib.sha256()
        fh.seek(0)
        for start in range(0, body, _BLOCK):
            digest.update(fh.read(min(_BLOCK, body - start)))
        stored, actual = fh.read(8), digest.digest()[:8]
        if actual != stored:
            raise ChecksumError(f"{path}: checksum mismatch (stored {stored.hex()}, "
                                f"computed {actual.hex()})")
        fh.seek(len(head))      # parse from the top again, out of the page cache
        rd = _Reader(fh, body, path)
        (count,) = rd.unpack("<I")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = rd.unpack("<H")
            try:
                name = str(rd.unpack(f"{name_len}s")[0], "utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: parameter name at offset {rd.pos - name_len} "
                                      f"is not valid UTF-8 ({exc.reason})") from None
            if name in out:
                raise CheckpointError(f"{path}: parameter {name!r} appears twice")
            tag, ndim = rd.unpack("<BB")
            if tag not in _DTYPE_TAGS:
                raise CheckpointError(f"{path}: unknown dtype tag {tag} for {name!r}")
            shape = rd.unpack(f"<{ndim}I")
            dtype = _DTYPE_TAGS[tag]
            # Python ints: a product of u32 extents must not wrap; a payload is
            # allocated only once it fits in the rest of the body
            rd.room(prod(shape) * dtype.itemsize)
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as exc:
                raise CheckpointError(f"{path}: bad shape {shape} for {name!r}: {exc}") from None
            # the file's bytes land in the array itself: each payload is read once
            rd.fill(arr.reshape(-1).view(np.uint8))
            out[name] = arr.astype(dtype.newbyteorder("="), copy=False)
        if rd.pos != rd.end:
            raise CheckpointError(f"{path}: {rd.end - rd.pos} trailing bytes after last record")
        return out
