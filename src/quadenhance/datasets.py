"""Synthetic dataset generators and file loaders.

The generators are pure functions of (config, seed); each one isolates a
property the quadratic layer is supposed to buy: XOR needs a feature
interaction, concentric circles defeat any linear separator, and the
quadratic-target regression task is exactly realizable by an enhanced
layer of matching shape (the generating layer is kept on the dataset for
oracle use).

File ingestion covers numeric CSV and the big-endian IDX image/label
format (magic 0x00000803 / 0x00000801).
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .enhancer import QELayer, check_shifts, qe_forward
from .errors import ConfigError, DataError
from .rng import Rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray                 # [N, n]
    labels: np.ndarray                   # [N] int for classification, [N, d] float for regression
    train_idx: np.ndarray
    valid_idx: np.ndarray
    n_classes: int | None = None         # None for regression
    generator: QELayer | None = field(default=None, repr=False)

    def __post_init__(self):
        n = self.features.shape[0]
        if n < 1:
            raise DataError("dataset must contain at least one row")
        if self.labels.shape[0] != n:
            raise DataError(f"labels length {self.labels.shape[0]} != feature rows {n}")
        if self.n_classes is not None and self.labels.size:
            if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
                raise DataError(f"class index outside [0, {self.n_classes})")
        combined = np.concatenate([self.train_idx, self.valid_idx])
        if len(np.unique(combined)) != len(combined) or sorted(combined) != list(range(n)):
            raise DataError("train/valid indices must be disjoint and cover the dataset")

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def is_classification(self) -> bool:
        return self.n_classes is not None


def _split(n: int, valid_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0 <= valid_fraction < 1:
        raise ConfigError(f"valid_fraction must lie in [0, 1), got {valid_fraction}")
    n_valid = int(round(n * valid_fraction))
    if n_valid == n:
        raise ConfigError(f"valid_fraction {valid_fraction} leaves none of {n} rows to train on")
    return np.arange(0, n - n_valid), np.arange(n - n_valid, n)


def gen_xor(encoding: int = 1) -> Dataset:
    """The four +/-1 corner points; class 1 iff the coordinates agree in sign."""
    if encoding not in (1, -1):
        raise ConfigError("encoding must be +1 or -1")
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]) * encoding
    labels = (pts[:, 0] * pts[:, 1] > 0).astype(np.int64)
    return Dataset(features=pts, labels=labels,
                   train_idx=np.arange(4), valid_idx=np.arange(4, 4), n_classes=2)


def gen_quadratic_target(n: int, d: int, shifts: tuple[int, ...] = (1,), seed: int = 0,
                         size: int = 256, valid_fraction: float = 0.0) -> Dataset:
    """Regression targets produced by a hidden enhanced layer.

    The hidden layer has Gaussian weights (scaled 1/sqrt(n)), zero bias,
    and coupling coefficients uniform in [-0.5, 0.5]; inputs are standard
    normal.  A model of the same (n, d, shifts) can fit this exactly.
    """
    if n < 2 or d < 2:
        raise ConfigError(f"need n, d >= 2, got n={n}, d={d}")
    if size < 1:
        raise ConfigError("size must be >= 1")
    check_shifts(shifts, d, "shifts", "drop it or change d")
    rng = Rng(seed)
    w = (rng.split(0).normal(d * n) / np.sqrt(n)).reshape(d, n)
    lam = {r: rng.split(10 + i).uniform(d, -0.5, 0.5) for i, r in enumerate(shifts)}
    hidden = QELayer(W=w, b=np.zeros(d), lam=lam, name="hidden-target")
    x = rng.split(1).normal(size * n).reshape(size, n)
    y = qe_forward(hidden, x)
    train_idx, valid_idx = _split(size, valid_fraction)
    return Dataset(features=x, labels=y, train_idx=train_idx, valid_idx=valid_idx,
                   generator=hidden)


def _check_cloud(classes: int, size: int, noise: float) -> None:
    if not noise >= 0:
        raise ConfigError("noise must be >= 0")
    if not 1 <= classes <= size:
        raise ConfigError(f"need 1 <= classes <= size, got classes={classes}, size={size}")


def gen_blobs(classes: int = 3, size: int = 300, noise: float = 0.5, seed: int = 0,
              valid_fraction: float = 0.2) -> Dataset:
    """Gaussian blobs on a circle of radius 5, one center per class."""
    _check_cloud(classes, size, noise)
    rng = Rng(seed)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = (np.arange(size) % classes).astype(np.int64)
    pts = centers[labels] + noise * rng.normal(2 * size).reshape(size, 2)
    perm = rng.split(99).permutation(size)
    train_idx, valid_idx = _split(size, valid_fraction)
    return Dataset(features=pts[perm], labels=labels[perm],
                   train_idx=train_idx, valid_idx=valid_idx,
                   n_classes=classes)


def gen_circles(classes: int = 2, size: int = 200, noise: float = 0.1, seed: int = 0,
                valid_fraction: float = 0.2) -> Dataset:
    """Concentric rings, radius c+1 for class c; not linearly separable."""
    _check_cloud(classes, size, noise)
    rng = Rng(seed)
    labels = (np.arange(size) % classes).astype(np.int64)
    theta = rng.uniform(size, 0.0, 2.0 * np.pi)
    radii = (labels + 1).astype(np.float64)
    pts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    pts += noise * rng.split(1).normal(2 * size).reshape(size, 2)
    perm = rng.split(99).permutation(size)
    train_idx, valid_idx = _split(size, valid_fraction)
    return Dataset(features=pts[perm], labels=labels[perm],
                   train_idx=train_idx, valid_idx=valid_idx,
                   n_classes=classes)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def load_csv(path: str, label_column: int | str, has_header: bool = True,
             classification: bool = True, valid_fraction: float = 0.2) -> Dataset:
    """Numeric CSV with one label column (by index, or by name with a header)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    start = 0
    header = None
    if has_header:
        header = [c.strip() for c in lines[0].split(",")]
        start = 1
    if isinstance(label_column, str):
        if header is None:
            raise ConfigError("label column given by name but the file has no header")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(f"{path}: no column named {label_column!r}") from None
    else:
        label_idx = int(label_column)
    rows, labels = [], []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if not -len(cells) <= label_idx < len(cells):
            raise DataError(f"{path}:{lineno}: only {len(cells)} columns, label column is {label_idx}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
        if not all(map(math.isfinite, vals)):
            raise DataError(f"{path}:{lineno}: non-finite cell")
        labels.append(vals.pop(label_idx))
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    feats = np.array(rows, dtype=np.float64)
    if classification:
        lab = np.array(labels)
        if not np.all((-2.0**63 <= lab) & (lab < 2.0**63)):
            raise DataError(f"{path}: class labels outside the int64 range")
        labels_arr = lab.astype(np.int64)
        if not np.all(lab == labels_arr):
            raise DataError(f"{path}: non-integer class labels")
        n_classes = int(labels_arr.max()) + 1 if labels_arr.size else 0
    else:
        labels_arr = np.array(labels, dtype=np.float64).reshape(-1, 1)
        n_classes = None
    train_idx, valid_idx = _split(len(rows), valid_fraction)
    return Dataset(features=feats, labels=labels_arr, train_idx=train_idx,
                   valid_idx=valid_idx, n_classes=n_classes)


def _read_exact(fh, count: int, path, what: str) -> bytearray:
    # a regular file is checked against its size first, so that a header
    # extent it cannot hold is never read; a pipe has no size, so it is read
    # a MiB at a time and holds no more than what arrived plus one piece
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        have = max(st.st_size - fh.tell(), 0)
        if count > have:
            raise DataError(f"{path}: truncated {what}: expected {count} bytes, got {have}")
    data = bytearray()
    while len(data) < count and (piece := fh.read(min(count - len(data), 1 << 20))):
        data += piece
    if len(data) != count:
        raise DataError(f"{path}: truncated {what}: expected {count} bytes, got {len(data)}")
    return data


def load_idx(images: str, labels: str, valid_fraction: float = 0.0) -> Dataset:
    """Big-endian IDX image/label pair; pixel bytes are scaled to [0, 1]."""
    with open(images, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(fh, 16, images, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(f"{images}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        if min(count, rows, cols) < 0:
            raise DataError(f"{images}: negative extents {count} x {rows} x {cols} in header")
        if count == 0:
            raise DataError(f"{images}: no images")
        raw = _read_exact(fh, count * rows * cols, images, "pixel data")
        feats = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    with open(labels, "rb") as fh:
        magic, lcount = struct.unpack(">ii", _read_exact(fh, 8, labels, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise DataError(f"{labels}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        if lcount != count:
            raise DataError(f"label count {lcount} != image count {count}")
        label_arr = np.frombuffer(_read_exact(fh, lcount, labels, "label data"), dtype=np.uint8).astype(np.int64)
    if rows * cols == 0:      # checked after the labels, so an oversized label count is named first
        raise DataError(f"{images}: images of {rows} x {cols} pixels have no features")
    train_idx, valid_idx = _split(count, valid_fraction)
    n_classes = int(label_arr.max()) + 1 if label_arr.size else 0
    return Dataset(features=feats, labels=label_arr, train_idx=train_idx, valid_idx=valid_idx,
                   n_classes=n_classes)


# dataset names a config may give; each builder's parameters are its config keys
BUILDERS = {
    "xor": gen_xor,
    "quadratic_target": gen_quadratic_target,
    "blobs": gen_blobs,
    "circles": gen_circles,
    "csv": load_csv,
    "idx": load_idx,
}


def batch_iter(ds: Dataset, batch_size: int, shuffle_seed: int):
    """Deterministic shuffled batches over the train split.

    The final partial batch is included.
    """
    if batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    idx = ds.train_idx
    order = idx[Rng(shuffle_seed).permutation(len(idx))]
    for start in range(0, len(order), batch_size):
        sel = order[start:start + batch_size]
        yield ds.features[sel], ds.labels[sel]
