"""Dense tensor kernels with bit-reproducible semantics.

Values are plain numpy arrays in float32 or float64, in any memory
layout: the kernels take transposed views and slices as they are, and
only the products copy an operand, the right one, into C order, in
tiles of columns (see ``matmul``).
``matmul`` and ``reduce_sum`` fix their accumulation order: each adds in
index order along the summed axis, so repeated runs and independently
coded references agree bit for bit, not just within rounding noise (a
naive triple loop reproduces ``matmul`` exactly).  Neither loops over
terms in Python.  ``matmul`` is the one-slice case of ``batched_matmul``,
which runs numpy's einsum where an import-time probe finds that it sums
in that order, else ordered ``np.add.reduce`` sums over row blocks.
``reduce_sum``, a full reduction, sums leading axes with
``np.add.accumulate``, which is sequential.  The other kernels are
single elementwise ufunc calls or slice copies; there is no argmax
kernel.  The differentiable layers also call numpy directly:
activations, losses, and ``np.add.reduce`` in the bias and coupling
gradients, which sums in numpy's own order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# config precision names and the numpy dtypes they select
PRECISIONS = {"f32": np.float32, "f64": np.float64}

# products per row block of the fallback kernel's scratch buffer
_BLOCK_PRODUCTS = 1 << 17
# columns per tile when a strided right operand is copied into C order
_TILE = 48


def _require_same_dtype(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.dtype != b.dtype:
        raise DimensionError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def _einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # k has unit stride in the C-order b and out, so numpy's iterator makes it
    # the inner loop; optimize=False keeps the product away from BLAS
    out = np.empty((*a.shape[:2], b.shape[2]), dtype=a.dtype)
    return np.einsum("sij,sjk->sik", a, b, out=out, optimize=False)


def _rowblock(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the products of a block of rows of a slice go into one buffer [rows, c, k]
    # whose strided middle axis np.add.reduce sums one term at a time in index order
    (s, r, c), k = a.shape, b.shape[2]
    out = np.empty((s, r, k), dtype=a.dtype)
    rows = max(1, _BLOCK_PRODUCTS // max(c * k, 1))
    buf = np.empty((min(rows, r), c, k), dtype=a.dtype)
    for x, y, o in zip(a, b, out):
        for i in range(0, r, rows):
            blk = buf[: min(rows, r - i)]
            np.copyto(blk, x[i : i + rows, :, None])
            np.multiply(blk, y, out=blk)
            np.add.reduce(blk, axis=1, initial=0, out=o[i : i + rows])
    return out


def _probe_operands(dtype) -> tuple[np.ndarray, np.ndarray]:
    """a [2, 3, 17] and b [2, 17, 67] whose product bits betray a non-sequential sum.

    All columns of b are equal, so a kernel's SIMD body and scalar tail
    see each case.  Row 0 is 0 - fl(x*y) + x*y: +0.0 in order, but
    x*y - fl(x*y) under a fused multiply-add.  Row 1 is
    1 + eps/2 + ... + eps/2: 1 in order, more once two halves are added
    first.  Row 2 has only -0.0 products: +0.0 only from a 0 start.
    Slice 1 reverses the rows; b is a C-order copy of a W^T view.
    """
    eps = np.finfo(dtype).eps
    x, y = dtype(1 + 3 * eps), dtype(1 + 5 * eps)
    b = np.ones((17, 67), dtype=dtype)
    b[0], b[1] = -(x * y), y
    a = np.zeros((3, 17), dtype=dtype)
    a[0, :2] = 1, x
    a[1, 2], a[1, 3:] = 1, eps / 2
    a[2, 1:] = -0.0
    return np.stack([a, a[::-1]]), np.ascontiguousarray(np.stack([b.T] * 2).transpose(0, 2, 1))


def _sums_in_order(kernel) -> bool:
    """Whether ``kernel`` gives the row-block kernel's bits on the probe pair in f32 and f64."""
    for dtype in PRECISIONS.values():
        a, b = _probe_operands(dtype)
        if kernel(a, b).tobytes() != _rowblock(a, b).tobytes():
            return False
    return True


# chosen once per process from the numpy build; no setting selects it
_kernel = _einsum if _sums_in_order(_einsum) else _rowblock


def _product(a: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    # b in C order, a strided b copied tile by tile, a one-column b doubled (see matmul)
    _require_same_dtype(a, b, op)
    if b.shape[2] == 1:
        return _kernel(a, np.repeat(b, 2, axis=2))[:, :, :1].copy()
    if b.flags.c_contiguous:
        return _kernel(a, b)
    c = np.empty(b.shape, b.dtype)
    for k in range(0, b.shape[2], _TILE):
        c[:, :, k : k + _TILE] = b[:, :, k : k + _TILE]
    return _kernel(a, c)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [r,c] and b [c,k] with sequential accumulation.

    Every output element is ``0 + a[i,0]*b[0,l] + a[i,1]*b[1,l] + ...``,
    added in index order j = 0..c-1 with each product and each sum
    rounded, as a scalar triple loop computes it.  numpy's einsum kernel
    does the sum: into a zeroed C-order output it adds ``a[i, j] * b[j, :]``
    for j = 0, 1, ..., reading ``b`` once per row of ``a`` and buffering
    no products.  That holds only while k is the inner loop, so ``b`` is
    copied into C order (a ``W^T`` view would make j the unit-stride,
    inner axis) ``_TILE`` columns at a time, so that a tile's few rows of
    W stay in cache; a one-column ``b`` runs with its column doubled and
    the copy dropped afterwards (with k = 1 einsum switches to its
    unrolled dot kernel, which regroups the sum).  A strided ``a`` costs
    nothing.  The product runs as the one-slice case of ``batched_matmul``.

    This order and rounding are properties of the numpy build, not
    documented API.  At import, ``_sums_in_order`` compares einsum bit for
    bit with the row-block kernel on instances that an FMA, a regrouped sum
    or a missing +0.0 start would each change.  Where they differ, as on
    builds whose einsum multiply-add is a fused instruction (aarch64
    NEON), every product runs on the row-block kernel, several times slower.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    return _product(a[None], b[None], "matmul")[0]


def batched_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [S, r, c] times b [S, c, k] as [S, r, k], slice s bit for bit ``matmul(a[s], b[s])``."""
    if a.ndim != 3 or b.ndim != 3 or len(a) != len(b) or a.shape[2] != b.shape[1]:
        raise DimensionError(f"batched_matmul needs [S, r, c] x [S, c, k], got {a.shape} and {b.shape}")
    return _product(a, b, "batched_matmul")


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product; shapes and dtypes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    _require_same_dtype(a, b, "hadamard")
    return a * b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum; shapes and dtypes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    _require_same_dtype(a, b, "add")
    return a + b


def scale(a: np.ndarray, s: float) -> np.ndarray:
    """Scalar multiple; the scalar is cast to the tensor dtype first."""
    return a * a.dtype.type(s)


def add_row(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add a vector v [d] to every row of a [..., d]."""
    if v.ndim != 1 or a.ndim < 1 or a.shape[-1] != v.shape[0]:
        raise DimensionError(f"add_row: {a.shape} incompatible with {v.shape}")
    _require_same_dtype(a, v, "add_row")
    return a + v


def mul_row(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Multiply every row of a [..., d] elementwise by v [d]."""
    if v.ndim != 1 or a.ndim < 1 or a.shape[-1] != v.shape[0]:
        raise DimensionError(f"mul_row: {a.shape} incompatible with {v.shape}")
    _require_same_dtype(a, v, "mul_row")
    return a * v


def roll(y: np.ndarray, r: int) -> np.ndarray:
    """Circular shift along the last axis: out[..., i] = y[..., (i+r) % d].

    The shift index is reduced mod d into [0, d), which wraps the band
    ends around; leading axes are untouched.  roll(roll(y, r), -r) is the
    identity for every integer r.
    """
    if y.ndim < 1 or y.shape[-1] < 1:
        raise DimensionError(f"roll needs a non-empty last axis, got {y.shape}")
    d = y.shape[-1]
    s = int(r) % d
    out = np.empty_like(y)
    out[..., : d - s] = y[..., s:]
    out[..., d - s :] = y[..., :s]
    return out


def _sum_axis0(a: np.ndarray) -> np.ndarray:
    # 0 + a[0] + a[1] + ...: accumulate adds in index order (add.reduce may sum
    # pairwise); adding to zeros turns an all -0.0 sum into +0.0, as the 0 start does
    out = np.zeros(a.shape[1:], dtype=a.dtype)
    if len(a):
        np.add(np.add.accumulate(a, axis=0)[-1], out, out=out)
    return out


def reduce_sum(a: np.ndarray, keep: int = 0) -> np.ndarray:
    """Sum of every element with a fixed sequential accumulation order.

    Leading axes are reduced one at a time, each sequentially in index
    order, until a scalar (or the last ``keep`` axes) remains.  The order
    is part of the contract: identical inputs give bit-identical sums
    everywhere this runs.
    """
    out = a
    while out.ndim > keep:
        out = _sum_axis0(out)
    return out
