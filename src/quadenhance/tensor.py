"""Dense tensor kernels with bit-reproducible semantics.

Values are plain C-contiguous numpy arrays in float32 or float64.
``matmul`` and ``reduce_sum`` fix their accumulation order: each adds in
index order along the summed axis, so repeated runs and independently
coded references agree bit for bit, not just within rounding noise (a
naive triple loop reproduces ``matmul`` exactly).  The other kernels are
single elementwise ufunc calls.  The differentiable layers also call
numpy directly: activations, losses, and ``np.add.reduce`` in the bias
and coupling gradients, which sums in numpy's own order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# config precision names and the numpy dtypes they select
PRECISIONS = {"f32": np.float32, "f64": np.float64}


def _require_same_dtype(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.dtype != b.dtype:
        raise DimensionError(f"{op}: dtype mismatch {a.dtype} vs {b.dtype}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [r,c] and b [c,k] with sequential accumulation.

    The sum over the contraction axis runs in index order, one rank-1
    update per step, so every output element sees exactly the operation
    sequence ``acc += a[i,j]*b[j,l]`` for j = 0..c-1.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    _require_same_dtype(a, b, "matmul")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for j in range(a.shape[1]):
        out += a[:, j : j + 1] * b[j]
    return out


def transpose(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2:
        raise DimensionError(f"transpose needs a matrix, got shape {a.shape}")
    return np.ascontiguousarray(a.T)


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
    return np.roll(y, -int(r), axis=-1)


def _sum_axis0(a: np.ndarray) -> np.ndarray:
    # 0 + a[0] + a[1] + ...: accumulate adds in index order (add.reduce may sum
    # pairwise); adding to zeros turns an all -0.0 sum into +0.0, as the 0 start does
    out = np.zeros(a.shape[1:], dtype=a.dtype)
    if len(a):
        np.add(np.add.accumulate(a, axis=0)[-1], out, out=out)
    return out


def reduce_sum(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Sum with a fixed sequential accumulation order.

    axis=None reduces leading axes one at a time (each sequentially in
    index order) until a scalar remains; an integer axis reduces that
    axis only.  The order is part of the contract: identical inputs give
    bit-identical sums everywhere this runs.
    """
    if axis is None:
        out = a
        while out.ndim > 0:
            out = _sum_axis0(out)
        return out
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"axis {axis} invalid for shape {a.shape}")
    return _sum_axis0(np.moveaxis(a, axis, 0))


def argmax_last(a: np.ndarray) -> np.ndarray:
    """Index of the maximum along the last axis, ties to the lowest index."""
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionError(f"argmax_last needs a non-empty last axis, got {a.shape}")
    return np.argmax(a, axis=-1)

