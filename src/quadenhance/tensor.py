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
single elementwise ufunc calls or slice copies, but for ``ndtr``, the
normal cdf, which rebuilds SciPy's bits from ufuncs and libm's exp in
cache-sized blocks; there is no argmax kernel.  The differentiable layers
also call numpy directly:
activations, losses, and ``np.add.reduce`` in the bias and coupling
gradients, which sums in numpy's own order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# config precision names and the numpy dtypes they select
PRECISIONS = {"f32": np.float32, "f64": np.float64}

# products per row block of the fallback kernel's scratch buffer
_BLOCK_PRODUCTS = 1 << 17
# columns per tile when a strided right operand is copied into C order
_TILE = 48

# Cephes ndtr's polynomials, highest degree first; U, Q and S lead with an
# implicit 1.  T is halved (see ndtr).  P/Q (t < 8) and R/S, R padded in front,
# are [m, 2, 1] tables whose rows ndtr runs as one stacked Horner pass
_SQRT1_2, _MAXLOG, _NDTR_BLOCK = 0.70710678118654752440, 7.09782712893383996843e2, 1 << 15
_T = tuple(0.5 * c for c in (9.60497373987051638749e0, 9.00260197203842689217e1,
                             2.23200534594684319226e3, 7.00332514112805075473e3, 5.55923013010394962768e4))
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_PQ = np.array([
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2]]).T[:, :, None]
_RS = np.array([
    [0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [1, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0]]).T[:, :, None]


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


def _horner(x: np.ndarray, acc: np.ndarray, coefs) -> np.ndarray:
    # acc*x + c for each c in turn, in place: from Cephes polevl's first step
    # (c0*x + c1) or p1evl's (x + c0), the rest of their own steps
    for c in coefs:
        acc *= x
        acc += c
    return acc


def ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf in float64, bit for bit SciPy's Cephes ``ndtr``.

    Cephes (Moshier, 1989, on Cody's forms, 1969) takes s = x/sqrt(2).  Below
    |s| = 1 it returns 0.5 + 0.5*s*T(s^2)/U(s^2), run here on every element
    with T halved, which halves each step and s*T/U exactly: only a subnormal
    would round otherwise, and 0.5 plus it is 0.5 either way.  From |s| = 1 it
    returns y = exp(-s^2)*P(|s|)/Q(|s|)/2 (R/S from |s| = 8, 0 past s^2 =
    MAXLOG), or 1 - y for s > 0, run here on the gathered tail only, with
    libm's exp as Cephes has it (numpy's SIMD exp rounds some arguments
    differently).  Cephes takes that branch from 1/sqrt(2), as 0.5*(1 - erf),
    which rounds as the erf form does by Sterbenz's lemma.
    """
    a = np.asarray(x, dtype=np.float64)
    flat, out = a.reshape(-1), np.empty(a.size)
    for i in range(0, a.size, _NDTR_BLOCK):
        s = flat[i : i + _NDTR_BLOCK] * _SQRT1_2
        o = out[i : i + _NDTR_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):  # the erf form past |s| = 1 is discarded
            ss = s * s
            np.multiply(s, _horner(ss, _T[0] * ss + _T[1], _T[2:]), out=o)
            o /= _horner(ss, ss + _U[0], _U[1:])
            o += 0.5
        tail = np.flatnonzero(ss >= 1.0)
        if tail.size:
            t, v = np.minimum(np.abs(s[tail]), 27.0), ss[tail]  # y is 0 past t = 26.6: R/S stay finite
            pq = _horner(t, _PQ[0] * t + _PQ[1], _PQ[2:])
            hi = np.flatnonzero(t >= 8.0)
            if hi.size:
                pq[:, hi] = _horner(t[hi], _RS[0] * t[hi] + _RS[1], _RS[2:])
            y = np.fromiter(map(math.exp, (-v).tolist()), np.float64, v.size) * pq[0] / pq[1] * 0.5
            y[v > _MAXLOG] = 0.0
            o[tail] = np.where(s[tail] > 0, 1.0 - y, y)
    return out.reshape(a.shape)
