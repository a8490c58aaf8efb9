"""Band-sparse quadratic augmentation of a linear layer.

A plain layer computes y = W x + b.  The enhanced layer reuses that same
linear response y once more to form cheap quadratic cross terms:

    z = (L y) * y + y + b

where L is a d-by-d coupling matrix restricted to a few circularly
wrapped diagonals.  Each active diagonal is a "shift" r with its own
trainable d-vector, so

    L y = sum_r  lambda_r * roll(y, r)

costs k*d parameters and O(k*d) work instead of d*d.  A layer keeps the
coupling as the dict ``lam`` {r: lambda_r}, applied in its order.  A shift
that reduces to 0 mod d would couple each coordinate to itself (square
terms, which blow up far more easily than cross terms), so ``check_shifts``
rejects it unless explicitly overridden.

On a tape an enhanced layer is three nodes, ``linear`` (y = x W^T),
``band_quadratic`` ((L y) * y + y) and ``add_row`` (+ b); a plain layer,
one whose coupling has no shifts, is ``linear`` and ``add_row``.

``quadratic_reference`` and ``dense_lambda_oracle`` are independent
reference implementations used to verify the fast path; they evaluate
the unfactored per-output bilinear forms and the materialized coupling
matrix directly through numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import tensor as T
from .errors import ConfigError, DimensionError, NumericError
from .rng import Rng


def check_shifts(shifts, d: int, where: str, remedy: str) -> None:
    """ConfigError naming ``where`` for a shift given twice, or for one that
    is 0 mod d: it would couple each coordinate to itself, a square term."""
    if len(set(shifts)) != len(shifts):
        raise ConfigError(f"{where}: duplicate shifts in {list(shifts)}")
    for r in shifts:
        if r % d == 0:
            raise ConfigError(f"{where}: shift {r} reduces to 0 mod {d} and would produce "
                              f"square terms; {remedy}")


def _band_sum(y: np.ndarray, shifts, vectors) -> np.ndarray | None:
    """sum_i vectors[i] * roll(y, shifts[i]), accumulated in shift order."""
    out = None
    for r, v in zip(shifts, vectors):
        term = T.mul_row(T.roll(y, r), v) if v.ndim == 1 else T.hadamard(T.roll(y, r), v)
        out = term if out is None else T.add(out, term)
    return out


def apply_lambda(lam: dict[int, np.ndarray], y: np.ndarray) -> np.ndarray:
    """Band coupling {shift: d-vector} applied to y [..., d]: sum_r lambda_r * roll(y, r).

    Same kernel loop as ``band_quadratic``, so the two agree bitwise.  An
    empty coupling returns zeros.
    """
    out = _band_sum(y, lam, [v.astype(y.dtype, copy=False) for v in lam.values()])
    return out if out is not None else np.zeros(y.shape, dtype=y.dtype)


def band_quadratic(y: ag.Variable, shifts, lams) -> ag.Variable:
    """(L y) * y + y for y [..., d] as one tape node, one d-vector in
    ``lams`` per shift; the adjoint is written out in ``autograd``.

    The backward pass adds its terms in the order the unfused
    roll/row-product/sum tape did, so every bit matches it (per slice if stacked).
    It recomputes the band sum L y rather than holding it from the forward
    pass, so the node holds one activation, ``y``, not two.
    """
    yv, *vecs = ag.lift(y, *lams)
    if any(v.stacked for v in (y, *lams)):
        vecs = [ag.slice_rows(v, yv.shape) for v in vecs]
    out = T.add(T.hadamard(_band_sum(yv, shifts, vecs), yv), yv)
    d = yv.shape[-1]

    def bwd(g):
        gacc = g * yv
        gy = g + g * _band_sum(yv, shifts, vecs)
        glams = [None] * len(vecs)
        for i in reversed(range(len(vecs))):
            gv = gacc * T.roll(yv, shifts[i])
            glams[i] = np.add.reduce(gv.reshape(-1, d), axis=0)   # a vector too, as in add_row
            gy = gy + T.roll(gacc * vecs[i], -shifts[i])
        return (gy, *glams)

    return y.tape.record("band_quadratic", (y, *lams), out, bwd)


def dense_lambda_oracle(lam: dict[int, np.ndarray], d: int) -> np.ndarray:
    """Materialize the coupling as a dense d x d matrix.

    M[i, (i + r) mod d] accumulates lambda_r[i]; shifts that collide
    modulo d add up, preserving apply_lambda(lam, y) == M @ y.
    """
    m = np.zeros((d, d), dtype=next(iter(lam.values())).dtype if lam else np.float64)
    rows = np.arange(d)
    for r, v in lam.items():
        np.add.at(m, (rows, (rows + r) % d), v)
    return m


@dataclass
class QELayer(ag.Layer):
    """Linear layer with a quadratic enhancer stage on the shifts of ``lam``.

    ``lam`` maps each shift r to its d-vector lambda_r, in the order the
    shifts are applied.  A layer with an empty ``lam`` (or whose
    coefficients are all zero) is exactly z = W x + b.  A shift that is
    0 mod d is rejected unless ``allow_square_terms`` is set.
    """

    W: np.ndarray                # [d, n]
    b: np.ndarray                # [d]
    lam: dict[int, np.ndarray]   # shift -> [d]
    name: str = "qe"
    allow_square_terms: bool = False

    def __post_init__(self):
        if self.W.ndim != 2:
            raise DimensionError(f"W must be a matrix, got shape {self.W.shape}")
        d = self.W.shape[0]
        if d < 1:
            raise ConfigError(f"dimension must be >= 1, got {d}")
        if self.b.shape != (d,):
            raise DimensionError(f"b shape {self.b.shape} != ({d},)")
        for r, v in self.lam.items():
            if v.shape != (d,):
                raise DimensionError(f"shift {r}: vector shape {v.shape} != ({d},)")
        if not self.allow_square_terms:
            check_shifts(tuple(self.lam), d, self.name, "use allow_square_terms to override")

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def d(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return len(self.lam)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b, **{f"lam[{r}]": v for r, v in self.lam.items()}}

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        self.W = params["W"]
        self.b = params["b"]
        for r in self.lam:
            self.lam[r] = params[f"lam[{r}]"]

    def apply(self, tape: ag.Tape, bound: dict[str, ag.Variable], x: ag.Variable) -> ag.Variable:
        """Differentiable forward pass for x of shape [n] or [batch, n].

        The linear response is computed once and reused by both the
        quadratic and the residual path.
        """
        if x.value.shape[-1:] != (self.n,):
            raise DimensionError(f"input shape {x.value.shape} does not end in {self.n}")
        y = ag.linear(x, bound["W"])
        if self.lam:
            shifts = tuple(self.lam)
            y = band_quadratic(y, shifts, [bound[f"lam[{r}]"] for r in shifts])
        out = ag.add_row(y, bound["b"])
        if not np.all(np.isfinite(out.value)):
            raise NumericError(f"non-finite output from layer {self.name!r}")
        return out


def qe_forward(layer: QELayer, x: np.ndarray) -> np.ndarray:
    """Evaluate z = (L y) * y + y + b with y = W x computed once."""
    return layer.forward(x)


def glorot(rng: Rng, d: int, n: int, dtype) -> np.ndarray:
    """[d, n] matrix uniform in [-s, s] with s = sqrt(6 / (n + d))."""
    s = np.sqrt(6.0 / (n + d))
    return rng.uniform(n * d, -s, s).reshape(d, n).astype(dtype)


def init_qelayer(n: int, d: int, shifts, seed: int, dtype=np.float64, name: str = "qe") -> QELayer:
    """Fresh layer, fully determined by the seed.

    W is ``glorot``; the bias and all coupling coefficients start at
    zero, so a fresh layer is exactly its linear baseline.
    """
    if n < 1 or d < 1:
        raise ConfigError(f"layer dims must be >= 1, got n={n}, d={d}")
    check_shifts(shifts, d, name, "drop it or change d")
    return QELayer(W=glorot(Rng(seed), d, n, dtype), b=np.zeros(d, dtype=dtype),
                   lam={r: np.zeros(d, dtype=dtype) for r in shifts}, name=name)


# ---------------------------------------------------------------------------
# independent references (kept deliberately separate from the fast path)
# ---------------------------------------------------------------------------

def quadratic_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                        vs: np.ndarray) -> np.ndarray:
    """Unfactored quadratic transform: z_i = x^T V_i x + (W x)_i + b_i.

    ``vs`` stacks the d per-output matrices as [d, n, n].  Evaluation goes
    through numpy's own matmul, independent of the package kernels: one
    batched ``x @ vs`` gives every row x^T V_i, and ``np.vecdot`` dots each
    with x, the same bits as the per-output ``x @ vs[i] @ x`` (a matrix-vector
    ``(x @ vs) @ x`` would not be).
    """
    d, n = w.shape
    if vs.shape != (d, n, n):
        raise DimensionError(f"expected V stack of shape {(d, n, n)}, got {vs.shape}")
    if x.shape != (n,):
        raise DimensionError(f"expected input of shape ({n},), got {x.shape}")
    return np.vecdot(x @ vs, x) + w @ x + b


def rank1_reference(x: np.ndarray, p: np.ndarray, q: np.ndarray,
                    w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Factored form (P x) * (Q x) + W x + b via plain numpy."""
    return (p @ x) * (q @ x) + w @ x + b


def rank1_v_stack(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-output rank-1 matrices V_i = p_i q_i^T stacked as [d, n, n]."""
    return p[:, :, None] * q[:, None, :]


def layer_v_stack(layer: QELayer, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) = (m W, W) realizing the layer's quadratic term, m its dense coupling."""
    return m @ layer.W, layer.W
