"""Reverse-mode differentiation over the tensor kernels.

A ``Tape`` is an append-only list of nodes; recording happens during the
forward pass and ``backward`` walks the list once in reverse, so the
visit order is topological by construction and gradient accumulation
order is fixed (bit-reproducible runs).

Each differentiable operation here wraps the corresponding pure kernel
from :mod:`quadenhance.tensor` and attaches its adjoint rule:

    linear(x, W) = x W^T:  gx = g @ W (None for a constant x),  gW = g^T @ x
    hadamard:              gA = g * B,  gB = g * A
    add:                   pass-through
    reduce_sum:            broadcast of g
    band_quadratic(y, λ):  (L y) * y + y with L y = Σ_r λ_r * roll(y, r),
                           in :mod:`quadenhance.enhancer`; with gacc = g * y,
                           gλ_r = Σ_rows gacc * roll(y, r) and
                           gy = g + g * (L y) + Σ_r roll(gacc * λ_r, -r),
                           the roll terms added in reverse shift order

plus a handful of activation and loss primitives the layer stack needs
and the ``Layer`` protocol every model follows.  ``linear`` is the one
place a single vector [n] runs as a one-row batch [1, n]; every other
primitive is elementwise, rolls the last axis or sums over all axes, so
a vector needs no batch axis there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .errors import DataError, DimensionError, NumericError, UsageError


@dataclass
class Node:
    op: str
    inputs: tuple[int, ...]
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None
    requires_grad: bool


class Variable:
    """A tensor value registered on a tape, addressable by node id."""

    __slots__ = ("value", "node_id", "tape", "requires_grad")

    def __init__(self, value: np.ndarray, node_id: int, tape: "Tape", requires_grad: bool):
        self.value = value
        self.node_id = node_id
        self.tape = tape
        self.requires_grad = requires_grad

    def __repr__(self):
        return f"Variable(node={self.node_id}, shape={self.value.shape}, grad={self.requires_grad})"


class Tape:
    """Single-writer record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _leaf(self, value: np.ndarray, requires_grad: bool, op: str) -> Variable:
        self.nodes.append(Node(op, (), None, requires_grad))
        return Variable(value, len(self.nodes) - 1, self, requires_grad)

    def const(self, value) -> Variable:
        """Register a value gradients will not be tracked for."""
        return self._leaf(np.asarray(value), False, "const")

    def param(self, value, name: str | None = None) -> Variable:
        """Register a trainable leaf."""
        return self._leaf(np.asarray(value), True, f"param:{name}" if name else "param")

    def record(self, op: str, inputs: Sequence[Variable], value: np.ndarray,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None) -> Variable:
        """Append an operation node.

        ``backward`` maps the upstream gradient to one gradient (or None)
        per input, in input order; it is dropped when no input requires a
        gradient, so a forward-only caller may pass None.  All inputs must
        live on this tape.
        """
        for v in inputs:
            if v.tape is not self:
                raise UsageError(f"variable from a different tape passed to {op}")
        requires = any(v.requires_grad for v in inputs)
        self.nodes.append(Node(op, tuple(v.node_id for v in inputs),
                               backward if requires else None, requires))
        return Variable(value, len(self.nodes) - 1, self, requires)

    def backward(self, loss: Variable) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss for every grad-requiring node.

        Nodes are visited exactly once, in reverse recording order; a
        variable feeding several nodes accumulates its gradient by
        summation in that fixed order.
        """
        if loss.tape is not self:
            raise UsageError("loss lives on a different tape")
        if loss.value.shape != ():
            raise UsageError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[loss.node_id] = np.ones((), dtype=loss.value.dtype)
        for nid in range(loss.node_id, -1, -1):
            node = self.nodes[nid]
            g = grads[nid]
            if g is None or node.backward is None:
                continue
            contributions = node.backward(g)
            for iid, gin in zip(node.inputs, contributions):
                if gin is None or not self.nodes[iid].requires_grad:
                    continue
                grads[iid] = gin if grads[iid] is None else grads[iid] + gin
        return {nid: g for nid, g in enumerate(grads)
                if g is not None and self.nodes[nid].requires_grad}


# ---------------------------------------------------------------------------
# differentiable primitives
# ---------------------------------------------------------------------------

def linear(x: Variable, w: Variable) -> Variable:
    """x @ W^T for x [batch, n] or [n] (run as one row) and W [d, n], as one node."""
    xv, wv, need_gx = x.value, w.value, x.requires_grad
    rows = xv.reshape(1, -1) if xv.ndim == 1 else xv
    out = T.matmul(rows, wv.T).reshape(*xv.shape[:-1], -1)

    def bwd(g):
        # a constant input (layer 0's batch) needs no gradient, so skip its GEMM;
        # the closure holds no Variable, which would tie the tape into a cycle
        g = g.reshape(-1, wv.shape[0])
        gx = T.matmul(g, wv).reshape(xv.shape) if need_gx else None
        return (gx, T.matmul(g.T, rows))

    return x.tape.record("linear", (x, w), out, bwd)


def hadamard(a: Variable, b: Variable) -> Variable:
    out = T.hadamard(a.value, b.value)
    av, bv = a.value, b.value
    return a.tape.record("hadamard", (a, b), out, lambda g: (g * bv, g * av))


def add(a: Variable, b: Variable) -> Variable:
    out = T.add(a.value, b.value)
    return a.tape.record("add", (a, b), out, lambda g: (g, g))


def scale(a: Variable, s: float) -> Variable:
    out = T.scale(a.value, s)
    c = a.value.dtype.type(s)
    return a.tape.record("scale", (a,), out, lambda g: (g * c,))


def add_row(a: Variable, v: Variable) -> Variable:
    """Broadcast-add a d-vector across the leading axes of a [..., d]."""
    out = T.add_row(a.value, v.value)
    d = v.value.shape[0]

    def bwd(g):
        # a vector sums as one row too: add.reduce starts from +0.0, so a
        # -0.0 entry reads as it does in a one-row batch
        return (g, np.add.reduce(g.reshape(-1, d), axis=0))

    return a.tape.record("add_row", (a, v), out, bwd)


def reduce_sum(a: Variable) -> Variable:
    out = T.reduce_sum(a.value)
    shape, dtype = a.value.shape, a.value.dtype
    return a.tape.record("reduce_sum", (a,), out, lambda g: (np.full(shape, g, dtype=dtype),))


def relu(a: Variable) -> Variable:
    out = np.maximum(a.value, a.value.dtype.type(0))
    mask = (a.value > 0).astype(a.value.dtype)
    return a.tape.record("relu", (a,), out, lambda g: (g * mask,))


def gelu(a: Variable) -> Variable:
    """Exact (erf-based) gaussian-weighted linear unit."""
    from scipy import special

    x = a.value
    cdf = special.ndtr(x.astype(np.float64)).astype(x.dtype)
    out = x * cdf
    if not a.requires_grad:
        return a.tape.record("gelu", (a,), out, None)
    pdf = (np.exp(-0.5 * x.astype(np.float64) ** 2) / np.sqrt(2.0 * np.pi)).astype(x.dtype)
    local = cdf + x * pdf
    return a.tape.record("gelu", (a,), out, lambda g: (g * local,))


def sigmoid(a: Variable) -> Variable:
    x = a.value
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    s = out

    def bwd(g):
        return (g * s * (1.0 - s),)

    return a.tape.record("sigmoid", (a,), out, bwd)


def cross_entropy(logits: Variable, labels: np.ndarray) -> Variable:
    """Mean negative log-softmax at the label index, max-stabilized.

    labels is an integer array of shape [B] with entries in [0, C).
    """
    z = logits.value
    if z.ndim != 2:
        raise DimensionError(f"cross_entropy expects [batch, classes] logits, got {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= z.shape[1]):
        raise DataError(f"label out of range [0, {z.shape[1]})")
    b = z.shape[0]
    m = np.max(z, axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - lse
    loss = np.asarray(-np.mean(logp[np.arange(b), labels]), dtype=z.dtype)

    def bwd(g):
        gz = np.exp(logp)
        gz[np.arange(b), labels] -= 1.0
        gz *= g / z.dtype.type(b)
        return (gz.astype(z.dtype, copy=False),)

    return logits.tape.record("cross_entropy", (logits,), loss, bwd)


class Layer:
    """The protocol every model follows.

    A subclass provides ``parameters()`` (name -> array),
    ``load_parameters(params)`` and ``apply(tape, bound, x)``; binding the
    parameters to a tape and array-in/array-out evaluation live here.
    """

    def bind(self, tape: Tape) -> dict[str, Variable]:
        return {k: tape.param(v, name=k) for k, v in self.parameters().items()}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Array-in, array-out evaluation over a throwaway tape.

        The parameters bind as constants, so no node keeps a backward
        closure or the activations it would hold.
        """
        tape = Tape()
        bound = {k: tape.const(v) for k, v in self.parameters().items()}
        return self.apply(tape, bound, tape.const(x)).value


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tol: float
    step: float

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.max_rel_err)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "ok" if e.max_rel_err <= self.tol else "FAIL"
            out.append(f"{status:4s} {e.name:30s} max rel err {e.max_rel_err:.3e} "
                       f"at {e.worst_index} (analytic {e.analytic:.6e}, numeric {e.numeric:.6e})")
        return out


def gradcheck(f, params: dict[str, np.ndarray], step: float = 1e-6,
              tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    ``f(tape, bound)`` must build and return a scalar Variable from the
    bound parameter dict (and should cast any internal constants to the
    bound dtype).  For every entry of every parameter the check evaluates
    (f(w+h) - f(w-h)) / 2h and reports the relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    The difference quotients always run in float64, whatever the dtype of
    the analytic pass: float32 parameters lift to float64 losslessly, so
    both evaluate the same function at the same point, and a float32
    quotient with a step of 1e-6 would be single-precision rounding noise.
    The quotients never call ``backward``, so they bind the parameters as
    constants and keep no backward state.
    """
    analytic_tape = Tape()
    bound = {k: analytic_tape.param(v, name=k) for k, v in params.items()}
    loss = f(analytic_tape, bound)
    if loss.value.shape != ():
        raise UsageError("gradcheck target must be scalar-valued")
    grads = analytic_tape.backward(loss)

    work = {k: np.array(v, copy=True, dtype=np.float64) for k, v in params.items()}

    def evaluate() -> float:
        tape = Tape()
        fd_bound = {k: tape.const(v) for k, v in work.items()}
        return float(f(tape, fd_bound).value)

    entries = []
    for name in params:
        arr = work[name]
        analytic = grads.get(bound[name].node_id)
        if analytic is None:
            analytic = np.zeros_like(arr)
        if not np.all(np.isfinite(analytic)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(analytic))), arr.shape)
            raise NumericError(f"non-finite analytic gradient for {name} at {idx}")
        numeric = np.zeros(arr.shape, dtype=np.float64)
        flat = arr.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = evaluate()
            flat[i] = orig - step
            f_minus = evaluate()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                idx = np.unravel_index(i, arr.shape)
                raise NumericError(f"non-finite loss while perturbing {name} at {idx}")
            nflat[i] = (f_plus - f_minus) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic.astype(np.float64) - numeric) / denom
        widx = np.unravel_index(int(np.argmax(rel)), arr.shape) if arr.size else ()
        entries.append(GradCheckEntry(
            name=name,
            max_rel_err=float(rel.max()) if arr.size else 0.0,
            worst_index=widx,
            analytic=float(analytic[widx]) if arr.size else 0.0,
            numeric=float(numeric[widx]) if arr.size else 0.0,
        ))
    return GradCheckReport(entries=entries, tol=tol, step=step)
