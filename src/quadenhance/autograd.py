"""Reverse-mode differentiation over the tensor kernels.

A ``Tape`` is an append-only list of nodes; recording happens during the
forward pass and ``backward`` walks the list once in reverse, so the
visit order is topological by construction and gradient accumulation
order is fixed (bit-reproducible runs).  ``backward`` returns the
gradients of the grad-requiring leaves only and uses its tape up: each
operation node's closure, with the activations it saved, and its
gradient go as soon as the node has run, and a second ``backward`` on
the same tape raises.

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
a vector needs no batch axis there.  A *stacked* constant holds S values
along a new leading axis; every primitive here and in ``enhancer`` runs
each slice through the IEEE operations of its solo pass, so one pass
evaluates S points, as ``gradcheck`` does with the ±h points of all its
parameters.  A stacked W runs on ``tensor.batched_matmul``, whose slices
get ``matmul``'s bits: both run the one exact kernel, ``matmul`` as one slice.
"""

from __future__ import annotations

import math
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

    __slots__ = ("value", "node_id", "tape", "requires_grad", "stacked")

    def __init__(self, value: np.ndarray, node_id: int, tape: "Tape", requires_grad: bool, stacked=False):
        self.value = value
        self.node_id = node_id
        self.tape = tape
        self.requires_grad = requires_grad
        self.stacked = stacked

    def __repr__(self):
        return f"Variable(node={self.node_id}, shape={self.value.shape}, grad={self.requires_grad})"


class Tape:
    """Single-writer record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.used = False

    def _leaf(self, value: np.ndarray, requires_grad: bool, op: str, stacked: bool = False) -> Variable:
        self.nodes.append(Node(op, (), None, requires_grad))
        return Variable(value, len(self.nodes) - 1, self, requires_grad, stacked)

    def const(self, value, stacked: bool = False) -> Variable:
        """Register a value gradients will not be tracked for (one per leading slice if ``stacked``)."""
        return self._leaf(np.asarray(value), False, "const", stacked)

    def param(self, value, name: str | None = None) -> Variable:
        """Register a trainable leaf."""
        return self._leaf(np.asarray(value), True, f"param:{name}" if name else "param")

    def record(self, op: str, inputs: Sequence[Variable], value: np.ndarray,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None) -> Variable:
        """Append an operation node.

        ``backward`` maps the upstream gradient to one gradient (or None)
        per input, in input order; it is dropped when no input requires a
        gradient, so a forward-only caller may pass None.  All inputs must
        live on this tape.  The output is stacked, ``value`` with its slice
        axis, if an input is; a stacked input may not meet a grad-requiring one.
        """
        requires = stacked = False
        for v in inputs:
            if v.tape is not self:
                raise UsageError(f"variable from a different tape passed to {op}")
            requires, stacked = requires or v.requires_grad, stacked or v.stacked
        if requires and stacked:
            raise UsageError(f"{op}: a stacked constant meets a grad-requiring input")
        self.nodes.append(Node(op, tuple(v.node_id for v in inputs),
                               backward if requires else None, requires))
        return Variable(value, len(self.nodes) - 1, self, requires, stacked)

    def backward(self, loss: Variable) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss for every grad-requiring leaf, by node id.

        Nodes are visited exactly once, in reverse recording order; a
        variable feeding several nodes accumulates its gradient by
        summation in that fixed order.  Backward uses the tape up: once an
        operation node has run, its closure, with the activations it
        saved, and its own gradient are dropped, so the pass holds no more
        than the gradients still flowing and the activations still to be
        used.  A second call raises ``UsageError``.
        """
        if self.used:
            raise UsageError("this tape's backward has already run; record a new tape")
        if loss.tape is not self:
            raise UsageError("loss lives on a different tape")
        if loss.value.shape != ():
            raise UsageError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        self.used = True
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[loss.node_id] = np.ones((), dtype=loss.value.dtype)
        for nid in range(loss.node_id, -1, -1):
            node = self.nodes[nid]
            if not node.inputs:
                continue            # a leaf keeps its gradient
            backward, node.backward = node.backward, None
            g, grads[nid] = grads[nid], None
            if g is None or backward is None:
                continue
            for iid, gin in zip(node.inputs, backward(g)):
                if gin is None or not self.nodes[iid].requires_grad:
                    continue
                grads[iid] = gin if grads[iid] is None else grads[iid] + gin
        return {nid: g for nid, g in enumerate(grads) if g is not None}


# ---------------------------------------------------------------------------
# differentiable primitives
# ---------------------------------------------------------------------------

def lift(*vs: Variable) -> list[np.ndarray]:
    """The values of ``vs``, each unstacked one repeated to one copy per slice
    if another is stacked, so exact-shape checks see solo shapes."""
    s = next((len(v.value) for v in vs if v.stacked), None)
    return [v.value if s is None or v.stacked else v.value[None].repeat(s, 0) for v in vs]


def slice_rows(v: np.ndarray, shape) -> np.ndarray:
    """A stacked row vector [S, d] repeated to a stacked [S, ..., d]."""
    return v[:, None].repeat(math.prod(shape[1:-1]), 1).reshape(shape)


def linear(x: Variable, w: Variable) -> Variable:
    """x @ W^T for x [batch, n] or [n] (run as one row) and W [d, n], as one node.

    A stacked x folds its slices into the rows; a stacked W [S, d, n] runs as
    one batched product of x[s] (or the solo x) and W[s]^T.
    """
    xv, wv, need_gx = x.value, w.value, x.requires_grad
    rows = xv.reshape(math.prod(xv.shape[:-1]), xv.shape[-1]) if 0 < xv.ndim <= 2 + x.stacked else xv
    if not w.stacked:
        out = T.matmul(rows, wv.T).reshape(*xv.shape[:-1], -1)
    else:
        xs = lift(x, w)[0]
        out = T.batched_matmul(xs if xs.ndim == 3 else xs[:, None], wv.transpose(0, 2, 1))
        out = out.reshape(*xs.shape[:-1], -1)

    def bwd(g):
        # a constant input (layer 0's batch) needs no gradient, so skip its GEMM;
        # the closure holds no Variable, which would tie the tape into a cycle
        g = g.reshape(-1, wv.shape[0])
        gx = T.matmul(g, wv).reshape(xv.shape) if need_gx else None
        return (gx, T.matmul(g.T, rows))

    return x.tape.record("linear", (x, w), out, bwd)


def hadamard(a: Variable, b: Variable) -> Variable:
    av, bv = lift(a, b)
    out = T.hadamard(av, bv)
    return a.tape.record("hadamard", (a, b), out, lambda g: (g * bv, g * av))


def add(a: Variable, b: Variable) -> Variable:
    out = T.add(*lift(a, b))
    return a.tape.record("add", (a, b), out, lambda g: (g, g))


def scale(a: Variable, s: float) -> Variable:
    out = T.scale(a.value, s)
    c = a.value.dtype.type(s)
    return a.tape.record("scale", (a,), out, lambda g: (g * c,))


def add_row(a: Variable, v: Variable) -> Variable:
    """Broadcast-add a d-vector across the leading axes of a [..., d]."""
    av, vv = lift(a, v)
    out = T.add(av, slice_rows(vv, av.shape)) if a.stacked or v.stacked else T.add_row(av, vv)
    d = v.value.shape[0]

    def bwd(g):
        # a vector sums as one row too: add.reduce starts from +0.0, so a
        # -0.0 entry reads as it does in a one-row batch
        return (g, np.add.reduce(g.reshape(-1, d), axis=0))

    return a.tape.record("add_row", (a, v), out, bwd)


def reduce_sum(a: Variable) -> Variable:
    """Sum of every element; a stacked a [S, ...] sums each slice, in the same order."""
    out = T.reduce_sum(np.moveaxis(a.value, 0, -1), keep=1) if a.stacked else T.reduce_sum(a.value)
    shape, dtype = a.value.shape, a.value.dtype
    return a.tape.record("reduce_sum", (a,), out, lambda g: (np.full(shape, g, dtype=dtype),))


def relu(a: Variable) -> Variable:
    out = np.maximum(a.value, a.value.dtype.type(0))
    mask = (a.value > 0).astype(a.value.dtype)
    return a.tape.record("relu", (a,), out, lambda g: (g * mask,))


def gelu(a: Variable) -> Variable:
    """Exact gaussian-weighted linear unit x * Phi(x), Phi from ``tensor.ndtr`` in f64."""
    x = a.value
    x64 = x.astype(np.float64)
    cdf = T.ndtr(x64).astype(x.dtype)
    out = x * cdf
    if not a.requires_grad:
        return a.tape.record("gelu", (a,), out, None)
    pdf = (np.exp(-0.5 * x64 ** 2) / np.sqrt(2.0 * np.pi)).astype(x.dtype)
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

    labels is an integer array of shape [B] with entries in [0, C).  Each
    step acts on the last axis: stacked logits give one loss per slice.
    """
    z = logits.value
    if z.ndim != 2 + logits.stacked:
        raise DimensionError(f"cross_entropy expects [batch, classes] logits, got {z.shape}")
    b, c = z.shape[-2:]
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"label out of range [0, {c})")
    m = np.max(z, axis=-1, keepdims=True)
    shifted = z - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    logp = shifted - lse
    loss = np.asarray(-np.mean(logp[..., np.arange(b), labels], axis=-1), dtype=z.dtype)

    def bwd(g):
        gz = np.exp(logp)
        gz[np.arange(b), labels] -= 1.0
        gz *= g / z.dtype.type(b)
        return (gz.astype(z.dtype, copy=False),)

    return logits.tape.record("cross_entropy", (logits,), loss, bwd)


class Layer:
    """The protocol every model follows.

    A subclass provides ``parameters()`` (name -> array) and
    ``apply(tape, bound, x)``.  ``load_parameters(params)`` sets the
    attribute each parameter name names (a subclass whose names are not
    attributes overrides it); binding and array-in/array-out evaluation live here.
    """

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        for name in self.parameters():
            setattr(self, name, params[name])

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


# most slices in one stacked pass of ``central_differences`` (one +-h pair at least)
_FD_SLICES = 64


def central_differences(f, params: dict[str, np.ndarray], step: float) -> tuple[dict, dict]:
    """(f(w + h e_i) - f(w - h e_i)) / 2h in float64 for every entry i of
    every parameter, and whether both its losses were finite, per name.

    The entries of all parameters, in dict and then C order, share stacked
    passes of ``_FD_SLICES // 2``: every slice holds the whole point, slices
    2i and 2i+1 with the pass's entry i at +h and -h.  A parameter owning
    one of those entries binds as its columns of the stack, the rest bind
    plain, so each quotient is a per-entry loop's, bit for bit.
    """
    point = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    flat = np.concatenate([np.empty(0), *(v.reshape(-1) for v in point.values())])
    starts = np.cumsum([0, *(v.size for v in point.values())]).tolist()
    numeric, finite, pairs = np.empty(flat.size), np.empty(flat.size, dtype=bool), max(1, _FD_SLICES // 2)
    for lo in range(0, flat.size, pairs):
        idx = np.arange(lo, min(lo + pairs, flat.size))
        stack = np.repeat(flat[None], 2 * len(idx), axis=0).reshape(len(idx), 2, -1)
        stack[np.arange(len(idx)), :, idx] = flat[idx, None] + [step, -step]
        stack, tape = stack.reshape(2 * len(idx), -1), Tape()
        bound = {k: tape.const(stack[:, s0:s0 + v.size].reshape(-1, *v.shape), stacked=True)
                 if v.size and s0 <= idx[-1] and lo < s0 + v.size else tape.const(v)
                 for (k, v), s0 in zip(point.items(), starts)}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            loss = np.asarray(f(tape, bound).value, dtype=np.float64)
            pm = np.broadcast_to(loss, (2 * len(idx),)).reshape(-1, 2)
            finite[idx] = np.isfinite(pm).all(axis=1)
            numeric[idx] = (pm[:, 0] - pm[:, 1]) / (2.0 * step)
    return tuple({k: a[s0:s0 + v.size].reshape(v.shape) for (k, v), s0 in zip(point.items(), starts)}
                 for a in (numeric, finite))


def gradcheck(f, params: dict[str, np.ndarray], step: float = 1e-6,
              tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    ``f(tape, bound)`` must build and return a scalar Variable from the
    bound parameter dict (and should cast any internal constants to the
    bound dtype) from the package's primitives or ``record`` ops that act on
    each leading slice alone: ``central_differences`` evaluates
    (f(w+h) - f(w-h)) / 2h for the entries of all parameters in shared
    stacked passes.  Each parameter in turn must have a finite analytic
    gradient, then finite losses at its +-h points, or the first non-finite
    entry raises.  The check reports the relative error
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
    grads = analytic_tape.backward(f(analytic_tape, bound))
    quotients, finite = central_differences(f, params, step)

    entries = []
    for name, numeric in quotients.items():
        analytic = grads.get(bound[name].node_id, np.zeros(numeric.shape))
        if not np.all(np.isfinite(analytic)):
            idx = np.unravel_index(int(np.argmin(np.isfinite(analytic))), numeric.shape)
            raise NumericError(f"non-finite analytic gradient for {name} at {idx}")
        if not finite[name].all():
            at = np.unravel_index(int(np.argmin(finite[name])), numeric.shape)
            raise NumericError(f"non-finite loss while perturbing {name} at {at}")
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic.astype(np.float64) - numeric) / denom
        widx = np.unravel_index(int(np.argmax(rel)), numeric.shape) if numeric.size else ()
        worst = [float(v[widx]) if numeric.size else 0.0 for v in (rel, analytic, numeric)]
        entries.append(GradCheckEntry(name, worst[0], widx, *worst[1:]))
    return GradCheckReport(entries=entries, tol=tol, step=step)
