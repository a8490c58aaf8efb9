"""Layer stacks, quadratic baselines, losses, and optimizers.

Everything here is built from the differentiable primitives, so one
gradient checker covers the whole zoo.  Every model is an
``autograd.Layer``: it defines ``parameters()`` and ``apply``, and
inherits ``bind``, ``forward`` and, where each parameter's name is its
attribute, ``load_parameters``.  ``SGD`` and ``Adam`` update the
parameter arrays in place through one checked walk over chunks of their
flat views, so neither step makes a parameter-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .enhancer import QELayer, check_shifts, glorot, init_qelayer
from .errors import ConfigError, DimensionError, NumericError
from .rng import Rng
from .tensor import PRECISIONS

ACTIVATIONS = {
    "relu": ag.relu,
    "gelu": ag.gelu,
    "identity": lambda v: v,
}


def check_precision(where: str, name: str) -> None:
    """ConfigError naming ``where`` for a precision name outside ``tensor.PRECISIONS``."""
    if name not in PRECISIONS:
        raise ConfigError(f"{where}: must be one of {sorted(PRECISIONS)}, got {name!r}")


def check_optimizer(lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """ConfigError naming ``optimizer.<key>`` for a hyperparameter out of range."""
    if not lr > 0:
        raise ConfigError(f"optimizer.lr: must be positive, got {lr!r}")
    for key, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0 < value < 1:
            raise ConfigError(f"optimizer.{key}: must lie in (0, 1), got {value!r}")
    if not eps > 0:
        raise ConfigError(f"optimizer.eps: must be positive, got {eps!r}")


@dataclass(frozen=True)
class MLPConfig:
    """Stack of linear layers with an optional enhancer on each one.

    ``enhancer`` is a per-layer mask (default: every layer, including the
    output projection; set ``exempt_final`` for the common variant that
    leaves the last projection plain).
    """

    layer_dims: tuple[int, ...]
    activation: str = "gelu"
    enhancer: tuple[bool, ...] | None = None
    shifts: tuple[int, ...] = (1,)
    seed: int = 0
    exempt_final: bool = False
    dtype: str = "f64"

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ConfigError("need at least input and output dims")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigError(f"all dims must be >= 1, got {self.layer_dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        check_precision("dtype", self.dtype)
        if self.enhancer is not None and len(self.enhancer) != self.n_layers:
            raise ConfigError(
                f"enhancer mask length {len(self.enhancer)} != layer count {self.n_layers}")
        for i, (d, enhanced) in enumerate(zip(self.layer_dims[1:], self.mask())):
            check_shifts(self.shifts if enhanced else (), d, f"layer {i} (width {d})",
                         "set exempt_final, enhancer or shifts to avoid it")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def mask(self) -> tuple[bool, ...]:
        m = list(self.enhancer) if self.enhancer is not None else [True] * self.n_layers
        if self.exempt_final:
            m[-1] = False
        return tuple(m)

    def plain(self) -> "MLPConfig":
        """Same stack with every enhancer disabled (the linear baseline)."""
        return replace(self, enhancer=tuple(False for _ in range(self.n_layers)))


class MLP(ag.Layer):
    """Alternating (enhanced-or-plain linear, activation) stack.

    No activation is applied after the final layer.
    """

    def __init__(self, config: MLPConfig):
        self.config = config
        dims, mask = config.layer_dims, config.mask()
        rng = Rng(config.seed)
        self.layers: list[QELayer] = []
        for i in range(config.n_layers):
            layer_seed = int(rng.split(i).seed)
            self.layers.append(init_qelayer(
                n=dims[i], d=dims[i + 1], shifts=config.shifts if mask[i] else (),
                seed=layer_seed, dtype=PRECISIONS[config.dtype], name=f"layers.{i}"))
        self._act = ACTIVATIONS[config.activation]
        self.n, self.d = dims[0], dims[-1]

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.parameters().items():
                out[f"layers.{i}.{k}"] = v
        return out

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            layer.load_parameters({k: params[f"layers.{i}.{k}"] for k in layer.parameters()})

    def apply(self, tape: ag.Tape, bound: dict[str, ag.Variable], x: ag.Variable) -> ag.Variable:
        h = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = layer.apply(tape, {k: bound[f"layers.{i}.{k}"] for k in layer.parameters()}, h)
            if i != last:
                h = self._act(h)
        return h


class QuadraNetLayer(ag.Layer):
    """Three-matrix quadratic baseline: z = (Wa x) * (Wb x) + Wc x [+ b]."""

    def __init__(self, n: int, d: int, seed: int = 0, bias: bool = False, dtype=np.float64):
        rng = Rng(seed)
        self.Wa = glorot(rng.split(0), d, n, dtype)
        self.Wb = glorot(rng.split(1), d, n, dtype)
        self.Wc = glorot(rng.split(2), d, n, dtype)
        self.b = np.zeros(d, dtype=dtype) if bias else None
        self.n, self.d = n, d

    def parameters(self) -> dict[str, np.ndarray]:
        out = {"Wa": self.Wa, "Wb": self.Wb, "Wc": self.Wc}
        if self.b is not None:
            out["b"] = self.b
        return out

    def apply(self, tape, bound, x: ag.Variable) -> ag.Variable:
        ha = ag.linear(x, bound["Wa"])
        hb = ag.linear(x, bound["Wb"])
        hc = ag.linear(x, bound["Wc"])
        z = ag.add(ag.hadamard(ha, hb), hc)
        return z if self.b is None else ag.add_row(z, bound["b"])


class SwiGLULayer(ag.Layer):
    """Gated baseline: z = (W1 x) * sigmoid(W1 x) * (W2 x)."""

    def __init__(self, n: int, d: int, seed: int = 0, dtype=np.float64):
        rng = Rng(seed)
        self.W1 = glorot(rng.split(0), d, n, dtype)
        self.W2 = glorot(rng.split(1), d, n, dtype)
        self.n, self.d = n, d

    def parameters(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "W2": self.W2}

    def apply(self, tape, bound, x: ag.Variable) -> ag.Variable:
        h1 = ag.linear(x, bound["W1"])
        h2 = ag.linear(x, bound["W2"])
        return ag.hadamard(ag.hadamard(h1, ag.sigmoid(h1)), h2)


# model types a config may name; each one's parameters are its config keys
MODELS = {"qe_mlp": MLPConfig, "quadranet": QuadraNetLayer, "swiglu": SwiGLULayer}


def mse(pred: ag.Variable, target: np.ndarray) -> ag.Variable:
    """Mean squared error over every element (of each slice if stacked), from taped primitives."""
    if pred.value.shape[pred.stacked:] != target.shape:
        raise DimensionError(f"mse shape mismatch: {pred.value.shape} vs {target.shape}")
    neg = pred.tape.const(-target.astype(pred.value.dtype, copy=False))
    diff = ag.add(pred, neg)
    sq = ag.hadamard(diff, diff)
    return ag.scale(ag.reduce_sum(sq), 1.0 / max(target.size, 1))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

# elements per pass of an optimizer's ufunc chain; at 2^16 a step is no slower than unchunked
_STEP_CHUNK = 1 << 16

def _checked_chunks(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], rows: int):
    """(name, span, w, g, *scratch) for each ``_STEP_CHUNK`` elements of each
    parameter's flat view: w and g are that span of the parameter and of its
    gradient, and scratch is ``rows`` chunk-sized rows, made once per dtype.

    Every gradient is cast to its parameter's dtype, then checked for shape and
    finiteness, before the first chunk, so a step that raises changes nothing.
    A non-contiguous parameter is walked as a copy, written back after its last chunk.
    """
    cast = {}
    for name, w in params.items():
        with np.errstate(over="ignore"):    # an overflowing cast gives inf, named below
            g = grads[name].astype(w.dtype, copy=False)
        if g.shape != w.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {w.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        cast[name] = g.reshape(-1)
    width = min(_STEP_CHUNK, max((w.size for w in params.values()), default=0))
    scratch = {dt: np.empty((rows, width), dt) for dt in {w.dtype for w in params.values()}}
    for name, w in params.items():
        flat = w.reshape(-1)
        for lo in range(0, w.size, _STEP_CHUNK):
            span = slice(lo, min(lo + _STEP_CHUNK, w.size))
            yield name, span, flat[span], cast[name][span], *scratch[w.dtype][:, :span.stop - lo]
        if not np.may_share_memory(flat, w):
            w[...] = flat.reshape(w.shape)      # a non-contiguous w was walked as a copy


@dataclass
class SGD:
    lr: float

    def __post_init__(self):
        check_optimizer(self.lr)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """w - lr * g, written into the arrays of ``params``; returns ``params``."""
        for _, _, w, g, s in _checked_chunks(params, grads, 1):
            np.subtract(w, np.multiply(w.dtype.type(self.lr), g, out=s), out=w)
        return params


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: dict = field(default_factory=dict, init=False, repr=False)
    _v: dict = field(default_factory=dict, init=False, repr=False)
    _t: int = field(default=0, init=False)

    def __post_init__(self):
        check_optimizer(self.lr, self.beta1, self.beta2, self.eps)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update, written into the arrays of ``params``; returns ``params``."""
        t = self._t + 1
        for name, span, w, g, s, step in _checked_chunks(params, grads, 2):
            if name not in self._m:         # after the walk's checks, so a failed step adds none
                # written before the chain reads them: calloc'd zeros fault twice per page
                self._m[name], self._v[name] = np.full((2, params[name].size), 0, w.dtype)
            dt, m, v = w.dtype.type, self._m[name][span], self._v[name][span]
            b1, b1c, b2, b2c = dt(self.beta1), dt(1 - self.beta1), dt(self.beta2), dt(1 - self.beta2)
            c1, c2, lr, eps = dt(1 - self.beta1 ** t), dt(1 - self.beta2 ** t), dt(self.lr), dt(self.eps)
            # w, m and v update in place; each step below rounds as the
            # expression w - lr * (m / c1) / (sqrt(v / c2) + eps) does
            np.multiply(m, b1, out=m)
            np.add(m, np.multiply(g, b1c, out=s), out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=s)
            np.add(v, np.multiply(s, b2c, out=s), out=v)
            np.sqrt(np.divide(v, c2, out=s), out=s)
            np.add(s, eps, out=s)
            np.divide(m, c1, out=step)
            np.multiply(step, lr, out=step)
            np.divide(step, s, out=step)
            np.subtract(w, step, out=w)
        self._t = t
        return params
