"""Layer stacks, quadratic baselines, losses, and optimizers.

Everything here is built from the differentiable primitives, so one
gradient checker covers the whole zoo.  Every model is an
``autograd.Layer``: it defines ``parameters()`` / ``load_parameters()``
for the raw arrays and ``apply(tape, bound, x)`` for a differentiable
pass, and inherits ``bind(tape)`` and ``forward(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .enhancer import QELayer, glorot, init_qelayer
from .errors import ConfigError, DimensionError, NumericError
from .rng import Rng
from .tensor import PRECISIONS

ACTIVATIONS = {
    "relu": ag.relu,
    "gelu": ag.gelu,
    "identity": lambda v: v,
}


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
        if self.dtype not in PRECISIONS:
            raise ConfigError(f"dtype must be one of {sorted(PRECISIONS)}, got {self.dtype!r}")
        if self.enhancer is not None and len(self.enhancer) != self.n_layers:
            raise ConfigError(
                f"enhancer mask length {len(self.enhancer)} != layer count {self.n_layers}")

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def mask(self) -> tuple[bool, ...]:
        m = list(self.enhancer) if self.enhancer is not None else [True] * self.n_layers
        if self.exempt_final:
            m[-1] = False
        return tuple(m)

    def np_dtype(self):
        return PRECISIONS[self.dtype]

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
                seed=layer_seed, dtype=config.np_dtype(), name=f"layers.{i}"))
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

    def load_parameters(self, params) -> None:
        self.Wa, self.Wb, self.Wc = params["Wa"], params["Wb"], params["Wc"]
        if self.b is not None:
            self.b = params["b"]

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

    def load_parameters(self, params) -> None:
        self.W1, self.W2 = params["W1"], params["W2"]

    def apply(self, tape, bound, x: ag.Variable) -> ag.Variable:
        h1 = ag.linear(x, bound["W1"])
        h2 = ag.linear(x, bound["W2"])
        return ag.hadamard(ag.hadamard(h1, ag.sigmoid(h1)), h2)


# model types a config may name; each one's parameters are its config keys
MODELS = {"qe_mlp": MLPConfig, "quadranet": QuadraNetLayer, "swiglu": SwiGLULayer}


def mse(pred: ag.Variable, target: np.ndarray) -> ag.Variable:
    """Mean squared error over every element, built from taped primitives."""
    if pred.value.shape != target.shape:
        raise DimensionError(f"mse shape mismatch: {pred.value.shape} vs {target.shape}")
    neg = pred.tape.const(-target.astype(pred.value.dtype, copy=False))
    diff = ag.add(pred, neg)
    sq = ag.hadamard(diff, diff)
    return ag.scale(ag.reduce_sum(sq), 1.0 / max(target.size, 1))


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _checked_grads(params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every gradient cast to its parameter's dtype, once all have passed the
    shape and finiteness checks, so a step that raises changes nothing."""
    out = {}
    for name, w in params.items():
        g = grads[name].astype(w.dtype, copy=False)
        if g.shape != w.shape:
            raise DimensionError(f"gradient shape {g.shape} != param shape {w.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        out[name] = g
    return out


@dataclass
class SGD:
    lr: float

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """w - lr * g, written into the arrays of ``params``; returns ``params``."""
        grads = _checked_grads(params, grads)
        for name, w in params.items():
            np.subtract(w, w.dtype.type(self.lr) * grads[name], out=w)
        return params


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: dict = field(default_factory=dict, repr=False)
    _v: dict = field(default_factory=dict, repr=False)
    _t: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("betas must lie in (0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update, written into the arrays of ``params``; returns ``params``."""
        grads = _checked_grads(params, grads)
        self._t += 1
        t = self._t
        for name, w in params.items():
            g = grads[name]
            dt = w.dtype.type
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(w), np.zeros_like(w)
            # w, m and v update in place; each step below rounds as the
            # expression w - lr * (m / c1) / (sqrt(v / c2) + eps) does
            m, v, s = self._m[name], self._v[name], np.empty_like(w)
            np.multiply(m, dt(self.beta1), out=m)
            np.add(m, np.multiply(g, dt(1 - self.beta1), out=s), out=m)
            np.multiply(v, dt(self.beta2), out=v)
            np.multiply(g, g, out=s)
            np.add(v, np.multiply(s, dt(1 - self.beta2), out=s), out=v)
            np.sqrt(np.divide(v, dt(1 - self.beta2 ** t), out=s), out=s)
            np.add(s, dt(self.eps), out=s)
            step = np.divide(m, dt(1 - self.beta1 ** t))
            np.multiply(step, dt(self.lr), out=step)
            np.divide(step, s, out=step)
            np.subtract(w, step, out=w)
        return params

