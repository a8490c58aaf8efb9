"""Pinned bits of outputs, losses and every gradient.

Each case runs one differentiable pass through a model, takes an MSE loss
against a fixed target and hashes (SHA-256) the output, the loss and the
gradient of every parameter and of the input.  The digests were recorded
with the unfused tape (one node per roll, row product, sum and matmul), so
any change to the layer primitives must keep every bit of these passes.
The cases use no exp or erf, so the digests do not depend on libm.
"""

import hashlib

import numpy as np
import pytest

from quadenhance import autograd as ag
from quadenhance.enhancer import QELayer
from quadenhance.models import MLP, Adam, MLPConfig, QuadraNetLayer, mse
from quadenhance.rng import Rng


def _qe_layer(n, d, shifts, dtype, seed, square=False):
    rng = Rng(seed)
    values = {r: rng.split(10 + i).uniform(d, -0.8, 0.8).astype(dtype)
              for i, r in enumerate(shifts)}
    return QELayer(W=rng.split(1).uniform(d * n, -1, 1).reshape(d, n).astype(dtype),
                   b=rng.split(2).uniform(d, -0.5, 0.5).astype(dtype), lam=values,
                   allow_square_terms=square)


def _mlp(dims, activation, dtype, seed):
    model = MLP(MLPConfig(layer_dims=dims, activation=activation, shifts=(1, -1),
                          seed=seed, dtype=dtype))
    params = model.parameters()
    rng = Rng(seed + 1)
    for j, name in enumerate(sorted(params)):
        if "lam[" in name or name.endswith(".b"):
            params[name][:] = rng.split(j).uniform(params[name].size, -0.5, 0.5)
    return model


def _quadranet(n, d, dtype, seed, bias):
    layer = QuadraNetLayer(n, d, seed=seed, bias=bias, dtype=dtype)
    if bias:
        layer.b[:] = Rng(seed + 1).uniform(d, -0.5, 0.5)
    return layer


CASES = {
    "qe-f64-batch-shift1": lambda: (_qe_layer(5, 4, (1,), np.float64, 1), (3, 5)),
    "qe-f64-batch-mixed": lambda: (_qe_layer(5, 6, (-2, 1, 3), np.float64, 2), (4, 5)),
    "qe-f32-batch-mixed": lambda: (_qe_layer(5, 6, (-2, 1, 3), np.float32, 3), (4, 5)),
    "qe-f64-single-mixed": lambda: (_qe_layer(5, 6, (-2, 1, 3), np.float64, 4), (5,)),
    "qe-f32-single-shift1": lambda: (_qe_layer(3, 4, (1,), np.float32, 5), (3,)),
    "qe-f64-batch-colliding": lambda: (_qe_layer(4, 5, (1, 6, -4), np.float64, 6), (3, 4)),
    "qe-f64-batch-square": lambda: (_qe_layer(4, 5, (0, 2, 5), np.float64, 7, square=True), (3, 4)),
    "qe-f32-single-square": lambda: (_qe_layer(4, 3, (0, 1), np.float32, 8, square=True), (4,)),
    "mlp-identity-f64-batch": lambda: (_mlp((4, 6, 3), "identity", "f64", 9), (5, 4)),
    "mlp-relu-f32-batch": lambda: (_mlp((4, 6, 6, 3), "relu", "f32", 10), (5, 4)),
    "mlp-relu-f64-single": lambda: (_mlp((4, 6, 3), "relu", "f64", 11), (4,)),
    "quadranet-f64-batch-bias": lambda: (_quadranet(4, 3, np.float64, 12, True), (5, 4)),
    "quadranet-f32-single": lambda: (_quadranet(4, 3, np.float32, 13, False), (4,)),
}

DIGESTS = {
    "mlp-identity-f64-batch": "a74f42d54b1f8bef5ddc41f31b43907708250e75a0e67cfbb216814fa4441494",
    "mlp-relu-f32-batch": "f4c7b60573b1c3204085e7f38fc70bbe65808ed80505cc71292de03e0dee7f0d",
    "mlp-relu-f64-single": "672660227dd9fa164ca0c915bb8b2a1c2cda299f96a22dc288621dd771127a42",
    "qe-f32-batch-mixed": "aa2601173751e55d5d6ae1743f9f6f54d6308fd78f6fa43db1f227477b91e752",
    "qe-f32-single-shift1": "bfd8ffd361d46fdb4db1accb37907c7f648bd5307d5c94d37d45e72699fcc7fd",
    "qe-f32-single-square": "12a2b5f006f6cb7e26670b4ecfbf73e983833a240d06430968b6727f057a1013",
    "qe-f64-batch-colliding": "544a2b8664dddf43d5409662e801c6a4644c47ed3cca40abdad831d036207efd",
    "qe-f64-batch-mixed": "8ce4aec428e39cf3d1533beb9db5fe49e822406e628b00bd1331d36cb78eeb0b",
    "qe-f64-batch-shift1": "97f26b3cb4a7174a01dd85aa13dd5dfafd2ca389cf5228aa64907fc85601b97b",
    "qe-f64-batch-square": "35dba36fac89b267a9871565aea95470f1aab1fe42c15e461d6cf6c62ff33f0e",
    "qe-f64-single-mixed": "db90882dff3bc02f04d8728a786ce4d3853872b47ab000e0ddfb35dddf0037c1",
    "quadranet-f32-single": "df3b07a551a37fa4f0f24a9d1886890de19adb4ad14ed0ef90cb5dc427d66476",
    "quadranet-f64-batch-bias": "e8adef37e2b175d25fd6bd8a68ea7eb8b68c55cdf0fe584bc0540e3e511089ba",
    "adam-relu-f32": "f5f2c4a9872132563ba29855e52e5f9a6cc81671a5fc68006de25cfa288d5122",
}


def _pass_digest(model, x_shape) -> str:
    dtype = next(iter(model.parameters().values())).dtype
    rng = Rng(len(x_shape) * 1000 + x_shape[-1])
    x0 = rng.uniform(int(np.prod(x_shape)), -1, 1).reshape(x_shape).astype(dtype)
    tape = ag.Tape()
    bound = model.bind(tape)
    x = tape.param(x0, name="x")
    out = model.apply(tape, bound, x)
    target = rng.split(1).uniform(out.value.size, -1, 1).reshape(out.value.shape).astype(dtype)
    loss = mse(out, target)
    grads = tape.backward(loss)
    h = hashlib.sha256()
    h.update(out.value.tobytes())
    h.update(loss.value.tobytes())
    for name in sorted(bound):
        h.update(name.encode())
        h.update(grads[bound[name].node_id].tobytes())
    h.update(grads[x.node_id].tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_losses_and_gradients_are_pinned(case):
    model, x_shape = CASES[case]()
    assert _pass_digest(model, x_shape) == DIGESTS[case]


def test_adam_steps_are_pinned():
    """Three Adam steps of a relu MLP land on pinned parameter bits."""
    model = _mlp((4, 6, 3), "relu", "f32", 14)
    rng = Rng(15)
    x = rng.uniform(20, -1, 1).reshape(5, 4).astype(np.float32)
    target = rng.split(1).uniform(15, -1, 1).reshape(5, 3).astype(np.float32)
    opt = Adam(lr=0.01)
    for _ in range(3):
        tape = ag.Tape()
        bound = model.bind(tape)
        grads = tape.backward(mse(model.apply(tape, bound, tape.const(x)), target))
        model.load_parameters(opt.step(model.parameters(),
                                       {k: grads[v.node_id] for k, v in bound.items()}))
    h = hashlib.sha256()
    for name, arr in sorted(model.parameters().items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == DIGESTS["adam-relu-f32"]
