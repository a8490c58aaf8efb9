"""Stacked constants: one forward pass evaluates many points, each slice
bit for bit as its solo pass would.

``central_differences`` is checked against the per-entry loop of
``oracles.central_differences_loop`` on every gradcheck family, every
primitive case and a few hand-built functions; the quotients must be
byte-equal, not close.
"""

import numpy as np
import pytest

from quadenhance import autograd as ag
from quadenhance import tensor as T
from quadenhance import checks
from quadenhance.checks import _family_instance
from quadenhance.config import FAMILIES, GradcheckConfig
from quadenhance.errors import DimensionError, UsageError
from quadenhance.models import MLP, MLPConfig, mse
from quadenhance.rng import Rng

from cpu_dispatch import assert_passes_without_cpu_dispatch
from oracles import central_differences_loop
from test_autograd import _primitive_cases

STEP = 1e-6


def _assert_quotients_equal_loop(f, params, step=STEP):
    quotients, finite = ag.central_differences(f, params, step)
    assert list(quotients) == list(finite) == list(params)
    for name in params:
        stacked, loop = quotients[name], central_differences_loop(f, params, name, step)
        assert stacked.dtype == loop.dtype == np.float64
        assert stacked.shape == loop.shape == finite[name].shape == np.shape(params[name])
        assert stacked.tobytes() == loop.tobytes(), name


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_quotients_equal_loop(family, precision):
    base = Rng(19)
    for i in range(20):
        params, f = _family_instance(family, int(base.split(i).seed), precision)
        _assert_quotients_equal_loop(f, params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_quotients_equal_loop(name, dtype):
    build = _primitive_cases()[name]
    for i in range(20):
        params, f = build(Rng(7000 + i), dtype)
        _assert_quotients_equal_loop(f, params)


def test_custom_record_op_quotients_equal_loop():
    def square(v):
        # acts on each element, hence on each leading slice alone
        return v.tape.record("square", (v,), v.value * v.value, lambda g: (2.0 * g * v.value,))

    def f(tape, bound):
        return ag.reduce_sum(square(bound["x"]))

    _assert_quotients_equal_loop(f, {"x": Rng(33).uniform(4, 0.5, 1.5)})


def test_mse_quotients_equal_loop():
    rng = Rng(37)
    model = MLP(MLPConfig(layer_dims=(3, 4, 2), activation="relu", shifts=(1,), seed=3))
    x = rng.uniform(6, -1, 1).reshape(2, 3)
    target = rng.split(1).uniform(4, -1, 1).reshape(2, 2)

    def f(tape, bound):
        return mse(model.apply(tape, bound, tape.const(x)), target)

    _assert_quotients_equal_loop(f, model.parameters())


def test_nested_linear_quotients_equal_loop(monkeypatch):
    """linear(linear(x, W), W): the outer product meets a stacked x and a
    stacked W, and runs as one batched product."""
    rng = Rng(34)
    w = rng.uniform(9, -1, 1).reshape(3, 3)
    x = rng.split(1).uniform(6, -1, 1).reshape(2, 3)

    def f(tape, bound):
        return ag.reduce_sum(ag.linear(ag.linear(tape.const(x), bound["W"]), bound["W"]))

    _assert_quotients_equal_loop(f, {"W": w})
    calls = []
    for kernel in ("matmul", "batched_matmul"):
        monkeypatch.setattr(T, kernel, lambda a, b, k=getattr(T, kernel), n=kernel:
                            calls.append((n, a.shape)) or k(a, b))
    ag.central_differences(f, {"W": w}, STEP)
    # each product is one batched call, the inner one on x broadcast to every slice
    assert calls == [("batched_matmul", (18, 2, 3))] * 2


def test_unused_parameter_gives_zero_quotients():
    def f(tape, bound):
        return ag.reduce_sum(ag.hadamard(bound["x"], bound["x"]))

    params = {"x": Rng(35).uniform(3, -1, 1), "unused": np.ones((2, 2))}
    _assert_quotients_equal_loop(f, params)
    assert not ag.central_differences(f, params, STEP)[0]["unused"].any()


@pytest.mark.parametrize("slices", [1, 2, 5, 7])
def test_lowered_slice_bound_keeps_quotients(monkeypatch, slices):
    """A bound below 2P splits the points over several shared passes of at
    least one +-h pair each, some of them spanning two parameters."""
    monkeypatch.setattr(ag, "_FD_SLICES", slices)
    passes = []
    params, f = _family_instance("qe_mlp", int(Rng(36).seed), "f64")

    def counted(tape, bound):
        passes.append(tape)
        return f(tape, bound)

    quotients, _ = ag.central_differences(counted, params, STEP)
    for name in params:
        assert quotients[name].tobytes() == central_differences_loop(f, params, name, STEP).tobytes()
    pairs = max(1, slices // 2)
    assert len(passes) == -(-sum(arr.size for arr in params.values()) // pairs)


def test_gradcheck_families_share_passes_across_parameters(monkeypatch):
    """8 instances per family at seed 0, the perfbench gradcheck config: 32
    analytic passes and 51 shared stacked passes call f 83 times (186 with
    one set of passes per parameter)."""
    calls = []
    build = checks._family_instance

    def counted(*args):
        params, f = build(*args)
        return params, lambda tape, bound: calls.append(tape) or f(tape, bound)

    monkeypatch.setattr(checks, "_family_instance", counted)
    checks.gradcheck_families(GradcheckConfig(instances=8, seed=0))
    assert len(calls) == 83


def test_stacked_constant_meeting_a_parameter_is_rejected():
    tape = ag.Tape()
    stacked = tape.const(np.ones((4, 3)), stacked=True)
    with pytest.raises(UsageError, match="stacked"):
        ag.add(stacked, tape.param(np.ones(3)))


def test_stacked_output_keeps_the_flag():
    tape = ag.Tape()
    bias = tape.const(np.ones((5, 2)), stacked=True)
    out = ag.reduce_sum(ag.add_row(tape.const(np.ones((3, 2))), bias))
    assert out.stacked and out.value.shape == (5,)
    assert not ag.relu(tape.const(np.ones(2))).stacked


def test_stacked_linear_keeps_its_dimension_checks():
    tape = ag.Tape()
    w = tape.const(np.ones((3, 4, 2)), stacked=True)
    with pytest.raises(DimensionError):      # a solo x [2, 2, 2] is not [n] or [batch, n]
        ag.linear(tape.const(np.ones((3, 2, 2, 2)), stacked=True), w)
    with pytest.raises(DimensionError):
        ag.linear(tape.const(np.ones((2, 2, 2))), tape.const(np.ones((4, 2))))


def test_stacked_quotients_independent_of_cpu_dispatch():
    assert_passes_without_cpu_dispatch(__file__)
