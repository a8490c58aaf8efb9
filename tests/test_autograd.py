"""Tape mechanics, backward rules, and the finite-difference checker."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quadenhance import autograd as ag
from quadenhance import tensor as T
from quadenhance.enhancer import band_quadratic
from quadenhance.errors import DataError, DimensionError, NumericError, UsageError
from quadenhance.models import MLP, MLPConfig, QuadraNetLayer, mse
from quadenhance.rng import Rng

from oracles import exact_identity_mlp_mse, exact_quadranet_mse, naive_cross_entropy


def _grad_of(tape, loss, var):
    return tape.backward(loss)[var.node_id]


class TestBackwardBasics:
    def test_sum_gives_ones(self):
        tape = ag.Tape()
        x = tape.param(np.array([1.0, 2.0, 3.0]))
        g = _grad_of(tape, ag.reduce_sum(x), x)
        np.testing.assert_array_equal(g, np.ones(3))

    def test_identity_matmul(self):
        tape = ag.Tape()
        x = tape.param(np.array([[3.0, 4.0]]))
        out = ag.linear(x, tape.const(np.eye(2)))
        g = _grad_of(tape, ag.reduce_sum(out), x)
        np.testing.assert_array_equal(g, np.ones((1, 2)))

    @pytest.mark.parametrize("input_is_param, gemms", [(False, 1), (True, 2)])
    def test_linear_backward_skips_constant_input_gemm(self, monkeypatch, input_is_param, gemms):
        tape = ag.Tape()
        xv = np.arange(6.0).reshape(2, 3)
        x = tape.param(xv) if input_is_param else tape.const(xv)
        w = tape.param(np.ones((4, 3)))
        loss = ag.reduce_sum(ag.linear(x, w))
        calls = []
        matmul = T.matmul
        monkeypatch.setattr(T, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
        grads = tape.backward(loss)
        assert len(calls) == gemms
        np.testing.assert_array_equal(grads[w.node_id], np.tile(xv.sum(axis=0), (4, 1)))

    def test_hadamard_product_rule(self):
        tape = ag.Tape()
        a = tape.param(np.array([1.0, 2.0]))
        b = tape.param(np.array([5.0, -3.0]))
        grads = tape.backward(ag.reduce_sum(ag.hadamard(a, b)))
        np.testing.assert_array_equal(grads[a.node_id], b.value)
        np.testing.assert_array_equal(grads[b.node_id], a.value)

    def test_square_gradient(self):
        tape = ag.Tape()
        x = tape.param(np.array([1.0, 2.0, 3.0]))
        g = _grad_of(tape, ag.reduce_sum(ag.hadamard(x, x)), x)
        np.testing.assert_array_equal(g, [2.0, 4.0, 6.0])

    def test_roll_backward_is_inverse_roll(self):
        # with unit coupling, d/dy of (roll(y, 2) * y + y) weighted by u is
        # u + u * roll(y, 2) + roll(u * y, -2); exact on integer data
        tape = ag.Tape()
        y = tape.param(np.arange(5.0))
        u = np.array([1.0, 10.0, 100.0, 1000.0, 10000.0])
        out = band_quadratic(y, (2,), [tape.const(np.ones(5))])
        g = _grad_of(tape, ag.reduce_sum(ag.hadamard(out, tape.const(u))), y)
        np.testing.assert_array_equal(g, u + u * T.roll(y.value, 2) + T.roll(u * y.value, -2))

    def test_accumulation_over_fanout(self):
        tape = ag.Tape()
        x = tape.param(np.array([2.0]))
        out = ag.add(ag.hadamard(x, x), x)   # x^2 + x -> grad 2x + 1
        g = _grad_of(tape, ag.reduce_sum(out), x)
        np.testing.assert_array_equal(g, [5.0])


class TestTapeContracts:
    def test_finished_step_frees_its_tape_without_the_cycle_collector(self):
        # backward closures hold arrays, never Variables (which point back at
        # the tape), so a training step's activations go as soon as it returns
        model = MLP(MLPConfig(layer_dims=(3, 4, 2), activation="relu", seed=0))
        gc.disable()
        try:
            tape = ag.Tape()
            out = model.apply(tape, model.bind(tape), tape.const(np.ones((2, 3))))
            tape.backward(ag.reduce_sum(out))
            ref = weakref.ref(tape)
            del tape, out
            assert ref() is None
        finally:
            gc.enable()

    def test_non_scalar_loss_rejected(self):
        tape = ag.Tape()
        x = tape.param(np.ones(3))
        with pytest.raises(UsageError):
            tape.backward(x)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ag.Tape(), ag.Tape()
        a = t1.param(np.ones(2))
        b = t2.param(np.ones(2))
        with pytest.raises(UsageError):
            ag.add(a, b)

    def test_loss_from_another_tape_rejected(self):
        t1, t2 = ag.Tape(), ag.Tape()
        loss = ag.reduce_sum(t2.param(np.ones(2)))
        with pytest.raises(UsageError, match="loss lives on a different tape"):
            t1.backward(loss)

    def test_backward_passes_nodes_without_a_gradient_by(self):
        """An op on constants alone that feeds the loss has no backward, and an
        op on a parameter that does not feed the loss gets no gradient;
        the gradients equal those of the tape without either node, and the
        parameter behind the dead op gets no entry."""
        x = np.array([1.5, -2.0, 0.25])

        def grads(extra: bool) -> dict:
            tape = ag.Tape()
            w, dead = tape.param(np.array([0.5, 3.0, -1.0])), tape.param(np.array([2.0]))
            c = tape.const(x)
            if extra:
                ag.hadamard(dead, dead)
                c = ag.add(c, tape.const(np.zeros(3)))
            g = tape.backward(ag.reduce_sum(ag.hadamard(w, c)))
            named = (("w", w), ("dead", dead))
            return {k: g[v.node_id].tobytes() for k, v in named if v.node_id in g}

        assert grads(True) == grads(False) == {"w": x.tobytes()}

    def test_backward_skips_const_gradients(self):
        tape = ag.Tape()
        c = tape.const(np.ones(2))
        x = tape.param(np.ones(2))
        grads = tape.backward(ag.reduce_sum(ag.hadamard(x, c)))
        assert c.node_id not in grads
        assert x.node_id in grads

    def test_gradient_map_holds_grad_requiring_leaves_only(self):
        tape = ag.Tape()
        x = tape.param(np.array([1.0, 2.0]))
        w = tape.param(np.array([0.5, -1.0]), name="w")
        c = tape.const(np.array([4.0, 5.0]))
        mid = ag.scale(ag.hadamard(ag.add(x, c), w), 3.0)
        grads = tape.backward(ag.reduce_sum(mid))
        assert sorted(grads) == [x.node_id, w.node_id]
        np.testing.assert_array_equal(grads[x.node_id], [1.5, -3.0])
        np.testing.assert_array_equal(grads[w.node_id], [15.0, 21.0])

    def test_second_backward_raises(self):
        tape = ag.Tape()
        x = tape.param(np.array([1.0, 2.0]))
        loss = ag.reduce_sum(ag.hadamard(x, x))
        tape.backward(loss)
        with pytest.raises(UsageError, match="already run"):
            tape.backward(loss)

    def test_rejected_loss_leaves_the_tape_usable(self):
        tape = ag.Tape()
        x = tape.param(np.ones(3))
        with pytest.raises(UsageError):
            tape.backward(x)
        np.testing.assert_array_equal(tape.backward(ag.reduce_sum(x))[x.node_id], np.ones(3))

    def test_backward_frees_each_node_state_while_the_tape_lives(self):
        # an array only a closure holds goes once its node has run, and so
        # does every closure of a model's pass
        tape = ag.Tape()
        x = tape.param(np.array([1.0, -2.0]))
        saved = np.array([3.0, 4.0])
        ref = weakref.ref(saved)
        y = tape.record("times_saved", (x,), x.value * saved, lambda g, s=saved: (g * s,))
        del saved
        model = MLP(MLPConfig(layer_dims=(2, 4, 3), activation="relu", seed=0))
        out = model.apply(tape, model.bind(tape), y)
        assert ref() is not None
        grads = tape.backward(ag.reduce_sum(out))
        assert ref() is None
        assert all(node.backward is None for node in tape.nodes)
        assert x.node_id in grads


EXACT_KINDS = {
    "plain": {"enhancer": (False, False)},
    "shifts_1": {"shifts": (1,)},
    "shifts_1_-1": {"shifts": (1, -1)},
    "exempt_final": {"shifts": (1,), "exempt_final": True},
}


def _exact_ints(data, top):
    return lambda shape: data.draw(hnp.arrays(np.int64, shape, elements=st.integers(-top, top)))


def _exact_mlp(data):
    """A two-layer identity MLP of a drawn kind, and a draw of integers in
    [-1, 1] when its output layer is quadratic (worst case 1.9e14), since
    it squares what the first layer gives, and in [-2, 2] otherwise (worst
    case 1.4e11)."""
    kind = data.draw(st.sampled_from(sorted(EXACT_KINDS)), label="kind")
    dims = (data.draw(st.integers(2, 8)), data.draw(st.integers(2, 8)), data.draw(st.sampled_from([2, 4, 8])))
    model = MLP(MLPConfig(layer_dims=dims, activation="identity", **EXACT_KINDS[kind]))
    return model, _exact_ints(data, 1 if model.config.mask()[-1] else 2)


def _assert_tape_is_exact(model, params, x, target, exact):
    """The tape's mse and every leaf gradient, x's included, equal the exact
    (out, S, grads, bound) of an int64 pass, whose bound is below 2^53."""
    _, total, grads_exact, bound = exact
    assert bound < 2 ** 53
    model.load_parameters({k: v.astype(np.float64) for k, v in params.items()})
    tape = ag.Tape()
    leaves = {**model.bind(tape), "x": tape.param(x.astype(np.float64))}
    loss = mse(model.apply(tape, leaves, leaves["x"]), target.astype(np.float64))
    grads = tape.backward(loss)
    # the exact values are integers over a power of two; exact arithmetic has
    # one zero, so + 0.0 turns a tape's -0.0 into it before the bytes compare
    assert (loss.value + 0.0).tobytes() == np.float64(total / target.size).tobytes()
    assert sorted(grads) == sorted(v.node_id for v in leaves.values())
    for name, var in leaves.items():
        assert (grads[var.node_id] + 0.0).tobytes() == (grads_exact[name] / target.size).tobytes(), name


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_identity_mlp_gradients_are_integer_exact(data):
    """On integer inputs and parameters, a two-layer identity MLP's mse and
    every leaf gradient, x's included, equal an int64 reverse pass with no
    tolerance: float64 is exact below 2^53, whatever the summation order,
    and mse's 1/size is a power of two at B = 4.  This pins the backward
    rules of linear, band_quadratic, add_row, add, hadamard, reduce_sum and
    scale; the bound is asserted on every draw."""
    model, ints = _exact_mlp(data)
    params = {k: ints(v.shape) for k, v in model.parameters().items()}
    x, target = ints((4, model.n)), ints((4, model.d))
    _assert_tape_is_exact(model, params, x, target, exact_identity_mlp_mse(params, 2, x, target))


@given(st.data(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_quadranet_gradients_are_integer_exact(data, bias):
    """QuadraNet's (Wa x) * (Wb x) + Wc x [+ b], the same way: integers in
    [-2, 2] reach at most 3.6e7 (n = d = 8, with a bias)."""
    n, d = data.draw(st.integers(2, 8)), data.draw(st.sampled_from([2, 4, 8]))
    model, ints = QuadraNetLayer(n, d, bias=bias), _exact_ints(data, 2)
    params = {k: ints(v.shape) for k, v in model.parameters().items()}
    x, target = ints((4, n)), ints((4, d))
    _assert_tape_is_exact(model, params, x, target, exact_quadranet_mse(params, x, target))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_stacked_identity_mlp_passes_are_integer_exact(data):
    """One parameter bound as a stacked constant of S integer points: each
    slice's output and mse equal the int64 pass at that point, which pins
    the stacked forms of linear, band_quadratic, add_row, add, hadamard,
    reduce_sum and scale."""
    model, ints = _exact_mlp(data)
    params = {k: ints(v.shape) for k, v in model.parameters().items()}
    x, target = ints((4, model.n)), ints((4, model.d))
    name = data.draw(st.sampled_from(sorted(params)), label="stacked")
    points = ints((data.draw(st.integers(1, 3), label="S"), *params[name].shape))
    tape = ag.Tape()
    bound = {k: tape.const(v.astype(np.float64)) for k, v in params.items()}
    bound[name] = tape.const(points.astype(np.float64), stacked=True)
    out = model.apply(tape, bound, tape.const(x.astype(np.float64)))
    loss = mse(out, target.astype(np.float64))
    assert out.value.shape == (len(points), 4, model.d) and loss.value.shape == (len(points),)
    for s, point in enumerate(points):
        want, total, _, bound_s = exact_identity_mlp_mse({**params, name: point}, 2, x, target)
        assert bound_s < 2 ** 53
        assert (out.value[s] + 0.0).tobytes() == want.astype(np.float64).tobytes(), s
        assert (loss.value[s] + 0.0).tobytes() == np.float64(total / target.size).tobytes(), s


def test_linearity_of_backward():
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) for scalar a, b."""
    rng = Rng(123)
    x0 = rng.uniform(6, -1, 1)
    m = rng.split(1).uniform(18, -1, 1).reshape(3, 6)
    alpha, beta = 0.7, -2.3

    def grads_for(builder):
        tape = ag.Tape()
        x = tape.param(x0.copy())
        return _grad_of(tape, builder(tape, x), x)

    f = lambda tape, x: ag.reduce_sum(ag.hadamard(x, x))
    g = lambda tape, x: ag.reduce_sum(ag.linear(x, tape.const(m)))
    combined = lambda tape, x: ag.add(ag.scale(f(tape, x), alpha),
                                      ag.scale(g(tape, x), beta))
    lhs = grads_for(combined)
    rhs = alpha * grads_for(f) + beta * grads_for(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@given(st.integers(1, 10), st.data())
@settings(max_examples=50, deadline=None)
def test_roll_adjoint_identity(d, data):
    """<roll(y, r), g> == <y, roll(g, -r)>; exact on integer-valued data."""
    r = data.draw(st.integers(-d, d))
    rng = np.random.default_rng(d * 37 + r + d)
    y = rng.integers(-50, 50, size=d).astype(np.float64)
    g = rng.integers(-50, 50, size=d).astype(np.float64)
    lhs = float(T.reduce_sum(T.hadamard(T.roll(y, r), g)))
    rhs = float(T.reduce_sum(T.hadamard(y, T.roll(g, -r))))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# per-primitive finite-difference checks
# ---------------------------------------------------------------------------

def _primitive_cases():
    def linear_case(rng, dt):
        x = rng.split(1).uniform(6, -1, 1).reshape(2, 3).astype(dt)
        w = rng.split(2).uniform(12, -1, 1).reshape(4, 3).astype(dt)
        u = rng.split(3).uniform(8, 0.5, 1.0).reshape(2, 4)
        def f(tape, bound):
            out = ag.linear(bound["x"], bound["w"])
            return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(out.value.dtype))))
        return {"x": x, "w": w}, f

    def band_quadratic_case(rng, dt):
        # shifts 1 and 6 collide mod 5, as the layer allows
        shifts = (-2, 1, 6)
        y = rng.split(1).uniform(10, -1, 1).reshape(2, 5).astype(dt)
        lams = {f"lam{i}": rng.split(2 + i).uniform(5, -1, 1).astype(dt) for i in range(3)}
        u = rng.split(5).uniform(10, 0.5, 1.0).reshape(2, 5)
        def f(tape, bound):
            out = band_quadratic(bound["y"], shifts, [bound[f"lam{i}"] for i in range(3)])
            return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(out.value.dtype))))
        return {"y": y, **lams}, f

    def unary_case(op, shift=0.0):
        def build(rng, dt):
            x = (rng.split(1).uniform(5, -1, 1) + shift).astype(dt)
            u = rng.split(2).uniform(5, 0.5, 1.0)
            def f(tape, bound):
                out = op(bound["x"])
                return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(out.value.dtype))))
            return {"x": x}, f
        return build

    def binary_case(op):
        def build(rng, dt):
            a = rng.split(1).uniform(5, -1, 1).astype(dt)
            b = rng.split(2).uniform(5, -1, 1).astype(dt)
            u = rng.split(3).uniform(5, 0.5, 1.0)
            def f(tape, bound):
                out = op(bound["a"], bound["b"])
                return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(out.value.dtype))))
            return {"a": a, "b": b}, f
        return build

    def row_case(op):
        def build(rng, dt):
            a = rng.split(1).uniform(8, -1, 1).reshape(2, 4).astype(dt)
            v = rng.split(2).uniform(4, -1, 1).astype(dt)
            u = rng.split(3).uniform(8, 0.5, 1.0).reshape(2, 4)
            def f(tape, bound):
                out = op(bound["a"], bound["v"])
                return ag.reduce_sum(ag.hadamard(out, tape.const(u.astype(out.value.dtype))))
            return {"a": a, "v": v}, f
        return build

    def scale_case(rng, dt):
        x = rng.split(1).uniform(5, -1, 1).astype(dt)
        def f(tape, bound):
            return ag.reduce_sum(ag.scale(bound["x"], -1.7))
        return {"x": x}, f

    def ce_case(rng, dt):
        z = rng.split(1).uniform(6, -2, 2).reshape(2, 3).astype(dt)
        labels = (rng.split(2).next_u64(2) % np.uint64(3)).astype(np.int64)
        def f(tape, bound):
            return ag.cross_entropy(bound["z"], labels)
        return {"z": z}, f

    return {
        "linear": linear_case,
        "band_quadratic": band_quadratic_case,
        "hadamard": binary_case(ag.hadamard),
        "add": binary_case(ag.add),
        "scale": scale_case,
        "add_row": row_case(ag.add_row),
        # relu inputs shifted away from the kink at 0
        "relu": unary_case(ag.relu, shift=2.0),
        "gelu": unary_case(ag.gelu, shift=3.0),
        "sigmoid": unary_case(ag.sigmoid),
        "cross_entropy": ce_case,
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_gradcheck_100_instances(name):
    """Analytic backward of every primitive versus central differences."""
    build = _primitive_cases()[name]
    worst = 0.0
    for i in range(100):
        params, f = build(Rng(9000 + i), np.float64)
        report = ag.gradcheck(f, params, step=1e-6, tol=1e-4)
        worst = max(worst, report.max_rel_err)
        assert report.passed, f"{name} instance {i}: {report.entries}"
    assert worst <= 1e-4


def test_gradcheck_linear_function_near_exact():
    """f = sum(W x) is linear in W, so differences are exact to roundoff."""
    rng = Rng(4)
    w = rng.uniform(6, -1, 1).reshape(2, 3)
    x = rng.split(1).uniform(3, 0.5, 1.5)

    def f(tape, bound):
        out = ag.linear(tape.const(x.reshape(1, 3)), bound["W"])
        return ag.reduce_sum(out)

    # zero truncation error for a linear map, so a larger step only
    # shrinks the roundoff term of the difference quotient
    report = ag.gradcheck(f, {"W": w}, step=1e-4, tol=1e-10)
    assert report.passed


def test_gradcheck_f32_against_f64_oracle():
    rng = Rng(21)
    w = rng.uniform(4, -1, 1).reshape(2, 2).astype(np.float32)
    x = rng.split(1).uniform(2, 0.5, 1.0).astype(np.float32)

    def f(tape, bound):
        dt = bound["W"].value.dtype
        out = ag.linear(tape.const(x.reshape(1, 2).astype(dt)), bound["W"])
        return ag.reduce_sum(ag.hadamard(out, out))

    report = ag.gradcheck(f, {"W": w}, step=1e-6, tol=1e-2)
    assert report.passed


def test_gradcheck_flags_corrupted_backward():
    """A wrong backward rule must be caught and named in the report."""
    rng = Rng(33)
    x0 = rng.uniform(4, 0.5, 1.5)

    def broken_square(v):
        out = v.value * v.value
        # deliberately wrong adjoint: 3x instead of 2x
        return v.tape.record("broken_square", (v,), out, lambda g: (g * 3.0 * v.value,))

    def f(tape, bound):
        return ag.reduce_sum(broken_square(bound["x"]))

    report = ag.gradcheck(f, {"x": x0}, step=1e-6, tol=1e-4)
    assert not report.passed
    assert report.worst().name == "x"
    assert report.max_rel_err > 0.1


def test_gradcheck_nonfinite_loss_reported():
    def f(tape, bound):
        out = ag.scale(bound["x"], np.inf)
        return ag.reduce_sum(out)

    with pytest.raises(NumericError):
        ag.gradcheck(f, {"x": np.ones(2)}, step=1e-6, tol=1e-4)

    # a pole that only x[1, 0] + h reaches: finite at x and at every other point
    pole = 2.0 + 1e-6

    def inverse_distance(v):
        out = v.value / (v.value - pole)
        return v.tape.record("inverse_distance", (v,), out,
                             lambda g: (g * -pole / (v.value - pole) ** 2,))

    def g(tape, bound):
        return ag.reduce_sum(inverse_distance(bound["x"]))

    x = np.array([[1.0, 1.5], [2.0, 3.0]])
    with pytest.raises(NumericError) as err:
        ag.gradcheck(g, {"x": x}, step=1e-6, tol=1e-4)
    assert str(err.value) == f"non-finite loss while perturbing x at {np.unravel_index(2, (2, 2))}"


def test_gradcheck_target_must_be_scalar():
    def f(tape, bound):
        return ag.hadamard(bound["x"], bound["x"])

    with pytest.raises(UsageError) as err:
        ag.gradcheck(f, {"x": np.ones(3)})
    assert str(err.value) == "backward needs a scalar loss, got shape (3,)"


def test_gradcheck_checks_parameters_in_order():
    """x's analytic gradient is inf and y + h meets a pole.  One shared pass
    evaluates both parameters' points, yet the error still names x, as when
    each parameter was checked in full before the next one."""
    pole = 2.0 + 1e-6

    def f(tape, bound, steep=np.inf):
        x, y = bound["x"], bound["y"]
        bent = tape.record("steep", (x,), x.value, lambda g: (g * steep,))
        near = tape.record("inverse_distance", (y,), y.value / (y.value - pole),
                           lambda g: (g * -pole / (y.value - pole) ** 2,))
        return ag.add(ag.reduce_sum(bent), ag.reduce_sum(near))

    params = {"x": np.array([0.5, -1.0]), "y": np.array([1.5, 2.0])}
    with pytest.raises(NumericError) as err:
        ag.gradcheck(f, params, step=1e-6, tol=1e-4)
    assert str(err.value) == f"non-finite analytic gradient for x at {np.unravel_index(0, (2,))}"
    with pytest.raises(NumericError) as err:
        ag.gradcheck(lambda tape, bound: f(tape, bound, 1.0), params, step=1e-6, tol=1e-4)
    assert str(err.value) == f"non-finite loss while perturbing y at {np.unravel_index(1, (2,))}"


class TestCrossEntropy:
    def test_uniform_two_class(self):
        tape = ag.Tape()
        logits = tape.const(np.array([[0.0, 0.0]]))
        loss = ag.cross_entropy(logits, np.array([0]))
        assert abs(float(loss.value) - np.log(2.0)) < 1e-12

    def test_extreme_logits_no_overflow(self):
        tape = ag.Tape()
        logits = tape.const(np.array([[1000.0, 0.0]]))
        loss = ag.cross_entropy(logits, np.array([0]))
        assert 0.0 <= float(loss.value) < 1e-10

    def test_logits_must_be_a_batch(self):
        tape = ag.Tape()
        with pytest.raises(DimensionError, match=r"\[batch, classes\] logits, got \(3,\)"):
            ag.cross_entropy(tape.const(np.zeros(3)), np.array([0]))

    def test_labels_must_match_the_batch(self):
        tape = ag.Tape()
        with pytest.raises(DimensionError, match=r"labels shape \(3,\) does not match batch 2"):
            ag.cross_entropy(tape.const(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_label_out_of_range(self):
        tape = ag.Tape()
        logits = tape.const(np.zeros((2, 3)))
        with pytest.raises(DataError):
            ag.cross_entropy(logits, np.array([0, 3]))

    def test_matches_longdouble_oracle(self):
        rng = Rng(55)
        logits = rng.uniform(24, -3, 3).reshape(8, 3)
        labels = (rng.split(1).next_u64(8) % np.uint64(3)).astype(np.int64)
        tape = ag.Tape()
        loss = ag.cross_entropy(tape.const(logits), labels)
        assert abs(float(loss.value) - naive_cross_entropy(logits, labels)) < 1e-6

    def test_gradient_sums_to_zero_per_row(self):
        # softmax minus one-hot rows each sum to zero
        rng = Rng(56)
        logits = rng.uniform(12, -2, 2).reshape(4, 3)
        labels = np.array([0, 1, 2, 1])
        tape = ag.Tape()
        lv = tape.param(logits)
        grads = tape.backward(ag.cross_entropy(lv, labels))
        np.testing.assert_allclose(grads[lv.node_id].sum(axis=1), 0.0, atol=1e-15)


def test_relu_forward_and_mask():
    tape = ag.Tape()
    x = tape.param(np.array([-1.0, 0.0, 2.0]))
    out = ag.relu(x)
    np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])
    g = tape.backward(ag.reduce_sum(out))[x.node_id]
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    tape = ag.Tape()
    out = ag.sigmoid(tape.const(np.array([-800.0, 0.0, 800.0])))
    np.testing.assert_allclose(out.value, [0.0, 0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["gelu", "cross_entropy"])
def test_forward_only_primitive_keeps_no_backward_state(op, dtype):
    z = (3.0 * Rng(41).normal(12)).reshape(3, 4).astype(dtype)
    labels = np.array([0, 3, 1])
    apply = ag.gelu if op == "gelu" else (lambda v: ag.cross_entropy(v, labels))
    tape = ag.Tape()
    const_out, param_out = apply(tape.const(z)), apply(tape.param(z))
    assert const_out.value.dtype == param_out.value.dtype == dtype
    assert const_out.value.tobytes() == param_out.value.tobytes()
    assert tape.nodes[const_out.node_id].backward is None
    assert tape.nodes[param_out.node_id].backward is not None


def test_gradcheck_difference_quotients_record_no_backward():
    # read inside f, before backward drops the analytic pass's closures
    closures = []

    def f(tape, bound):
        loss = ag.reduce_sum(ag.gelu(bound["x"]))
        closures.append([node.backward is not None for node in tape.nodes])
        return loss

    ag.gradcheck(f, {"x": Rng(42).normal(3)})
    assert len(closures) == 1 + 1       # the analytic pass, then one stacked pass for x
    assert any(closures[0])
    assert not any(has for pass_ in closures[1:] for has in pass_)
