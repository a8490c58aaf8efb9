"""Layer stacks, baselines, losses, optimizers."""

import hashlib
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from quadenhance import autograd as ag
from quadenhance import datasets, enhancer, models, training
from quadenhance.enhancer import QELayer, qe_forward
from quadenhance.errors import ConfigError, DimensionError, NumericError
from quadenhance.models import (MLP, MLPConfig, Adam, QuadraNetLayer, SGD,
                                SwiGLULayer, mse)
from quadenhance.rng import Rng

# recorded with the allocating Adam (fresh m, v and temporaries each step)
ADAM_DIGESTS = {
    "f32": "02e1378051d60f989151cc40037d785a446f36222785e19211e9b1589f243d61",
    "f64": "e73a23980e59018c0f2e2ef498baa613058c4ca5f680653b75e480da28247f15",
}


def _five_adam_steps(dtype: str) -> str:
    """The digest of two parameters after five Adam steps, each checked to
    write into the arrays passed in."""
    np_dtype = np.dtype(np.float32 if dtype == "f32" else np.float64)
    rng = Rng(31)
    params = {"W": rng.split(0).uniform(12, -1, 1).reshape(3, 4).astype(np_dtype),
              "b": rng.split(1).uniform(5, -0.5, 0.5).astype(np_dtype)}
    opt = Adam(lr=0.01)
    for step in range(5):
        grads = {name: rng.split(10 + 2 * step + j).uniform(w.size, -1, 1).reshape(w.shape)
                 * 10.0 ** (step - 2) for j, (name, w) in enumerate(params.items())}
        new = opt.step(params, grads)
        for k, w in params.items():
            assert new[k] is w
            assert new[k].dtype == np_dtype and new[k].shape == w.shape
        params = new
    h = hashlib.sha256()
    for name, arr in sorted(params.items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _optimizer_state(opt, params: dict) -> tuple:
    """The bytes of the weights and of Adam's moments, and Adam's step count."""
    arrays = [params, getattr(opt, "_m", {}), getattr(opt, "_v", {})]
    return [(k, a.tobytes()) for d in arrays for k, a in d.items()], getattr(opt, "_t", None)


class TestMLPConfig:
    def test_needs_two_dims(self):
        with pytest.raises(ConfigError):
            MLPConfig(layer_dims=(4,))

    def test_mask_length_checked(self):
        with pytest.raises(ConfigError):
            MLPConfig(layer_dims=(4, 3, 2), enhancer=(True,))

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            MLPConfig(layer_dims=(4, 2), activation="tanh")

    def test_exempt_final(self):
        cfg = MLPConfig(layer_dims=(4, 3, 2), exempt_final=True)
        assert cfg.mask() == (True, False)

    def test_default_mask_all_on(self):
        assert MLPConfig(layer_dims=(4, 3, 2)).mask() == (True, True)

    def test_plain_variant(self):
        assert MLPConfig(layer_dims=(4, 3, 2)).plain().mask() == (False, False)

    def test_shift_that_is_zero_mod_an_enhanced_width_rejected(self):
        with pytest.raises(ConfigError, match=r"layer 1 \(width 1\): shift 1 .*exempt_final, "
                                              r"enhancer or shifts"):
            MLPConfig(layer_dims=(3, 4, 1))
        with pytest.raises(ConfigError, match=r"layer 0 \(width 2\): shift -2"):
            MLPConfig(layer_dims=(3, 2), shifts=(1, -2))
        # a plain layer takes no shift, so each way around the check builds
        assert MLPConfig(layer_dims=(3, 4, 1), exempt_final=True).mask() == (True, False)
        assert MLPConfig(layer_dims=(3, 4, 1), enhancer=(True, False)).mask() == (True, False)
        assert MLPConfig(layer_dims=(3, 1), shifts=()).mask() == (True,)


class TestMLPForward:
    def test_single_layer_identity_is_linear(self):
        cfg = MLPConfig(layer_dims=(3, 2), activation="identity", seed=4)
        model = MLP(cfg)
        x = Rng(5).uniform(3, -1, 1)
        layer = model.layers[0]
        np.testing.assert_allclose(model.forward(x), layer.W @ x + layer.b, atol=1e-14)

    def test_masked_off_layer_is_plain(self):
        # d=1 with shift 1 would be rejected for an enhanced layer; a plain
        # layer takes no shifts, records no band node and owns no coupling
        model = MLP(MLPConfig(layer_dims=(3, 1), shifts=(1,), enhancer=(False,),
                              activation="identity", seed=2))
        assert sorted(model.parameters()) == ["layers.0.W", "layers.0.b"]
        x = Rng(3).uniform(6, -1, 1).reshape(2, 3)
        tape = ag.Tape()
        out = model.apply(tape, model.bind(tape), tape.const(x))
        assert [node.op for node in tape.nodes if node.inputs] == ["linear", "add_row"]
        layer = model.layers[0]
        np.testing.assert_allclose(out.value, x @ layer.W.T + layer.b, atol=1e-15)

    def test_zero_input_zero_bias_relu_gives_zero_logits(self):
        cfg = MLPConfig(layer_dims=(4, 5, 3), activation="relu", seed=1)
        model = MLP(cfg)
        out = model.forward(np.zeros((2, 4)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_two_hidden_layer_gradcheck(self):
        cfg = MLPConfig(layer_dims=(3, 4, 4, 2), activation="gelu", seed=9)
        model = MLP(cfg)
        params = model.parameters()
        rng = Rng(10)
        for j, name in enumerate(sorted(params)):
            if "lam[" in name:
                params[name][:] = rng.split(j).uniform(params[name].size, -0.5, 0.5)
        x = rng.split(50).uniform(6, -1, 1).reshape(2, 3)
        labels = np.array([0, 1])

        def f(tape, bound):
            return ag.cross_entropy(model.apply(tape, bound, tape.const(x)), labels)

        report = ag.gradcheck(f, params, step=1e-6, tol=1e-4)
        assert report.passed, report.entries

    def test_forward_and_evaluate_keep_no_backward_closures(self, monkeypatch):
        """Forward-only passes bind parameters as constants: equal outputs,
        and no node of their tapes holds a backward closure."""
        tapes = []
        init = ag.Tape.__init__

        def recording_init(tape):
            init(tape)
            tapes.append(tape)

        model = MLP(MLPConfig(layer_dims=(2, 5, 3), shifts=(1,), activation="relu", seed=6))
        x = Rng(7).uniform(4, -1, 1).reshape(2, 2)
        tape = ag.Tape()
        want = model.apply(tape, model.bind(tape), tape.const(x)).value
        monkeypatch.setattr(ag.Tape, "__init__", recording_init)
        assert model.forward(x).tobytes() == want.tobytes()
        ds = datasets.gen_blobs(classes=3, size=12, seed=8)
        training.evaluate(model, ds, ds.train_idx, np.float64)
        assert len(tapes) == 3      # forward; evaluate's forward and loss tapes
        assert all(node.backward is None for t in tapes for node in t.nodes)

    def test_parameter_roundtrip(self):
        model = MLP(MLPConfig(layer_dims=(3, 4, 2), seed=0))
        params = {k: v + 1.0 for k, v in model.parameters().items()}
        model.load_parameters(params)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, params[k])


class TestZeroLambdaEquivalence:
    """Enhanced stack with zero couplings == plain stack, bit for bit."""

    def _pair(self, seed=23):
        cfg = MLPConfig(layer_dims=(4, 6, 3), activation="gelu", seed=seed)
        return MLP(cfg), MLP(cfg.plain())

    def test_outputs_bitwise(self):
        qe, plain = self._pair()
        x = Rng(24).uniform(12, -1, 1).reshape(3, 4)
        assert qe.forward(x).tobytes() == plain.forward(x).tobytes()

    def test_loss_and_wb_gradients_bitwise(self):
        qe, plain = self._pair()
        x = Rng(25).uniform(12, -1, 1).reshape(3, 4)
        labels = np.array([0, 2, 1])

        def loss_and_grads(model):
            tape = ag.Tape()
            bound = model.bind(tape)
            loss = ag.cross_entropy(model.apply(tape, bound, tape.const(x)), labels)
            grads = tape.backward(loss)
            return loss.value, {k: grads[v.node_id] for k, v in bound.items()}

        l1, g1 = loss_and_grads(qe)
        l2, g2 = loss_and_grads(plain)
        assert l1.tobytes() == l2.tobytes()
        for name, g in g2.items():
            assert g1[name].tobytes() == g.tobytes(), name


class TestBaselines:
    def test_quadranet_wa_zero_reduces_to_linear(self):
        layer = QuadraNetLayer(3, 2, seed=5)
        layer.Wa = np.zeros_like(layer.Wa)
        x = Rng(6).uniform(3, -1, 1)
        np.testing.assert_allclose(layer.forward(x), layer.Wc @ x, atol=1e-14)

    def test_swiglu_zero_at_origin(self):
        layer = SwiGLULayer(4, 3, seed=7)
        np.testing.assert_array_equal(layer.forward(np.zeros(4)), np.zeros(3))

    @pytest.mark.parametrize("kind", ["quadranet", "swiglu"])
    def test_gradcheck(self, kind):
        layer = (QuadraNetLayer(3, 4, seed=8, bias=True) if kind == "quadranet"
                 else SwiGLULayer(3, 4, seed=8))
        rng = Rng(9)
        x = rng.uniform(3, 0.3, 1.0)
        u = rng.split(1).uniform(4, 0.5, 1.0)

        def f(tape, bound):
            out = layer.apply(tape, bound, tape.const(x))
            return ag.reduce_sum(ag.hadamard(out, tape.const(u)))

        report = ag.gradcheck(f, layer.parameters(), step=1e-6, tol=1e-4)
        assert report.passed, report.entries

    def test_quadranet_param_count(self):
        layer = QuadraNetLayer(5, 3, seed=0, bias=True)
        assert sum(v.size for v in layer.parameters().values()) == 3 * 5 * 3 + 3
        no_bias = QuadraNetLayer(5, 3, seed=0, bias=False)
        assert sum(v.size for v in no_bias.parameters().values()) == 3 * 5 * 3

    def test_batch_forward(self):
        layer = SwiGLULayer(3, 2, seed=1)
        xb = Rng(2).uniform(6, -1, 1).reshape(2, 3)
        out = layer.forward(xb)
        for i in range(2):
            np.testing.assert_array_equal(out[i], layer.forward(xb[i]))


def _relu_mlp_with_couplings(seed):
    model = MLP(MLPConfig(layer_dims=(4, 6, 3), activation="relu", shifts=(1, -1), seed=seed))
    rng = Rng(seed + 1)
    for j, (name, arr) in enumerate(sorted(model.parameters().items())):
        if "lam[" in name or name.endswith(".b"):
            arr[:] = rng.split(j).uniform(arr.size, -0.5, 0.5)
    return model


def _taped_pass(model, x0, u):
    """The arrays to compare from one pass of sum(out * u): the output, then
    the gradient of every parameter and of x."""
    tape = ag.Tape()
    bound = model.bind(tape)
    x = tape.param(x0)
    out = model.apply(tape, bound, x)
    grads = tape.backward(ag.reduce_sum(ag.hadamard(out, tape.const(u))))
    return [out.value, *(grads[bound[k].node_id] for k in sorted(bound)), grads[x.node_id]]


class TestSingleVectorInputs:
    """A vector x [n] runs as the one-row batch x[None], bit for bit."""

    @pytest.mark.parametrize("kind", ["qe_layer", "quadranet", "swiglu", "mlp"])
    def test_vector_pass_equals_one_row_batch(self, kind):
        model = {"qe_layer": lambda: enhancer.init_qelayer(4, 6, (1, -2), seed=3),
                 "quadranet": lambda: QuadraNetLayer(4, 6, seed=3, bias=True),
                 "swiglu": lambda: SwiGLULayer(4, 6, seed=3),
                 "mlp": lambda: _relu_mlp_with_couplings(3)}[kind]()
        if kind == "qe_layer":
            for r, v in model.lam.items():
                v[:] = Rng(4 + r).uniform(6, -0.5, 0.5)
        rng = Rng(5)
        x = rng.uniform(4, -1, 1)
        u = rng.split(1).uniform(model.d, -1, 1)
        single = _taped_pass(model, x, u)
        batch = _taped_pass(model, x[None], u[None])
        assert [a.tobytes() for a in single] == [a.tobytes() for a in batch]
        assert single[0].shape == (model.d,) and single[-1].shape == (4,)
        if kind == "mlp":
            # the relu masks a negative upstream gradient, so -0.0 reaches
            # layer 0, where a row sum that kept it would differ from the batch.
            # backward keeps no gradient at layer 0's output, so a second tape
            # binds that output as a param and runs the same ops downstream
            head = ag.Tape()
            h0 = head.param(model.layers[0].forward(x))
            out = model.layers[1].apply(head, model.layers[1].bind(head), ag.relu(h0))
            assert out.value.tobytes() == single[0].tobytes()
            g0 = head.backward(ag.reduce_sum(ag.hadamard(out, head.const(u))))[h0.node_id]
            assert np.any((g0 == 0) & np.signbit(g0))


class TestLossesAndOptimizers:
    def test_mse_of_identical_is_zero(self):
        tape = ag.Tape()
        x = tape.const(np.array([1.0, 2.0]))
        assert float(mse(x, np.array([1.0, 2.0])).value) == 0.0

    def test_mse_hand_value(self):
        tape = ag.Tape()
        pred = tape.const(np.array([1.0, 3.0]))
        # squared errors 1 and 1 -> mean 1
        assert float(mse(pred, np.array([0.0, 4.0])).value) == 1.0

    def test_mse_shape_mismatch(self):
        tape = ag.Tape()
        with pytest.raises(DimensionError):
            mse(tape.const(np.zeros(2)), np.zeros(3))

    def test_sgd_hand_step(self):
        opt = SGD(lr=0.1)
        out = opt.step({"w": np.array([1.0])}, {"w": np.array([2.0])})
        np.testing.assert_allclose(out["w"], [0.8])

    def test_sgd_rejects_nonpositive_lr(self):
        with pytest.raises(ConfigError):
            SGD(lr=0.0)

    def test_adam_first_step_is_unit_normalized(self):
        opt = Adam(lr=1e-3)
        out = opt.step({"w": np.array([1.0])}, {"w": np.array([1.0])})
        assert abs(float(out["w"][0]) - (1.0 - 1e-3)) < 1e-9

    def test_adam_state_carries(self):
        opt = Adam(lr=0.1)
        params = {"w": np.array([1.0])}
        for _ in range(3):
            params = opt.step(params, {"w": np.array([1.0])})
        assert opt._t == 3
        assert params["w"][0] < 1.0 - 2 * 0.09

    def test_nonfinite_gradient_names_parameter(self):
        opt = SGD(lr=0.1)
        with pytest.raises(NumericError, match="spikes"):
            opt.step({"spikes": np.ones(2)}, {"spikes": np.array([1.0, np.nan])})

    @pytest.mark.parametrize("opt", [SGD(lr=0.1), Adam(lr=0.1)], ids=["sgd", "adam"])
    def test_failed_step_changes_nothing(self, opt):
        """A NaN in the last gradient raises before any weight, moment or
        step count moves, although the updates write in place."""
        params = {"a": np.array([1.0, -2.0]), "b": np.array([0.5])}
        opt.step(params, {"a": np.array([0.3, 0.1]), "b": np.array([-0.2])})
        before = _optimizer_state(opt, params)
        with pytest.raises(NumericError, match="'b'"):
            opt.step(params, {"a": np.array([0.3, 0.1]), "b": np.array([np.nan])})
        assert _optimizer_state(opt, params) == before

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_adam_five_steps_are_pinned(self, dtype):
        """Five steps on two parameters land on pinned bits, written into
        the arrays passed in.  The gradients are f64, so the f32 set's go
        through Adam's cast; their scale moves 10x per step, so the moments
        and the bias corrections both matter."""
        assert _five_adam_steps(dtype) == ADAM_DIGESTS[dtype]

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_adam_chunks_keep_every_bit(self, monkeypatch, dtype):
        """Chunks of 5 split the 12-element W across three passes and the
        5-element b into one, and the pinned bits still hold."""
        monkeypatch.setattr(models, "_STEP_CHUNK", 5)
        assert _five_adam_steps(dtype) == ADAM_DIGESTS[dtype]

    def test_adam_updates_a_non_contiguous_parameter_in_place(self):
        base = Rng(32).uniform(12, -1, 1).reshape(3, 4)
        grad = Rng(33).uniform(12, -1, 1).reshape(4, 3)
        flat, strided = base.T.copy(), base.T
        Adam(lr=0.01).step({"w": flat}, {"w": grad})
        Adam(lr=0.01).step({"w": strided}, {"w": grad})
        assert strided.tobytes() == flat.tobytes()

    def test_sgd_updates_a_non_contiguous_parameter_in_place(self):
        base = Rng(32).uniform(12, -1, 1).reshape(3, 4)
        grad = Rng(33).uniform(12, -1, 1).reshape(4, 3)
        want = base.T - 0.01 * grad
        strided = base.T
        SGD(lr=0.01).step({"w": strided}, {"w": grad})
        assert strided.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sgd_chunks_keep_every_bit(self, monkeypatch, dtype):
        """Chunks of 5 split the 12-element W across three passes, and each
        element still gets w - lr * g, with g cast to w's dtype first."""
        monkeypatch.setattr(models, "_STEP_CHUNK", 5)
        rng = Rng(34)
        params = {"W": rng.split(0).uniform(12, -1, 1).reshape(3, 4).astype(dtype),
                  "b": rng.split(1).uniform(5, -0.5, 0.5).astype(dtype)}
        grads = {k: rng.split(2 + j).uniform(w.size, -1, 1).reshape(w.shape)
                 for j, (k, w) in enumerate(params.items())}
        want = {k: w - dtype(0.03) * grads[k].astype(dtype) for k, w in params.items()}
        SGD(lr=0.03).step(params, grads)
        assert {k: w.tobytes() for k, w in params.items()} == {k: w.tobytes() for k, w in want.items()}

    @pytest.mark.parametrize("opt", [SGD(lr=0.1), Adam(lr=0.1)], ids=["sgd", "adam"])
    def test_gradient_that_overflows_its_cast_is_named_first(self, opt):
        """An f64 gradient of 1e39 becomes inf in an f32 parameter's dtype; the
        step casts before it checks, so it names the parameter, with no numpy
        warning, and changes no weight, moment or step count."""
        params = {"a": np.array([1.0, -2.0], np.float32), "b": np.array([0.5], np.float32)}
        opt.step(params, {"a": np.array([0.3, 0.1]), "b": np.array([-0.2])})
        before = _optimizer_state(opt, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'b'"):
                opt.step(params, {"a": np.array([0.3, 0.1]), "b": np.array([1e39])})
        assert _optimizer_state(opt, params) == before

    def test_sgd_step_holds_less_than_half_a_parameter(self):
        """SGD's lr * g goes through a chunk-sized scratch row, so a step on a
        1 MiB f32 parameter peaks well under its size."""
        w = np.ones((1024, 256), np.float32)
        g = np.full(w.shape, 0.5, np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            SGD(lr=0.1).step({"w": w}, {"w": g})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < w.nbytes / 2, f"peak {peak} bytes"
        assert np.all(w == np.float32(1) - np.float32(0.1) * np.float32(0.5))

    def test_adam_hyperparameter_validation(self):
        with pytest.raises(ConfigError):
            Adam(lr=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            Adam(lr=0.1, eps=0.0)


class TestParameterCounts:
    def test_counts_match_structure(self):
        cfg = MLPConfig(layer_dims=(4, 8, 8, 2), shifts=(1,), seed=0)
        model = MLP(cfg)
        plain = MLP(cfg.plain())
        n_model = sum(v.size for v in model.parameters().values())
        n_plain = sum(v.size for v in plain.parameters().values())
        # per layer: n*d + d, plus k*d for each enhanced layer
        assert n_plain == (4 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
        assert n_model - n_plain == 8 + 8 + 2


class TestExpressiveness:
    def test_explicit_cross_term_solves_xor_signs(self):
        """A hand-built enhanced layer separates the XOR corners, which no
        affine map can do (checked exhaustively elsewhere)."""
        layer = QELayer(W=np.eye(2), b=np.zeros(2), lam={1: np.array([0.0, 4.0])})
        pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        want = (pts[:, 0] * pts[:, 1] > 0).astype(int)
        z = np.array([qe_forward(layer, p) for p in pts])
        got = (z[:, 1] > z[:, 0]).astype(int)
        np.testing.assert_array_equal(got, want)


def test_traced_spans_stay_in_their_defining_bodies():
    """perfbench/spans.py names a method after the class body that defines
    it and a function after its module.  Its per-layer rows read these
    spans, and MLP.load_parameters closes each training step, so none of
    them may move into a base class or another module."""
    for cls, names in ((enhancer.QELayer, ("apply",)),
                       (models.MLP, ("apply", "load_parameters")),
                       (models.Adam, ("step",))):
        for name in names:
            assert inspect.isfunction(vars(cls).get(name)), f"{cls.__name__}.{name}"
    for mod, name in ((enhancer, "qe_forward"), (training, "_loss_and_grads"),
                      (training, "evaluate")):
        fn = vars(mod).get(name)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{mod.__name__}.{name}"
