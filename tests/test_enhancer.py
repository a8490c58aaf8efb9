"""Band coupling, the enhanced layer, and the independent oracle chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadenhance import autograd as ag
from quadenhance import checks
from quadenhance import tensor as T
from quadenhance.enhancer import (QELayer, apply_lambda, band_quadratic,
                                  dense_lambda_oracle, init_qelayer,
                                  layer_v_stack, qe_forward,
                                  quadratic_reference, rank1_reference,
                                  rank1_v_stack)
from quadenhance.errors import ConfigError, DimensionError, NumericError
from quadenhance.models import ACTIVATIONS, MLP, MLPConfig
from quadenhance.rng import Rng

from oracles import fused_qe_input_grad, quadratic_reference_loop


def _random_lambda(rng: Rng, d: int, shifts, dtype=np.float64) -> dict:
    return {r: rng.split(100 + i).uniform(d, -1, 1).astype(dtype) for i, r in enumerate(shifts)}


def _zeros(d: int, shifts) -> dict:
    return {r: np.zeros(d) for r in shifts}


class TestBandLambda:
    """The band coupling {shift: lambda_r}, as QELayer and init_qelayer check it."""

    def test_rejects_zero_shift(self):
        with pytest.raises(ConfigError):
            QELayer(W=np.ones((4, 2)), b=np.zeros(4), lam=_zeros(4, (0, 1)))

    def test_zero_shift_override(self):
        layer = QELayer(W=np.ones((4, 2)), b=np.zeros(4), lam=_zeros(4, (0, 1)),
                        allow_square_terms=True)
        assert layer.k == 2

    def test_rejects_duplicate_shifts(self):
        with pytest.raises(ConfigError):
            init_qelayer(2, 4, (1, 1), seed=0)

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(DimensionError):
            QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam={1: np.zeros(4)})

    def test_shift_that_is_zero_mod_d_is_rejected_as_zero_is(self):
        # one shift rule: 3 at d = 3 is the square term that 0 is
        errors = []
        for r in (0, 3):
            with pytest.raises(ConfigError) as err:
                QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam=_zeros(3, (r,)))
            errors.append(str(err.value).replace(f"shift {r} ", "shift r "))
        assert errors[0] == errors[1]
        with pytest.raises(ConfigError, match="shift 3 reduces to 0 mod 3"):
            init_qelayer(2, 3, (3,), seed=0)


class TestApplyLambda:
    def test_empty_shift_set_is_zero(self):
        np.testing.assert_array_equal(apply_lambda({}, np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_hand_example(self):
        lam = {1: np.array([1.0, 1.0])}
        np.testing.assert_array_equal(apply_lambda(lam, np.array([1.0, 2.0])), [2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_lambda(_zeros(3, (1,)), np.zeros(4))

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, d, data):
        pool = [r for r in range(-3, 4) if r != 0]
        shifts = tuple(data.draw(st.sets(st.sampled_from(pool), min_size=0, max_size=6)))
        rng = Rng(d * 131 + len(shifts))
        lam = _random_lambda(rng, d, shifts)
        y = rng.split(7).uniform(d, -1, 1)
        dense = dense_lambda_oracle(lam, d) @ y
        np.testing.assert_allclose(apply_lambda(lam, y), dense, atol=1e-12)

    def test_matches_dense_oracle_f32(self):
        for seed in range(50):
            rng = Rng(seed)
            d = 2 + int(rng.next_u64(1)[0]) % 63
            shifts = tuple(r for r in (-3, -2, -1, 1, 2, 3)
                           if int(rng.next_u64(1)[0]) % 2 == 0) or (1,)
            lam = _random_lambda(rng, d, shifts, dtype=np.float32)
            y = rng.split(7).uniform(d, -1, 1).astype(np.float32)
            dense = (dense_lambda_oracle(lam, d) @ y).astype(np.float32)
            assert np.abs(apply_lambda(lam, y) - dense).max() <= 1e-6

    def test_degenerate_d1(self):
        # a single coordinate: every shift reduces to 0, and the identity
        # apply_lambda == dense matmul still holds
        lam = {1: np.array([2.5])}
        y = np.array([3.0])
        np.testing.assert_array_equal(apply_lambda(lam, y), dense_lambda_oracle(lam, 1) @ y)

    def test_batched_rows_independent(self):
        lam = _random_lambda(Rng(5), 6, (-1, 2))
        y = Rng(6).uniform(18, -1, 1).reshape(3, 6)
        out = apply_lambda(lam, y)
        for i in range(3):
            np.testing.assert_array_equal(out[i], apply_lambda(lam, y[i]))


class TestDenseLambdaOracle:
    def test_three_by_three_structure(self):
        a, b, c = 2.0, 3.0, 5.0
        lam = {1: np.array([a, b, c])}
        np.testing.assert_array_equal(
            dense_lambda_oracle(lam, 3),
            [[0, a, 0], [0, 0, b], [c, 0, 0]])

    def test_empty_is_zero_matrix(self):
        np.testing.assert_array_equal(dense_lambda_oracle({}, 4), np.zeros((4, 4)))

    def test_two_band_nonzero_count(self):
        lam = _random_lambda(Rng(8), 4, (-1, 1))
        m = dense_lambda_oracle(lam, 4)
        assert np.count_nonzero(m) == 8
        # one wrapped super- and one wrapped sub-diagonal
        rows = np.arange(4)
        assert np.all(m[rows, (rows + 1) % 4] == lam[1])
        assert np.all(m[rows, (rows - 1) % 4] == lam[-1])

    def test_colliding_effective_shifts_accumulate(self):
        # d=2: shifts -1 and +1 address the same entries; the matrix must
        # keep apply_lambda == M @ y, hence accumulate
        lam = {-1: np.array([1.0, 2.0]), 1: np.array([10.0, 20.0])}
        m = dense_lambda_oracle(lam, 2)
        np.testing.assert_array_equal(m, [[0.0, 11.0], [22.0, 0.0]])
        y = np.array([0.5, -0.25])
        np.testing.assert_allclose(apply_lambda(lam, y), m @ y, atol=1e-15)


class TestQEForward:
    def test_zero_lambda_reduces_to_linear_bitwise(self):
        enhanced = init_qelayer(4, 3, (1,), seed=11)
        plain = init_qelayer(4, 3, (), seed=11)
        x = Rng(12).uniform(4, -1, 1)
        assert qe_forward(enhanced, x).tobytes() == qe_forward(plain, x).tobytes()
        np.testing.assert_allclose(qe_forward(enhanced, x), enhanced.W @ x + enhanced.b,
                                   atol=1e-14)

    def test_hand_example(self):
        layer = QELayer(W=np.eye(2), b=np.zeros(2), lam={1: np.array([1.0, 1.0])})
        np.testing.assert_array_equal(qe_forward(layer, np.array([1.0, 2.0])), [3.0, 4.0])

    def test_batch_matches_per_row(self):
        rng = Rng(77)
        layer = QELayer(W=rng.uniform(12, -1, 1).reshape(3, 4),
                        b=rng.split(1).uniform(3, -1, 1),
                        lam=_random_lambda(rng.split(2), 3, (1, -1)))
        xb = rng.split(3).uniform(8, -1, 1).reshape(2, 4)
        out = qe_forward(layer, xb)
        for i in range(2):
            np.testing.assert_array_equal(out[i], qe_forward(layer, xb[i]))

    def test_dimension_error(self):
        layer = init_qelayer(4, 3, (1,), seed=0)
        with pytest.raises(DimensionError):
            qe_forward(layer, np.zeros(5))
        with pytest.raises(DimensionError):          # linear takes [n] or [batch, n] only
            qe_forward(layer, np.zeros((2, 2, 4)))
        with pytest.raises(DimensionError):          # a 0-d input has no trailing axis
            qe_forward(layer, np.float64(1.0))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_output_names_layer(self):
        layer = init_qelayer(2, 2, (1,), seed=0, name="projector")
        layer.W[0, 0] = np.inf
        with pytest.raises(NumericError, match="projector"):
            qe_forward(layer, np.ones(2))

    def test_pure_and_taped_paths_agree_bitwise(self):
        rng = Rng(31)
        layer = QELayer(W=rng.uniform(20, -1, 1).reshape(4, 5),
                        b=rng.split(1).uniform(4, -1, 1),
                        lam=_random_lambda(rng.split(2), 4, (-2, 1)))
        y = rng.split(3).uniform(12, -1, 1).reshape(3, 4)
        pure = T.add(T.hadamard(apply_lambda(layer.lam, y), y), y)
        tape = ag.Tape()
        taped = band_quadratic(tape.const(y), tuple(layer.lam),
                               [tape.const(v) for v in layer.lam.values()])
        assert taped.value.tobytes() == pure.tobytes()

    def test_layer_records_one_node_per_stage(self):
        # a vector records the same stages as a batch: linear alone adds the row axis
        enhanced = init_qelayer(4, 3, (1, -1), seed=0)
        plain = init_qelayer(4, 3, (), seed=0)
        for layer, ops in ((enhanced, ["linear", "band_quadratic", "add_row"]),
                           (plain, ["linear", "add_row"])):
            for shape in ((2, 4), (4,)):
                tape = ag.Tape()
                layer.apply(tape, layer.bind(tape), tape.const(np.ones(shape)))
                assert [node.op for node in tape.nodes if node.inputs] == ops

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_unit_relabelling_conjugates_the_layer(self, data):
        """Relabel output i as pi(i) = a*i mod d for a unit a of Z/d.  The
        conjugate layer takes row pi^-1(j) of W and b as its row j (W' =
        W[pi^-1]; the literal "rows permuted by pi", W[pi], is not it), the
        shift a*r in the tuple position of r, and lambda'_{a r} =
        lambda_r[pi^-1].  Since pi(i) + a*r = pi(i + r), output pi(i) of the
        conjugate sums the terms of output i in the same order: z'[:, pi] == z
        bit for bit."""
        d = data.draw(st.integers(2, 31), label="d")
        a = data.draw(st.sampled_from([u for u in range(1, d) if math.gcd(u, d) == 1]), label="a")
        residues = data.draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=min(4, d - 1),
                                      unique=True), label="residues")
        shifts = tuple(data.draw(st.sampled_from([r, r - d])) for r in residues)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        n, batch = data.draw(st.integers(1, 8), label="n"), data.draw(st.integers(1, 4), label="batch")
        rng = Rng(data.draw(st.integers(0, 2**64 - 1), label="seed"))
        w = rng.split(0).uniform(d * n, -1, 1).reshape(d, n).astype(dtype)
        b = rng.split(1).uniform(d, -1, 1).astype(dtype)
        lam = {r: rng.split(10 + i).uniform(d, -1, 1).astype(dtype) for i, r in enumerate(shifts)}
        x = rng.split(2).uniform(batch * n, -1, 1).reshape(batch, n).astype(dtype)
        pi = a * np.arange(d) % d
        inv = np.argsort(pi)
        layer = QELayer(W=w, b=b, lam=lam)
        conj = QELayer(W=w[inv], b=b[inv], lam={a * r: lam[r][inv] for r in shifts})
        assert conj.forward(x)[:, pi].tobytes() == layer.forward(x).tobytes()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_hidden_layer_symmetries_keep_the_network(self, data):
        """Two layers: an enhanced hidden layer of width d and a plain output.

        Relabelling: conjugate the hidden layer by a unit a, as above, and
        take the next layer's columns in the same order, W2' = W2[:, pi^-1].
        The activations are then h[:, pi^-1] bit for bit, so only the next
        layer's d-term sums change order, and with its bias added the outputs
        differ by at most 2 d eps (|h| @ |W2|^T + |b2|).

        Rescaling, with identity activation: for c in (R \\ 0)^d, W1' = c W1,
        b1' = c b1, lambda'_r = lambda_r / roll(c, -r) and W2' = W2 / c give
        z1' = c z1, which W2' undoes.  Every monomial of the output keeps its
        value up to at most s = 2n + k + d + 8 rounding factors (1 + delta) in
        either network, so the outputs differ by at most 2 gamma_s times the
        network evaluated on absolute values (Higham, ch. 3).
        """
        d = data.draw(st.integers(2, 10), label="d")
        a = data.draw(st.sampled_from([u for u in range(1, d) if math.gcd(u, d) == 1]), label="a")
        residues = data.draw(st.lists(st.integers(1, d - 1), min_size=1, max_size=min(4, d - 1),
                                      unique=True), label="residues")
        shifts = tuple(data.draw(st.sampled_from([r, r - d])) for r in residues)
        precision = data.draw(st.sampled_from(["f32", "f64"]), label="precision")
        dtype = T.PRECISIONS[precision]
        n, m = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(1, 5), label="m")
        batch = data.draw(st.integers(1, 4), label="batch")
        activation = data.draw(st.sampled_from(["identity", "gelu"]), label="activation")
        rng = Rng(data.draw(st.integers(0, 2**64 - 1), label="seed"))

        def draw(i, *shape):
            return rng.split(i).uniform(math.prod(shape), -1, 1).reshape(shape).astype(dtype)

        w1, b1, w2, b2, x = draw(0, d, n), draw(1, d), draw(2, m, d), draw(3, m), draw(4, batch, n)
        lam = {r: draw(10 + i, d) for i, r in enumerate(shifts)}
        eps = np.finfo(dtype).eps

        def network(shifts, w1, b1, lam, w2, activation):
            model = MLP(MLPConfig(layer_dims=(n, d, m), activation=activation, shifts=shifts,
                                  enhancer=(True, False), dtype=precision))
            model.load_parameters({"layers.0.W": w1, "layers.0.b": b1, "layers.1.W": w2,
                                   "layers.1.b": b2,
                                   **{f"layers.0.lam[{r}]": v for r, v in lam.items()}})
            return model.forward(x).astype(np.float64)

        inv = np.argsort(a * np.arange(d) % d)
        out = network(shifts, w1, b1, lam, w2, activation)
        conj = network(tuple(a * r for r in shifts), w1[inv], b1[inv],
                       {a * r: lam[r][inv] for r in shifts}, w2[:, inv], activation)
        h = ACTIVATIONS[activation](ag.Tape().const(QELayer(W=w1, b=b1, lam=lam).forward(x))).value
        bound = 2 * d * eps * (np.abs(h).astype(np.float64) @ np.abs(w2.T) + np.abs(b2))
        assert np.all(np.abs(conj - out) <= bound)

        sign = np.where(rng.split(6).uniform(d, -1, 1) < 0, -1.0, 1.0)
        c = (rng.split(5).uniform(d, 0.5, 2.0) * sign).astype(dtype)
        out = network(shifts, w1, b1, lam, w2, "identity")
        scaled = network(shifts, c[:, None] * w1, c * b1,
                         {r: v / np.roll(c, -r) for r, v in lam.items()}, w2 / c, "identity")
        y = np.abs(x).astype(np.float64) @ np.abs(w1.T)
        z = sum(np.abs(v) * np.roll(y, -r, axis=-1) for r, v in lam.items()) * y + y + np.abs(b1)
        steps = 2 * n + len(shifts) + d + 8
        gamma = steps * eps / 2 / (1 - steps * eps / 2)
        assert np.all(np.abs(scaled - out) <= 2 * gamma * (z @ np.abs(w2.T) + np.abs(b2)))


class TestQELayerValidation:
    def test_w_must_be_a_matrix(self):
        with pytest.raises(DimensionError, match=r"W must be a matrix, got shape \(3,\)"):
            QELayer(W=np.ones(3), b=np.zeros(3), lam={})

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError, match="dimension must be >= 1, got 0"):
            QELayer(W=np.ones((0, 3)), b=np.zeros(0), lam={})

    def test_d1_with_shifts_rejected(self):
        with pytest.raises(ConfigError):
            QELayer(W=np.ones((1, 3)), b=np.zeros(1), lam={1: np.zeros(1)})

    def test_shift_multiple_of_d_rejected(self):
        with pytest.raises(ConfigError):
            QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam=_zeros(3, (3,)))

    def test_square_override_allows(self):
        QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam=_zeros(3, (3,)), allow_square_terms=True)

    def test_disabled_enhancer_skips_shift_check(self):
        # a plain layer has no shifts, so d=1 is fine where shift 1 is not
        layer = QELayer(W=np.ones((1, 3)), b=np.zeros(1), lam={})
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(qe_forward(layer, x), layer.W @ x + layer.b)

    def test_shape_consistency(self):
        with pytest.raises(DimensionError):
            QELayer(W=np.ones((3, 2)), b=np.zeros(2), lam=_zeros(3, (1,)))


class TestInitQELayer:
    def test_deterministic(self):
        a = init_qelayer(5, 4, (1, -1), seed=99)
        b = init_qelayer(5, 4, (1, -1), seed=99)
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()

    def test_fresh_layer_is_linear(self):
        layer = init_qelayer(3, 4, (1,), seed=5)
        x = Rng(6).uniform(3, -2, 2)
        np.testing.assert_allclose(qe_forward(layer, x), layer.W @ x + layer.b, atol=1e-14)

    def test_param_count(self):
        n, d, k = 7, 5, 2
        layer = init_qelayer(n, d, (1, -1), seed=0)
        total = sum(v.size for v in layer.parameters().values())
        assert total == n * d + d + k * d

    def test_weight_range(self):
        n, d = 6, 9
        layer = init_qelayer(n, d, (1,), seed=3)
        s = np.sqrt(6.0 / (n + d))
        assert np.abs(layer.W).max() <= s
        assert np.all(layer.b == 0)
        assert np.all(layer.lam[1] == 0)

    def test_invalid_zero_shift(self):
        with pytest.raises(ConfigError):
            init_qelayer(3, 3, (0,), seed=0)

    def test_square_shift_message_names_a_remedy_it_takes(self):
        with pytest.raises(ConfigError) as err:
            init_qelayer(2, 3, (3,), seed=0)
        assert str(err.value) == ("qe: shift 3 reduces to 0 mod 3 and would produce square terms; "
                                  "drop it or change d")

    def test_zero_dims_rejected(self):
        with pytest.raises(ConfigError, match="layer dims must be >= 1, got n=0, d=3"):
            init_qelayer(0, 3, (1,), seed=0)


class TestOracleChain:
    """The three formulations agree on random instances."""

    def _instance(self, seed):
        rng = Rng(seed)
        n = 1 + int(rng.next_u64(1)[0]) % 12
        d = 2 + int(rng.next_u64(1)[0]) % 11
        shifts = tuple(r for r in (-3, -2, -1, 1, 2, 3)
                       if r % d != 0 and int(rng.next_u64(1)[0]) % 2 == 0) or \
            ((1,) if 1 % d != 0 else ())
        w = (rng.split(1).uniform(d * n, -1, 1) / np.sqrt(n)).reshape(d, n)
        b = rng.split(2).uniform(d, -0.5, 0.5)
        lam = _random_lambda(rng.split(3), d, shifts)
        x = rng.split(4).uniform(n, -0.5, 0.5)
        return QELayer(W=w, b=b, lam=lam), x

    def test_chain_small_sample(self):
        for seed in range(60):
            layer, x = self._instance(seed)
            z_fast = qe_forward(layer, x)
            p, q = layer_v_stack(layer, dense_lambda_oracle(layer.lam, layer.d))
            z_rank1 = rank1_reference(x, p, q, layer.W, layer.b)
            z_full = quadratic_reference(x, layer.W, layer.b, rank1_v_stack(p, q))
            assert np.abs(z_fast - z_rank1).max() <= 1e-12
            assert np.abs(z_rank1 - z_full).max() <= 1e-12

    @pytest.mark.parametrize("dtype,max_dim", [(np.float64, 32), (np.float32, 8),
                                               (np.float32, 32)])
    def test_batched_reference_equals_per_output_loop(self, dtype, max_dim):
        # one batched x @ vs and a vecdot per row must keep every bit of the
        # per-output x @ vs[i] @ x, on the sweep's own instances: a numpy or
        # BLAS build that breaks the identity fails here, by name.  Seeds 0,
        # 97, ... are the sweep's 0 mod 97 instances, d >= 5 with four shifts
        seeds = range(1000)
        shapes = set()
        for seed, (layer, x, _y) in zip(seeds, checks._sweep_block(list(seeds), max_dim, dtype)):
            vs = rank1_v_stack(*layer_v_stack(layer, dense_lambda_oracle(layer.lam, layer.d)))
            got = quadratic_reference(x, layer.W, layer.b, vs)
            want = quadratic_reference_loop(x, layer.W, layer.b, vs)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), seed
            shapes.add(layer.W.shape)
        # the edge shapes n = 1 and d = 2 are among them
        assert any(n == 1 for _, n in shapes) and any(d == 2 for d, _ in shapes)

    def test_reference_checks_its_shapes(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        with pytest.raises(DimensionError, match=r"V stack of shape \(2, 3, 3\), got \(2, 3, 2\)"):
            quadratic_reference(np.ones(3), w, b, np.zeros((2, 3, 2)))
        with pytest.raises(DimensionError, match=r"input of shape \(3,\), got \(1, 3\)"):
            quadratic_reference(np.ones((1, 3)), w, b, np.zeros((2, 3, 3)))

    def test_all_zero_v_reduces_to_linear(self):
        rng = Rng(3)
        w = rng.uniform(6, -1, 1).reshape(2, 3)
        b = rng.split(1).uniform(2, -1, 1)
        x = rng.split(2).uniform(3, -1, 1)
        z = quadratic_reference(x, w, b, np.zeros((2, 3, 3)))
        np.testing.assert_allclose(z, w @ x + b, atol=1e-15)

    def test_rank1_identity(self):
        # x^T (p q^T) x == (p^T x)(q^T x) numerically
        rng = Rng(13)
        n, d = 6, 4
        p = rng.uniform(d * n, -1, 1).reshape(d, n)
        q = rng.split(1).uniform(d * n, -1, 1).reshape(d, n)
        x = rng.split(2).uniform(n, -1, 1)
        w = np.zeros((d, n))
        b = np.zeros(d)
        lhs = quadratic_reference(x, w, b, rank1_v_stack(p, q))
        rhs = rank1_reference(x, p, q, w, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rank_bound(self):
        """rank(L @ W) never exceeds min(rank L, rank W)."""
        for seed in range(20):
            layer, _x = self._instance(seed)
            m = dense_lambda_oracle(layer.lam, layer.d)
            def rank(a):
                s = np.linalg.svd(a, compute_uv=False)
                return int(np.sum(s > 1e-8))
            assert rank(m @ layer.W) <= min(rank(m), rank(layer.W))


class TestGradients:
    def test_layer_passes_gradcheck(self):
        # n=4 inputs, d=5 outputs, single-shift coupling
        rng = Rng(61)
        layer = QELayer(W=rng.uniform(20, -1, 1).reshape(5, 4),
                        b=rng.split(1).uniform(5, -1, 1),
                        lam=_random_lambda(rng.split(2), 5, (1,)))
        x = rng.split(3).uniform(4, 0.3, 1.0)
        u = rng.split(4).uniform(5, 0.5, 1.0)

        def f(tape, bound):
            out = layer.apply(tape, bound, tape.const(x))
            return ag.reduce_sum(ag.hadamard(out, tape.const(u)))

        report = ag.gradcheck(f, layer.parameters(), step=1e-6, tol=1e-4)
        assert report.passed, report.entries

    def test_input_gradient_matches_fused_oracle(self):
        """Tape backward through the quadratic stage equals the closed form."""
        rng = Rng(62)
        d = 6
        lam = _random_lambda(rng, d, (-2, 1, 3))
        y0 = rng.split(1).uniform(d, -1, 1)
        g = rng.split(2).uniform(d, -1, 1)

        tape = ag.Tape()
        y = tape.param(y0)
        z = band_quadratic(y, tuple(lam), [tape.const(v) for v in lam.values()])
        loss = ag.reduce_sum(ag.hadamard(z, tape.const(g)))
        got = tape.backward(loss)[y.node_id]

        expected = fused_qe_input_grad(tuple(lam), lam, y0, g)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_lambda_w_gradients_match_plain_bitwise(self):
        enhanced = init_qelayer(4, 3, (1,), seed=17)
        plain = init_qelayer(4, 3, (), seed=17)
        x = Rng(18).uniform(8, -1, 1).reshape(2, 4)
        u = Rng(19).uniform(6, 0.5, 1.0).reshape(2, 3)

        def grads(layer):
            tape = ag.Tape()
            bound = layer.bind(tape)
            out = layer.apply(tape, bound, tape.const(x))
            loss = ag.reduce_sum(ag.hadamard(out, tape.const(u)))
            g = tape.backward(loss)
            return {k: g[v.node_id] for k, v in bound.items()}

        # identical weights by construction; gradients must agree bit for bit
        ge, gp = grads(enhanced), grads(plain)
        assert ge["W"].tobytes() == gp["W"].tobytes()
        assert ge["b"].tobytes() == gp["b"].tobytes()
