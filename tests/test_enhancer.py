"""Band coupling, the enhanced layer, and the independent oracle chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadenhance import autograd as ag
from quadenhance import tensor as T
from quadenhance.enhancer import (BandLambda, QELayer, apply_lambda, band_quadratic,
                                  dense_lambda_oracle, init_qelayer,
                                  layer_v_stack, qe_forward,
                                  quadratic_reference, rank1_reference,
                                  rank1_v_stack)
from quadenhance.errors import ConfigError, DimensionError, NumericError
from quadenhance.rng import Rng

from oracles import fused_qe_input_grad


def _random_lambda(rng: Rng, d: int, shifts, dtype=np.float64) -> BandLambda:
    return BandLambda(d=d, shifts=tuple(shifts),
                      values={r: rng.split(100 + i).uniform(d, -1, 1).astype(dtype)
                              for i, r in enumerate(shifts)})


class TestBandLambda:
    def test_rejects_zero_shift(self):
        with pytest.raises(ConfigError):
            BandLambda.zeros(4, (0, 1))

    def test_zero_shift_override(self):
        lam = BandLambda.zeros(4, (0, 1), allow_square_terms=True)
        assert lam.k == 2

    def test_rejects_duplicate_shifts(self):
        with pytest.raises(ConfigError):
            BandLambda.zeros(4, (1, 1))

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(DimensionError):
            BandLambda(d=3, shifts=(1,), values={1: np.zeros(4)})

    def test_rejects_vector_for_absent_shift(self):
        # apply_lambda and parameters() read only the listed shifts, so a
        # vector for shift 2 would be dropped without a word
        with pytest.raises(ConfigError, match=r"shifts \[2\]"):
            BandLambda(d=4, shifts=(1,), values={1: np.ones(4), 2: np.ones(4)})


class TestApplyLambda:
    def test_empty_shift_set_is_zero(self):
        lam = BandLambda.zeros(3, ())
        np.testing.assert_array_equal(apply_lambda(lam, np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_hand_example(self):
        lam = BandLambda(d=2, shifts=(1,), values={1: np.array([1.0, 1.0])})
        np.testing.assert_array_equal(apply_lambda(lam, np.array([1.0, 2.0])), [2.0, 1.0])

    def test_dimension_mismatch(self):
        lam = BandLambda.zeros(3, (1,))
        with pytest.raises(DimensionError):
            apply_lambda(lam, np.zeros(4))

    @given(st.integers(1, 64), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, d, data):
        pool = [r for r in range(-3, 4) if r != 0]
        shifts = tuple(data.draw(st.sets(st.sampled_from(pool), min_size=0, max_size=6)))
        rng = Rng(d * 131 + len(shifts))
        lam = _random_lambda(rng, d, shifts)
        y = rng.split(7).uniform(d, -1, 1)
        dense = dense_lambda_oracle(lam) @ y
        np.testing.assert_allclose(apply_lambda(lam, y), dense, atol=1e-12)

    def test_matches_dense_oracle_f32(self):
        for seed in range(50):
            rng = Rng(seed)
            d = 2 + int(rng.next_u64(1)[0]) % 63
            shifts = tuple(r for r in (-3, -2, -1, 1, 2, 3)
                           if int(rng.next_u64(1)[0]) % 2 == 0) or (1,)
            lam = _random_lambda(rng, d, shifts, dtype=np.float32)
            y = rng.split(7).uniform(d, -1, 1).astype(np.float32)
            dense = (dense_lambda_oracle(lam) @ y).astype(np.float32)
            assert np.abs(apply_lambda(lam, y) - dense).max() <= 1e-6

    def test_degenerate_d1(self):
        # a single coordinate: every shift reduces to 0, and the identity
        # apply_lambda == dense matmul still holds
        lam = BandLambda(d=1, shifts=(1,), values={1: np.array([2.5])})
        y = np.array([3.0])
        np.testing.assert_array_equal(apply_lambda(lam, y), dense_lambda_oracle(lam) @ y)

    def test_batched_rows_independent(self):
        lam = _random_lambda(Rng(5), 6, (-1, 2))
        y = Rng(6).uniform(18, -1, 1).reshape(3, 6)
        out = apply_lambda(lam, y)
        for i in range(3):
            np.testing.assert_array_equal(out[i], apply_lambda(lam, y[i]))


class TestDenseLambdaOracle:
    def test_three_by_three_structure(self):
        a, b, c = 2.0, 3.0, 5.0
        lam = BandLambda(d=3, shifts=(1,), values={1: np.array([a, b, c])})
        np.testing.assert_array_equal(
            dense_lambda_oracle(lam),
            [[0, a, 0], [0, 0, b], [c, 0, 0]])

    def test_empty_is_zero_matrix(self):
        np.testing.assert_array_equal(dense_lambda_oracle(BandLambda.zeros(4, ())), np.zeros((4, 4)))

    def test_two_band_nonzero_count(self):
        lam = _random_lambda(Rng(8), 4, (-1, 1))
        m = dense_lambda_oracle(lam)
        assert np.count_nonzero(m) == 8
        # one wrapped super- and one wrapped sub-diagonal
        rows = np.arange(4)
        assert np.all(m[rows, (rows + 1) % 4] == lam.values[1])
        assert np.all(m[rows, (rows - 1) % 4] == lam.values[-1])

    def test_colliding_effective_shifts_accumulate(self):
        # d=2: shifts -1 and +1 address the same entries; the matrix must
        # keep apply_lambda == M @ y, hence accumulate
        lam = BandLambda(d=2, shifts=(-1, 1),
                         values={-1: np.array([1.0, 2.0]), 1: np.array([10.0, 20.0])})
        m = dense_lambda_oracle(lam)
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
        lam = BandLambda(d=2, shifts=(1,), values={1: np.array([1.0, 1.0])})
        layer = QELayer(W=np.eye(2), b=np.zeros(2), lam=lam)
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
        taped = band_quadratic(tape.const(y), layer.lam.shifts,
                               [tape.const(layer.lam.values[r]) for r in layer.lam.shifts])
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


class TestQELayerValidation:
    def test_d1_with_shifts_rejected(self):
        lam = BandLambda(d=1, shifts=(1,), values={1: np.zeros(1)})
        with pytest.raises(ConfigError):
            QELayer(W=np.ones((1, 3)), b=np.zeros(1), lam=lam)

    def test_shift_multiple_of_d_rejected(self):
        lam = BandLambda.zeros(3, (3,))
        with pytest.raises(ConfigError):
            QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam=lam)

    def test_square_override_allows(self):
        lam = BandLambda.zeros(3, (3,), allow_square_terms=True)
        QELayer(W=np.ones((3, 2)), b=np.zeros(3), lam=lam)

    def test_disabled_enhancer_skips_shift_check(self):
        # a plain layer has no shifts, so d=1 is fine where shift 1 is not
        layer = QELayer(W=np.ones((1, 3)), b=np.zeros(1), lam=BandLambda.zeros(1, ()))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(qe_forward(layer, x), layer.W @ x + layer.b)

    def test_shape_consistency(self):
        with pytest.raises(DimensionError):
            QELayer(W=np.ones((3, 2)), b=np.zeros(2), lam=BandLambda.zeros(3, (1,)))


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
        assert np.all(layer.lam.values[1] == 0)

    def test_invalid_zero_shift(self):
        with pytest.raises(ConfigError):
            init_qelayer(3, 3, (0,), seed=0)


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
            p, q = layer_v_stack(layer)
            z_rank1 = rank1_reference(x, p, q, layer.W, layer.b)
            z_full = quadratic_reference(x, layer.W, layer.b, rank1_v_stack(p, q))
            assert np.abs(z_fast - z_rank1).max() <= 1e-12
            assert np.abs(z_rank1 - z_full).max() <= 1e-12

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
            m = dense_lambda_oracle(layer.lam)
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
        assert report.passed, report.lines()

    def test_input_gradient_matches_fused_oracle(self):
        """Tape backward through the quadratic stage equals the closed form."""
        rng = Rng(62)
        d = 6
        lam = _random_lambda(rng, d, (-2, 1, 3))
        y0 = rng.split(1).uniform(d, -1, 1)
        g = rng.split(2).uniform(d, -1, 1)

        tape = ag.Tape()
        y = tape.param(y0)
        z = band_quadratic(y, lam.shifts, [tape.const(lam.values[r]) for r in lam.shifts])
        loss = ag.reduce_sum(ag.hadamard(z, tape.const(g)))
        got = tape.backward(loss)[y.node_id]

        expected = fused_qe_input_grad(lam.shifts, lam.values, y0, g)
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
