"""Kernel contracts: exactness, determinism, and shape validation."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from quadenhance import autograd as ag
from quadenhance import tensor as T
from quadenhance.errors import DimensionError

from cpu_dispatch import assert_passes_without_cpu_dispatch
from oracles import matmul_triple_loop, reduce_sum_sequential


def _assert_same_bits(got, want):
    """0 ulp: same dtype, shape and bytes, NaN wherever the reference has one."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()


class TestMatmul:
    def test_identity(self):
        v = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(T.matmul(np.eye(2), v), v)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        np.testing.assert_array_equal(T.matmul(a, b), [[17.0], [39.0]])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_triple_loop_exactly(self, dtype):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(7, 5)).astype(dtype)
        b = rng.normal(size=(5, 3)).astype(dtype)
        ours = T.matmul(a, b)
        ref = matmul_triple_loop(a, b)
        # same accumulation order => identical bits, not just close
        assert ours.tobytes() == ref.tobytes()

    def test_bit_reproducible(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 9))
        b = rng.normal(size=(9, 4))
        assert T.matmul(a, b).tobytes() == T.matmul(a, b).tobytes()

    # static, so that the subclass runs it from the same executor as this class
    @staticmethod
    @given(st.sampled_from([np.float32, np.float64]), st.integers(0, 40),
           st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_triple_loop_equivalence_all_shapes(dtype, r, c, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(r, c)).astype(dtype)
        b = rng.normal(size=(c, k)).astype(dtype)
        _assert_same_bits(T.matmul(a, b), matmul_triple_loop(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [8, 9, 16, 33])
    def test_one_column_sums_in_index_order(self, dtype, c):
        # with one output column the summed axis is the contiguous one, where
        # numpy's own reduction sums pairwise from 8 terms on
        rng = np.random.default_rng(c)
        a = (rng.normal(size=(5, c)) * 10.0 ** rng.integers(-4, 5, size=c)).astype(dtype)
        b = rng.normal(size=(c, 1)).astype(dtype)
        _assert_same_bits(T.matmul(a, b), matmul_triple_loop(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 12, 7), (1, 40, 1), (4, 0, 3), (0, 5, 3), (3, 5, 0),
                                       (3, 1, 4), (3, 1, 1)])
    def test_degenerate_extents(self, dtype, shape):
        r, c, k = shape
        rng = np.random.default_rng(r * 100 + c * 10 + k)
        a = rng.normal(size=(r, c)).astype(dtype)
        b = rng.normal(size=(c, k)).astype(dtype)
        if c == 1:
            # -0.0 products down column 0: +0.0 only from the sum's 0 start
            a[0] = np.copysign(0.0, -b[:, 0])
        _assert_same_bits(T.matmul(a, b), matmul_triple_loop(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 67])
    def test_products_round_before_the_sum(self, dtype, k):
        # 0 - fl(x*y) + x*y is +0.0 when x*y is rounded before it is added; a
        # fused multiply-add keeps x*y - fl(x*y) (2.1e-13 at f32) instead
        eps = np.finfo(dtype).eps
        x, y = dtype(1 + 3 * eps), dtype(1 + 5 * eps)
        a = np.array([[1, x]], dtype=dtype)
        b = np.array([[-(x * y)] * k, [y] * k], dtype=dtype)
        _assert_same_bits(T.matmul(a, b), np.zeros((1, k), dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_signed_zeros_infinities_and_nan(self, dtype, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(6, 10)).astype(dtype)
        b = rng.normal(size=(10, k)).astype(dtype)
        a[0] = -0.0                      # every product -0.0 or +0.0: sums to +0.0
        b[:, 0] = np.abs(b[:, 0])
        a[1, 3] = np.inf                 # inf + finite terms
        a[2, 4], a[2, 6] = np.inf, -np.inf   # inf - inf = nan
        a[3, 0] = np.nan
        b[7] = 0.0                       # inf * 0 = nan only in row 4
        a[4, 7] = np.inf
        with np.errstate(invalid="ignore"):
            got, want = T.matmul(a, b), matmul_triple_loop(a, b)
        assert not np.signbit(got[0]).any()
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_left_operand(self, dtype):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(20, 24)).astype(dtype)
        b = rng.normal(size=(12, 9)).astype(dtype)
        unaligned = np.frombuffer(b"\0" + base[:7, :12].tobytes(), dtype, 84, 1).reshape(7, 12)
        for a in (base[::2, ::2], base[:12, :12].T, np.asfortranarray(base[:7, :12]),
                  base[:7, :12][::-1, ::-1], unaligned):
            assert not (a.flags.c_contiguous and a.flags.aligned)
            _assert_same_bits(T.matmul(a, b), matmul_triple_loop(a, b))
        # right operands too: a W^T view as linear passes it, a slice, Fortran
        # order, reversed axes, and a strided single column (the k = 1 path)
        a, wide = base[:7, :12], rng.normal(size=(24, 18)).astype(dtype)
        for b in (base[:9, :12].T, wide[::2, ::2], np.asfortranarray(wide[:12, :5]),
                  wide[:12, :9][::-1, ::-1], wide[::2, 3:4]):
            assert not b.flags.c_contiguous
            _assert_same_bits(T.matmul(a, b), matmul_triple_loop(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_dtype_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(np.zeros((2, 2), dtype=np.float32), np.zeros((2, 2)))


class TestMatmulRowBlock(TestMatmul):
    """Every ``TestMatmul`` contract again on the row-block fallback kernel."""

    @pytest.fixture(autouse=True, scope="class")
    def _row_block_kernel(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_kernel", T._rowblock)
            yield

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("k", [1, 5])
    def test_several_row_blocks(self, monkeypatch, dtype, s, k):
        # 60 products per block: 7 rows of 4 x 2 (k = 1 runs doubled) or 3 rows
        # of 4 x 5, so 10 rows end in a short block either way
        monkeypatch.setattr(T, "_BLOCK_PRODUCTS", 60)
        r, c = 10, 4
        rows = T._BLOCK_PRODUCTS // (c * max(k, 2))
        assert 1 < rows < r and r % rows
        rng = np.random.default_rng(s * 10 + k)
        a = (rng.normal(size=(s, r, c)) * 10.0 ** rng.integers(-4, 5, size=c)).astype(dtype)
        b = rng.normal(size=(s, c, k)).astype(dtype)
        _assert_same_bits(T.batched_matmul(a, b), _slices_by_matmul(a, b))


def _fused_kernel(a, b):
    """out[i, :] += a[i, j] * b[j, :] in order, rounding each exact a*b + out once, as an FMA.

    At float32 the rounding goes through float64, which can differ from a
    true FMA in rare double-rounding cases.
    """
    exact = np.vectorize(lambda v: Fraction(float(v)), otypes=[object])
    out = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for j in range(a.shape[1]):
        fused = exact(out) + exact(a[:, j : j + 1]) * exact(b[j : j + 1])
        out = np.vectorize(float)(fused).astype(a.dtype)
    return out


def _pairwise_kernel(a, b):
    # numpy sums a contiguous axis with 8 partial sums, then pairwise
    prods = np.ascontiguousarray((a[:, :, None] * b).transpose(0, 2, 1))
    return np.add.reduce(prods, axis=-1)


def _first_product_start_kernel(a, b):
    # in index order, but starting from the first product instead of 0
    return np.add.accumulate(a[:, :, None] * b, axis=1)[:, -1]


def _per_slice(kernel):
    """A stacked kernel running the 2-d ``kernel`` on each slice."""
    return lambda a, b: np.stack([kernel(x, y) for x, y in zip(a, b)])


class TestMatmulProbe:
    def test_accepts_the_triple_loop(self):
        assert T._sums_in_order(_per_slice(matmul_triple_loop))

    def test_selection_follows_probe(self):
        assert T._kernel is (T._einsum if T._sums_in_order(T._einsum) else T._rowblock)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("standin", [_fused_kernel, _pairwise_kernel,
                                         _first_product_start_kernel])
    def test_rejects_non_sequential_kernel(self, dtype, standin):
        def kernel(a, b):
            return (_per_slice(standin) if a.dtype == dtype else T._rowblock)(a, b)

        assert not T._sums_in_order(kernel)


def _slices_by_matmul(a, b):
    """Both references for batched_matmul: one package matmul and one
    triple loop per slice, which must agree with each other first."""
    out = np.empty((*a.shape[:2], b.shape[2]), dtype=a.dtype)
    loop = out.copy()
    for s in range(len(a)):
        out[s], loop[s] = T.matmul(a[s], b[s]), matmul_triple_loop(a[s], b[s])
    _assert_same_bits(out, loop)
    return out


class TestBatchedMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [0, 1, 2, 5])
    @pytest.mark.parametrize("shape", [(4, 9, 6), (1, 12, 7), (3, 8, 1), (1, 33, 1), (2, 1, 3),
                                       (0, 5, 3), (4, 0, 3), (3, 5, 0)])
    def test_each_slice_is_its_matmul(self, dtype, s, shape):
        r, c, k = shape
        rng = np.random.default_rng(s * 1000 + r * 100 + c * 10 + k)
        a = (rng.normal(size=(s, r, c)) * 10.0 ** rng.integers(-4, 5, size=c)).astype(dtype)
        b = rng.normal(size=(s, c, k)).astype(dtype)
        _assert_same_bits(T.batched_matmul(a, b), _slices_by_matmul(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_signed_zeros_infinities_and_nan(self, dtype, k):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(2, 6, 10)).astype(dtype)
        b = rng.normal(size=(2, 10, k)).astype(dtype)
        a[0, 0] = -0.0                   # every product -0.0 or +0.0: sums to +0.0
        b[0, :, 0] = np.abs(b[0, :, 0])
        a[1, 1, 3] = np.inf              # inf + finite terms
        a[1, 2, 4], a[1, 2, 6] = np.inf, -np.inf   # inf - inf = nan
        a[0, 3, 0] = np.nan
        b[1, 7] = 0.0                    # inf * 0 = nan only in slice 1, row 4
        a[1, 4, 7] = np.inf
        with np.errstate(invalid="ignore"):
            got, want = T.batched_matmul(a, b), _slices_by_matmul(a, b)
        assert not np.signbit(got[0, 0]).any()
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_view_operands(self, dtype):
        # W^T views as linear passes them, a transposed left operand, a solo x
        # broadcast to every slice, and a strided single column (the k = 1 path)
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(3, 7, 12)).astype(dtype), rng.normal(size=(3, 9, 12)).astype(dtype)
        for a, b in ((x, w.transpose(0, 2, 1)), (x.transpose(0, 2, 1)[:, :7, :], x[:, :, :5]),
                     (x[:, ::2, ::-1], w[:, ::3, ::-1].transpose(0, 2, 1)),
                     (np.broadcast_to(x[0], x.shape), w.transpose(0, 2, 1)),
                     (x, w.transpose(0, 2, 1)[:, :, 4:5])):
            assert not (a.flags.c_contiguous and b.flags.c_contiguous)
            _assert_same_bits(T.batched_matmul(a, b), _slices_by_matmul(a, b))

    @pytest.mark.parametrize("kernel", ["_einsum", "_rowblock"])
    def test_either_kernel_gives_the_same_bytes(self, monkeypatch, kernel):
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            for k in (1, 4):
                a = rng.normal(size=(5, 3, 11)).astype(dtype)
                b = rng.normal(size=(5, k, 11)).astype(dtype).transpose(0, 2, 1)
                with monkeypatch.context() as mp:
                    mp.setattr(T, "_kernel", getattr(T, kernel))
                    got = T.batched_matmul(a, b)
                _assert_same_bits(got, _slices_by_matmul(a, b))

    @pytest.mark.parametrize("a, b", [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (2, 5, 2)),
                                      ((3, 4), (4, 2)), ((2, 2, 3, 4), (2, 4, 2))])
    def test_shape_mismatch(self, a, b):
        with pytest.raises(DimensionError):
            T.batched_matmul(np.zeros(a), np.zeros(b))

    def test_dtype_mismatch(self):
        with pytest.raises(DimensionError):
            T.batched_matmul(np.zeros((2, 2, 2), dtype=np.float32), np.zeros((2, 2, 2)))

    def test_linear_still_rejects_a_three_dimensional_solo_x(self):
        tape = ag.Tape()
        x = tape.const(np.ones((2, 2, 3)))
        for w in (tape.const(np.ones((4, 3))), tape.const(np.ones((5, 4, 3)), stacked=True)):
            with pytest.raises(DimensionError):
                ag.linear(x, w)


class TestTiledCopy:
    """Strided right operands are copied into C order tile by tile."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 7, 192])
    @pytest.mark.parametrize("k", [T._TILE - 1, T._TILE, T._TILE + 1, 2 * T._TILE + 3, 768])
    def test_w_transpose_views_across_tile_edges(self, dtype, c, k):
        rng = np.random.default_rng(c * 1000 + k)
        a = (rng.normal(size=(2, 2, c)) * 10.0 ** rng.integers(-4, 5, size=c)).astype(dtype)
        b = rng.normal(size=(2, k, c)).astype(dtype).transpose(0, 2, 1)
        # numpy ignores the stride of a size-1 axis: with c = 1 the view is
        # C order and is used as it is, every other case runs the tile loop
        assert b.flags.c_contiguous == (c == 1)
        _assert_same_bits(T.batched_matmul(a, b), _slices_by_matmul(a, b))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_stride_view(self, dtype):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 9)).astype(dtype)
        b = rng.normal(size=(2, 2 * T._TILE + 3, 9)).astype(dtype)[:, ::-1, ::-1].transpose(0, 2, 1)
        assert b.strides[1] < 0 and b.strides[2] < 0 and not b.flags.c_contiguous
        _assert_same_bits(T.batched_matmul(a, b), _slices_by_matmul(a, b))


def _neighbours(v: float, steps: int = 64) -> list[float]:
    """v and its 2 * steps nearest doubles, with the negations of all of them."""
    out, up, down = [v], v, v
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out + [-u for u in out]


class TestNdtr:
    """``tensor.ndtr`` is SciPy's Cephes ``ndtr`` bit for bit, and warns of nothing."""

    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(2033)
        tiny = np.finfo(np.float64).smallest_subnormal
        f32 = rng.integers(0, 2**32, 20_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
        edges = [np.sqrt(2.0), 8 * np.sqrt(2.0), np.sqrt(2 * T._MAXLOG), 0.0, tiny, 1e-310, 1e300]
        x = np.concatenate([
            np.array([v for e in edges for v in _neighbours(e)] + [np.inf, -np.inf, np.nan]),
            rng.normal(0.0, 0.5, 20_000), rng.normal(0.0, 3.0, 20_000),
            rng.normal(0.0, 10.0, 2_000).astype(np.float32).astype(np.float64),
            f32[~np.isnan(f32)].astype(np.float64)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.ndtr(x)
        _assert_same_bits(got, special.ndtr(x))

    @pytest.mark.parametrize("shape", [(), (0,), (3, 1, 2), (2, 40_000)])
    def test_keeps_shape(self, shape):
        x = np.random.default_rng(5).normal(0.0, 2.0, shape)
        _assert_same_bits(T.ndtr(x), special.ndtr(x))


def test_kernels_independent_of_cpu_dispatch():
    assert_passes_without_cpu_dispatch(__file__)


class TestElementwise:
    def test_hadamard_ones_identity(self):
        a = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(T.hadamard(a, np.ones(3)), a)

    def test_hadamard_hand(self):
        np.testing.assert_array_equal(
            T.hadamard(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])),
            [4.0, 10.0, 18.0])

    def test_hadamard_zeros(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.hadamard(a, np.zeros_like(a)), np.zeros_like(a))

    def test_add_hand(self):
        np.testing.assert_array_equal(
            T.add(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [4.0, 6.0])

    def test_add_zero_identity(self):
        a = np.array([0.1, -0.7])
        np.testing.assert_array_equal(T.add(a, np.zeros(2)), a)

    def test_scale_one_identity(self):
        a = np.array([2.0, -3.0])
        np.testing.assert_array_equal(T.scale(a, 1.0), a)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionError):
            T.hadamard(np.zeros((2, 2)), np.zeros(4))

    @pytest.mark.parametrize("a, v", [(np.zeros((2, 3)), np.zeros(2)),
                                      (np.zeros((2, 3)), np.zeros((1, 3))),
                                      (np.zeros(()), np.zeros(1))])
    def test_add_row_needs_a_vector_of_the_last_axis_width(self, a, v):
        message = f"add_row: {a.shape} incompatible with {v.shape}"
        with pytest.raises(DimensionError, match=re.escape(message)):
            T.add_row(a, v)

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_commutativity(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=n), rng.normal(size=n)
        np.testing.assert_array_equal(T.hadamard(a, b), T.hadamard(b, a))
        np.testing.assert_array_equal(T.add(a, b), T.add(b, a))


class TestRoll:
    def test_zero_shift_identity(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(T.roll(y, 0), y)

    def test_shift_one(self):
        # out[i] = y[(i + 1) % d]
        np.testing.assert_array_equal(
            T.roll(np.array([1.0, 2.0, 3.0, 4.0]), 1), [2.0, 3.0, 4.0, 1.0])

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_and_period(self, d, data):
        r = data.draw(st.integers(-2 * d, 2 * d))
        rng = np.random.default_rng(d * 1000 + r + 2 * d)
        y = rng.normal(size=d)
        np.testing.assert_array_equal(T.roll(T.roll(y, r), -r), y)
        np.testing.assert_array_equal(T.roll(y, r), T.roll(y, r % d))

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
    def test_empty_last_axis_rejected(self, shape):
        with pytest.raises(DimensionError, match="roll needs a non-empty last axis"):
            T.roll(np.zeros(shape), 1)

    def test_leading_axes_untouched(self):
        y = np.arange(12.0).reshape(3, 4)
        out = T.roll(y, 1)
        for i in range(3):
            np.testing.assert_array_equal(out[i], T.roll(y[i], 1))


class TestReductions:
    def test_sum_hand(self):
        assert T.reduce_sum(np.array([1.0, 2.0, 3.0])) == 6.0

    @given(st.sampled_from([np.float32, np.float64]),
           st.lists(st.integers(0, 20), min_size=1, max_size=3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_sum_matches_sequential_oracle(self, dtype, shape, data):
        # extents 0 and 1, signed zeros, infinities and NaN included; an
        # outer-axis add.reduce would sum pairwise and differ, e.g. on (18, 1)
        special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
        moderate = st.floats(-10, 10, width=32)      # sums that round
        finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
        a = data.draw(hnp.arrays(dtype, shape, elements=st.one_of(special, moderate, finite)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = T.reduce_sum(a)
            want = reduce_sum_sequential(a)
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()

    def test_all_negative_zero_column_sums_to_positive_zero(self):
        out = T.reduce_sum(np.full((3, 2), -0.0))
        assert not np.signbit(out)
