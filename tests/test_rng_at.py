"""Indexed draws: ``next_u64`` and ``Rng.at`` give the same draws."""

import numpy as np
from hypothesis import given, settings, strategies as st

from quadenhance.rng import Rng


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**63), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_next_u64_is_draws_at_the_counter(seed, counter, n):
    """n = 0-3, the sizes the check instance builders draw, counter near
    2**63: draws counter .. counter+n-1 as the same uint64 bytes and shape."""
    r = Rng(seed, counter=counter)
    got = r.next_u64(n)
    want = Rng(seed).at(np.arange(counter, counter + n, dtype=np.uint64))
    assert got.dtype == want.dtype == np.uint64
    assert got.shape == want.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert r.counter == counter + n


def test_at_leaves_counter_and_indices_alone():
    r = Rng(3, counter=5)
    idx = np.array([9, 0, 9, 2**64 - 1], dtype=np.uint64)
    draws = r.at(idx)
    assert r.counter == 5
    np.testing.assert_array_equal(idx, [9, 0, 9, 2**64 - 1])
    assert draws[0] == draws[2]
    np.testing.assert_array_equal(draws[[1, 0]], Rng(3).next_u64(10)[[0, 9]])
