"""Indexed draws: ``next_u64``, ``Rng.at`` and the many-stream draws give
the same draws."""

import numpy as np
from hypothesis import given, settings, strategies as st

from quadenhance.rng import Rng, split_seeds, stream_draws, stream_uniform


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


@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 40)), min_size=1, max_size=8),
       st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)]))
@settings(max_examples=200, deadline=None)
def test_stream_draws_are_each_streams_own(pairs, bounds):
    """Many streams drawn in one pass give, stream by stream, the bytes of
    ``next_u64`` and ``uniform`` from counter 0; empty streams add nothing."""
    seeds = np.array([s for s, _ in pairs], dtype=np.uint64)
    counts = [c for _, c in pairs]
    want_raw = np.concatenate([Rng(s).next_u64(c) for s, c in pairs])
    got_raw = stream_draws(seeds, counts)
    assert (got_raw.dtype, got_raw.tobytes()) == (want_raw.dtype, want_raw.tobytes())
    got = stream_uniform(seeds, counts, *bounds)
    assert len(got) == len(pairs)
    for (s, c), piece in zip(pairs, got):
        want = Rng(s).uniform(c, *bounds)
        assert (piece.dtype, piece.tobytes()) == (want.dtype, want.tobytes())


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(-2**64, 2**65))
@settings(max_examples=200, deadline=None)
def test_split_seeds_match_split(seeds, tag):
    got = split_seeds(np.array(seeds, dtype=np.uint64), tag)
    assert got.dtype == np.uint64
    assert got.tolist() == [int(Rng(s).split(tag).seed) for s in seeds]
