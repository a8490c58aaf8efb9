"""The counter-based generator: determinism, splitting, distributions."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import fisher_yates_loop, splitmix_draws
from quadenhance.rng import Rng


def test_same_seed_same_stream():
    a = Rng(42).next_u64(100)
    b = Rng(42).next_u64(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).next_u64(64), Rng(2).next_u64(64))


def test_counter_is_stateless_index():
    """Draw boundaries must not matter: 3 + 2 draws == one draw of 5."""
    r = Rng(7)
    chunks = np.concatenate([r.next_u64(3), r.next_u64(2)])
    np.testing.assert_array_equal(chunks, Rng(7).next_u64(5))


@pytest.mark.parametrize("counter", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 5, 24581])
def test_bulk_draws_match_the_per_draw_reference(n, counter):
    """next_u64, uniform and normal give the bits and counter of draws made
    one at a time, for odd and even n up to a parameter-sized draw."""
    seed = 0xC0FFEE0123456789
    raw = splitmix_draws(seed, counter, n + 1)
    r = Rng(seed, counter)
    assert r.next_u64(n).tobytes() == raw[:n].tobytes()
    assert r.counter == counter + n
    r = Rng(seed, counter)
    want = [-2.0 + 5.0 * (float(int(v) >> 11) * 2.0 ** -53) for v in raw[:n]]
    assert r.uniform(n, -2.0, 3.0).tobytes() == np.array(want).tobytes()
    assert r.counter == counter + n
    # Box-Muller on the reference draws: u1 from the first m, u2 from the next m
    m = (n + 1) // 2
    u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[m : 2 * m] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius, angle = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    want = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    r = Rng(seed, counter)
    assert r.normal(n).tobytes() == want.tobytes()
    assert r.counter == counter + 2 * m


def test_split_decorrelates():
    parent = Rng(5)
    c1 = parent.split(0).next_u64(32)
    c2 = parent.split(1).next_u64(32)
    assert not np.array_equal(c1, c2)
    # splitting does not disturb the parent stream
    np.testing.assert_array_equal(Rng(5).next_u64(8), parent.next_u64(8))


def test_split_deterministic():
    assert Rng(5).split(3).seed == Rng(5).split(3).seed


@pytest.mark.parametrize("seed, tag, child", [
    (0, 0, 0x7284AB60FA03D0CE),
    (0, 1, 0xB90E35FF7BF4F1D5),
    (0, 2 ** 63, 0x624AF9CBAFABDC2E),
    (0, 2 ** 64 - 1, 0xF6D0437FFAEBC6AD),
    (0, -1, 0xF6D0437FFAEBC6AD),
    (0, 2 ** 64 + 5, 0x7D9CF3E3390F2E0A),
    (2 ** 64 - 1, 0, 0x9C4556E8A55BD63E),
    (2 ** 64 - 1, 1, 0xD9FC03398A9EE0BA),
    (2 ** 64 - 1, 2 ** 63, 0x781F81E522CBD764),
    (2 ** 64 - 1, 2 ** 64 - 1, 0x3F4B3B69C58C093E),
    (2 ** 64 - 1, -1, 0x3F4B3B69C58C093E),
    (2 ** 64 - 1, 2 ** 64 + 5, 0xE72E2946D9166660),
])
def test_split_seeds_are_pinned(seed, tag, child):
    # tags are taken mod 2**64; values recorded from the uint64-array finalizer
    got = Rng(seed).split(tag).seed
    assert isinstance(got, np.uint64)
    assert int(got) == child


def test_uniform_range():
    u = Rng(9).uniform(10_000, -2.0, 3.0)
    assert u.min() >= -2.0 and u.max() < 3.0


def test_normal_moments():
    z = Rng(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_odd_count():
    assert len(Rng(1).normal(7)) == 7


@given(st.integers(0, 2**31), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_permutation_is_permutation(seed, n):
    perm = Rng(seed).permutation(n)
    assert sorted(perm) == list(range(n))


@given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(0, 2**40))
@example(0, 0, 0)
@example(1, 1, 0)
@example(2**64 - 1, 2, 0)
@example(2**64 - 1, 3, 7)
@settings(max_examples=200, deadline=None)
def test_permutation_matches_the_loop_oracle(seed, n, counter):
    rng = Rng(seed, counter)
    perm = rng.permutation(n)
    assert perm.dtype == np.int64
    np.testing.assert_array_equal(perm, fisher_yates_loop(seed, n, counter))
    assert rng.counter == counter + max(n - 1, 0)
