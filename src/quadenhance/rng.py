"""Seedable, splittable, counter-based random number generator.

The platform RNG is deliberately not used anywhere in this package: every
random draw comes from the fixed integer recipe below, so a seed produces
the same stream on any machine and the stream can be re-created from
(seed, counter) alone.

The core is the SplitMix64 output function.  Draw ``i`` of stream ``s`` is

    finalize((s + (i + 1) * GOLDEN) mod 2**64)

which is stateless in the counter and therefore trivially vectorizable.
``split`` derives a decorrelated child stream from a parent seed and an
integer tag, so nested components (per-layer init, per-epoch shuffles)
get independent streams without coordinating counters.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SPLIT_SALT = 0x5851F42D4C957F2D
# built once: a np.uint64 made per call costs next_u64 ~1 us
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
_ONE_U64 = np.uint64(1)

_TWO_NEG_53 = 2.0 ** -53


def _finalize(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array, which it returns.

    uint64 array arithmetic wraps mod 2**64 without a warning (only numpy
    scalars warn on overflow), so no ``errstate`` is needed.
    """
    t = np.right_shift(z, _S30)
    z ^= t
    z *= _MIX1_U64
    z ^= np.right_shift(z, _S27, out=t)
    z *= _MIX2_U64
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _finalize_int(z: int) -> int:
    """The same finalizer on one Python int in [0, 2**64)."""
    z ^= z >> 30
    z = z * _MIX1 & _MASK
    z ^= z >> 27
    z = z * _MIX2 & _MASK
    return z ^ z >> 31


def _draws(seed, z: np.ndarray) -> np.ndarray:
    """Draws i for z = i + 1 (overwritten and returned) of stream ``seed``, or of seed[j] at z[j]."""
    z *= _GOLDEN_U64
    z += seed
    return _finalize(z)


def _unit(raw: np.ndarray, low: float, high: float) -> np.ndarray:
    """Raw draws as doubles uniform in [low, high), 53-bit resolution."""
    return low + (high - low) * ((raw >> _S11).astype(np.float64) * _TWO_NEG_53)


def split_seeds(seeds: np.ndarray, tag: int) -> np.ndarray:
    """``Rng(s).split(tag).seed`` for each s of a uint64 array, in a new array."""
    tagged = _finalize_int((tag + _SPLIT_SALT) & _MASK)
    return _finalize(seeds + np.uint64(_GOLDEN * (tagged | 1) & _MASK))


def stream_draws(seeds: np.ndarray, counts) -> np.ndarray:
    """``Rng(s).next_u64(c)`` for each (s, c) of ``seeds`` and ``counts``, concatenated."""
    ends = np.cumsum(counts)
    z = np.arange(1, ends[-1] + 1, dtype=np.int64) - np.repeat(ends - counts, counts)
    return _draws(np.repeat(seeds, counts), z.view(np.uint64))


def stream_uniform(seeds: np.ndarray, counts, low: float, high: float) -> list[np.ndarray]:
    """``Rng(s).uniform(c, low, high)`` for each (s, c), drawn in one vectorised pass."""
    flat, ends = _unit(stream_draws(seeds, counts), low, high), np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


class Rng:
    """Counter-based generator; all draws are pure in (seed, counter)."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = np.uint64(seed & _MASK)
        self.counter = int(counter)

    def split(self, tag: int) -> "Rng":
        """Derive an independent child stream identified by an integer tag."""
        tagged = _finalize_int((tag + _SPLIT_SALT) & _MASK)
        return Rng(_finalize_int((int(self.seed) + _GOLDEN * (tagged | 1)) & _MASK))

    def at(self, indices: np.ndarray) -> np.ndarray:
        """Draw ``i`` of this stream for each ``i`` of a uint64 array, in a new
        array; the counter does not move."""
        return _draws(self.seed, indices + _ONE_U64)

    def next_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws, advancing the counter."""
        c = self.counter
        self.counter += n
        # an index array for ``at`` would cost a 147k-draw init ~0.4 ms more
        return _draws(self.seed, np.arange(c + 1, c + n + 1, dtype=np.uint64))

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` doubles uniform in [low, high), 53-bit resolution."""
        return _unit(self.next_u64(n), low, high)

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        # u1 in (0, 1] so the log is always finite
        u1 = ((self.next_u64(m) >> _S11).astype(np.float64) + 1.0) * _TWO_NEG_53
        u2 = (self.next_u64(m) >> _S11).astype(np.float64) * _TWO_NEG_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), driven by this stream."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        # draw t picks the swap partner of position i = n-1-t from [0, i]
        js = (self.next_u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
