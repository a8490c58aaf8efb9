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
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)

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


class Rng:
    """Counter-based generator; all draws are pure in (seed, counter)."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = np.uint64(seed & _MASK)
        self.counter = int(counter)

    def split(self, tag: int) -> "Rng":
        """Derive an independent child stream identified by an integer tag."""
        tagged = _finalize_int((tag + _SPLIT_SALT) & _MASK)
        return Rng(_finalize_int((int(self.seed) + _GOLDEN * (tagged | 1)) & _MASK))

    def next_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws, advancing the counter."""
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= _GOLDEN_U64
        z += self.seed
        return _finalize(z)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """``n`` doubles uniform in [low, high), 53-bit resolution."""
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
        return low + (high - low) * u

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        # u1 in (0, 1] so the log is always finite
        u1 = ((self.next_u64(m) >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG_53
        u2 = (self.next_u64(m) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), driven by this stream."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        draws = self.next_u64(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm
