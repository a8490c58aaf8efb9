"""Tail-probability study of square versus cross feature products.

For independent standard normals x1, x2 the square product x1^2 exceeds a
level v with probability erfc(sqrt(v/2)) (closed form), while the
cross product x1*x2 follows the product-normal law with density
K0(|z|)/pi, whose tail is summed here by the trapezoid rule.  The
Monte Carlo estimator draws pairs from the package RNG so runs are
reproducible from the seed alone.

The heavy square tails versus thin cross tails are the numerical reason
self-coupling (shift 0) is excluded from the quadratic enhancer by
default.

The cross tail.  Integrating K0(t) = integral_0^inf exp(-t cosh u) du
(DLMF 10.32.9) over t > v, with cosh u = 1 + 2 sinh^2(u/2), gives
P(|x1 x2| > v) = (2/pi) e^-v integral_0^inf g, g(u) = exp(-2v sinh^2(u/2))
/ cosh u.  g is even and analytic in a strip, where the trapezoid rule
converges geometrically (Trefethen & Weideman, SIAM Review 2014), so
``cross_tail_integral`` sums it with step h = min(1/16, 1/(2 sqrt(v))) up
to the first term below 2^-60, by ``math.fsum`` over libm calls (numpy's
SIMD dispatch cannot reach it).  The sqrt(v) step keeps the error at
rounding level as g narrows (a fixed 1/16 loses 1.5e-11 at v = 200), and
e^-v stays outside the sum so that no term overflows.  Against 40-digit
values it is within 3e-16 relative for v in [1e-12, 700].

Memory is O(chunk), not O(samples): samples are drawn and counted
``_CHUNK`` at a time, and since each sample depends only on (seed, index)
the chunk size cannot change a result.

Only samples that can hit are finished.  |fl(cos)|, |fl(sin)| <= 1 and
rounding is monotone, so fl(x1*x1) and |fl(x1*x2)| never exceed fl(r*r):
a sample with fl(r*r) <= min(v) hits nothing, and its angle is never drawn
(at v = 4, e^-2 ~ 13.5% of samples remain).  Most go as integers: with
k = raw >> 11, u1 = (k + 1) 2^-53, and fl(r*r) > v needs u1 < e^(-v/2) up
to roundings of ~1e-15, so only k < ceil(e^(-v/2) (1 + 2^-20) 2^53) get the
log, sqrt and exact test; the sift compares the raw draws with that bound
shifted left by 11, so only the kept draws are shifted.  A 2^16-sample
chunk, its draws finalized in place, peaks at 1.5 MB under tracemalloc.  On
a 2-vCPU Xeon, 2M samples at v = 4, 8, 16 took 30-41 ms (best of 15;
medians 38-44 ms) at 2^16, 31-46 ms at 2^14, 56-60 ms at 2^12 and 2^13, and
56 ms at 10^6 (21 MB).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng, _draws

_CHUNK = 1 << 16
_TWO_NEG_53 = 2.0 ** -53
_TWO_NEG_60 = 2.0 ** -60
_S11, _ONE = np.uint64(11), np.uint64(1)


def square_tail_analytic(v: float) -> float:
    """P(x^2 > v) = erfc(sqrt(v/2)) for x ~ N(0, 1), with no cancellation
    against 1 as the tail shrinks."""
    return math.erfc(math.sqrt(0.5 * v))


def cross_tail_integral(v: float) -> float:
    """P(|x1 x2| > v) for iid standard normals: the trapezoid sum derived above."""
    scale = math.exp(-v)
    if scale == 0.0:        # v > ~745: the tail is below the smallest double
        return 0.0
    h = 0.5 / max(8.0, math.sqrt(v))
    terms, k = [0.5], 1
    while terms[-1] >= _TWO_NEG_60:
        s = math.sinh(0.5 * k * h)
        terms.append(math.exp(-2.0 * s * (v * s)) / math.cosh(k * h))
        k += 1
    return 2.0 / math.pi * h * math.fsum(terms) * scale


@dataclass(frozen=True)
class TailRow:
    v: float
    samples: int
    square_hits: int
    cross_hits: int
    square_analytic: float
    cross_integral: float

    @property
    def square_mc(self) -> float:
        return self.square_hits / self.samples

    @property
    def cross_mc(self) -> float:
        return self.cross_hits / self.samples

    @property
    def square_se(self) -> float:
        p = self.square_mc
        return float(np.sqrt(p * (1.0 - p) / self.samples))

    @property
    def cross_se(self) -> float:
        p = self.cross_mc
        return float(np.sqrt(p * (1.0 - p) / self.samples))


def _candidate_pairs(seed: int, start: int, count: int, v_min: float):
    """The samples of [start, start+count) that can exceed ``v_min``: their
    positions in the range and their normal pairs (x1, x2).

    Sample j is the Box-Muller pair of raw draws 2j and 2j+1, so results
    depend only on (seed, j), never on how the total is chunked.
    """
    rng = Rng(seed)
    raw = _draws(rng.seed, np.arange(2 * start + 1, 2 * (start + count), 2, dtype=np.uint64))
    bound = math.ceil(math.exp(-0.5 * max(v_min, 0.0)) * (1.0 + 2.0 ** -20) * 2.0 ** 53)
    # raw >> 11 < bound exactly when raw < bound << 11; every draw passes from 2^53
    keep = np.flatnonzero(raw < np.uint64(bound << 11)) if bound < 2 ** 53 else np.arange(count)
    u1 = ((raw[keep] >> _S11).astype(np.float64) + 1.0) * _TWO_NEG_53
    radius = np.sqrt(-2.0 * np.log(u1))
    hit = radius * radius > v_min
    keep, radius = keep[hit], radius[hit]
    u2 = (rng.at(2 * (start + keep).astype(np.uint64) + _ONE) >> _S11).astype(np.float64) * _TWO_NEG_53
    angle = 2.0 * np.pi * u2
    return keep, radius * np.cos(angle), radius * np.sin(angle)


def run_montecarlo(v_list, samples: int, seed: int) -> list[TailRow]:
    """Estimate P(x1^2 > v) and P(|x1 x2| > v) for each v by simulation."""
    v_arr = np.asarray(sorted(float(v) for v in v_list))
    if not len(v_arr):
        raise ValueError("run_montecarlo needs at least one threshold")
    sq_hits = np.zeros(len(v_arr), dtype=np.int64)
    cr_hits = np.zeros(len(v_arr), dtype=np.int64)
    done = 0
    while done < samples:
        m = min(_CHUNK, int(samples) - done)
        _, x1, x2 = _candidate_pairs(seed, done, m, v_arr[0])
        sq = x1 * x1
        cr = np.abs(x1 * x2)
        for i, v in enumerate(v_arr):
            sq_hits[i] += int(np.count_nonzero(sq > v))
            cr_hits[i] += int(np.count_nonzero(cr > v))
        done += m
    return [TailRow(v=float(v), samples=int(samples),
                    square_hits=int(sq_hits[i]), cross_hits=int(cr_hits[i]),
                    square_analytic=square_tail_analytic(float(v)),
                    cross_integral=cross_tail_integral(float(v)))
            for i, v in enumerate(v_arr)]


def rows_to_csv(rows: list[TailRow]) -> str:
    buf = io.StringIO()
    buf.write("v,samples,square_mc,square_analytic,square_se,"
              "cross_mc,cross_integral,cross_se\n")
    for r in rows:
        buf.write(f"{r.v:.10g},{r.samples},{r.square_mc:.10e},{r.square_analytic:.10e},"
                  f"{r.square_se:.10e},{r.cross_mc:.10e},{r.cross_integral:.10e},"
                  f"{r.cross_se:.10e}\n")
    return buf.getvalue()


def format_table(rows: list[TailRow]) -> str:
    # sq/cross: how many times heavier the analytic square tail is than the cross tail
    lines = [f"{'v':>6} {'P(x^2>v) mc':>14} {'analytic':>13} "
             f"{'P(|x1x2|>v) mc':>16} {'integral':>13} {'sq/cross':>10}"]
    for r in rows:
        if r.cross_integral:
            ratio = r.square_analytic / r.cross_integral
            shown = f"{ratio:,.1f}" if ratio < 1e6 else f"{ratio:.3e}"
        else:       # the cross tail is below the smallest double
            shown = "n/a"
        lines.append(f"{r.v:>6.3g} {r.square_mc:>14.6e} {r.square_analytic:>13.6e} "
                     f"{r.cross_mc:>16.6e} {r.cross_integral:>13.6e} {shown:>10}")
    return "\n".join(lines)
