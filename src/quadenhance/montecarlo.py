"""Tail-probability study of square versus cross feature products.

For independent standard normals x1, x2 the square product x1^2 exceeds a
level v with probability 2*(1 - Phi(sqrt(v))) (closed form), while the
cross product x1*x2 follows the product-normal law with density
K0(|z|)/pi, whose tail is obtained here by adaptive quadrature.  The
Monte Carlo estimator draws pairs from the package RNG so runs are
reproducible from the seed alone.

The heavy square tails versus thin cross tails are the numerical reason
self-coupling (shift 0) is excluded from the quadratic enhancer by
default.

SciPy loads on first use, not at import.  ``square_tail_analytic`` and
``cross_tail_integral`` import ``scipy.special`` (~26 MB and ~0.25 s,
shared with ``autograd.gelu``), and ``cross_tail_integral`` also imports
``scipy.integrate``, which pulls in ``scipy.optimize``, ``scipy.sparse``
and ``scipy.linalg`` (~26 MB and ~0.17 s) that no other command needs.

Memory is O(chunk), not O(samples): samples are drawn and counted
``_CHUNK`` at a time, and since each sample depends only on (seed, index)
the chunk size cannot change a result.

Only samples that can hit are finished.  The radius r = sqrt(-2 log u1)
is computed for the whole chunk; |fl(cos)|, |fl(sin)| <= 1 and rounding is
monotone, so fl(x1*x1) and |fl(x1*x2)| never exceed fl(r*r), and a sample
with fl(r*r) <= min(v) hits nothing: its angle is never drawn, nor its cos
and sin taken (at v = 4, e^-2 ~ 13.5% of samples remain).  At 2^14
samples a chunk peaks at 0.64 MB under tracemalloc.  On a 2-vCPU Xeon,
2M samples at v = 4, 8, 16 took ~40-50 ms at 2^14 and 2^15, ~55-70 ms at
2^16 and 10^6 (a 38 MB peak) and ~60-85 ms at 2^12 and 2^13.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .rng import Rng

_CHUNK = 1 << 14
_TWO_NEG_53 = 2.0 ** -53
_S11, _ONE = np.uint64(11), np.uint64(1)


def square_tail_analytic(v: float) -> float:
    """P(x^2 > v) = 2 * (1 - Phi(sqrt(v))) for x ~ N(0, 1)."""
    from scipy import special

    return float(2.0 * (1.0 - special.ndtr(np.sqrt(v))))


def cross_tail_integral(v: float) -> float:
    """P(|x1 x2| > v) for iid standard normals, via the product-normal density.

    The density of x1*x2 is K0(|z|)/pi, so the two-sided tail is
    (2/pi) * integral_v^inf K0(t) dt.
    """
    from scipy import integrate, special

    val, _err = integrate.quad(lambda t: special.k0(t), v, np.inf, limit=200)
    return float(2.0 * val / np.pi)


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
    first = np.arange(2 * start, 2 * (start + count), 2, dtype=np.uint64)
    u1 = ((rng.at(first) >> _S11).astype(np.float64) + 1.0) * _TWO_NEG_53
    radius = np.sqrt(-2.0 * np.log(u1))
    keep = np.flatnonzero(radius * radius > v_min)
    radius = radius[keep]
    u2 = (rng.at(first[keep] + _ONE) >> _S11).astype(np.float64) * _TWO_NEG_53
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
    lines = [f"{'v':>6} {'P(x^2>v) mc':>14} {'analytic':>12} "
             f"{'P(|x1x2|>v) mc':>16} {'integral':>12} {'sq/cross':>10}"]
    for r in rows:
        ratio = r.square_analytic / max(r.cross_integral, 1e-300)
        lines.append(f"{r.v:>6.3g} {r.square_mc:>14.6e} {r.square_analytic:>12.6e} "
                     f"{r.cross_mc:>16.6e} {r.cross_integral:>12.6e} {ratio:>10,.1f}")
    return "\n".join(lines)
