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

``cross_tail_integral`` imports ``scipy.integrate`` on first use: it pulls
in ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg`` (~26 MB and
~0.17 s), which no other command needs.

Memory is O(chunk), not O(samples): samples are drawn and counted
``_CHUNK`` at a time, and since each sample depends only on (seed, index)
the chunk size cannot change a result.  At 2^14 samples a chunk's arrays
(raw draws, uniforms, the normal pair, squares, cross products) peak at
1.7 MB under tracemalloc, inside a 2 MB per-core L2.  On a 2-vCPU Xeon,
2M samples took ~180 ms at 2^13 and 2^14, ~190-220 ms at 2^15 and 2^16,
and ~310-360 ms at 10^6 (a 96 MB peak); 2^14 needs half the Python
iterations of 2^13.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy import special

from .rng import Rng

_CHUNK = 1 << 14
_TWO_NEG_53 = 2.0 ** -53


def _normal_pairs(seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal pairs for sample indices [start, start+count).

    Sample j consumes exactly the two raw draws at counters 2j and 2j+1
    (Box-Muller), so results depend only on (seed, j), never on how the
    total is chunked.
    """
    rng = Rng(seed, counter=2 * start)
    raw = rng.next_u64(2 * count)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG_53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def square_tail_analytic(v: float) -> float:
    """P(x^2 > v) = 2 * (1 - Phi(sqrt(v))) for x ~ N(0, 1)."""
    return float(2.0 * (1.0 - special.ndtr(np.sqrt(v))))


def cross_tail_integral(v: float) -> float:
    """P(|x1 x2| > v) for iid standard normals, via the product-normal density.

    The density of x1*x2 is K0(|z|)/pi, so the two-sided tail is
    (2/pi) * integral_v^inf K0(t) dt.
    """
    from scipy import integrate

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


def run_montecarlo(v_list, samples: int, seed: int) -> list[TailRow]:
    """Estimate P(x1^2 > v) and P(|x1 x2| > v) for each v by simulation."""
    v_arr = np.asarray(sorted(float(v) for v in v_list))
    sq_hits = np.zeros(len(v_arr), dtype=np.int64)
    cr_hits = np.zeros(len(v_arr), dtype=np.int64)
    done = 0
    while done < samples:
        m = min(_CHUNK, int(samples) - done)
        x1, x2 = _normal_pairs(seed, done, m)
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
