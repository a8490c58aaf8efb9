"""Tail-probability estimator and its two analytic cross-checks."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import special

import quadenhance.montecarlo as mc
from quadenhance.montecarlo import (TailRow, cross_tail_integral, format_table, rows_to_csv,
                                    run_montecarlo, square_tail_analytic)

from cpu_dispatch import assert_passes_without_cpu_dispatch
from oracles import normal_pairs


def test_square_tail_closed_form():
    # P(x^2 > v) = P(|x| > sqrt(v))
    for v in (1.0, 4.0, 9.0):
        direct = 2 * (1 - special.ndtr(np.sqrt(v)))
        assert abs(square_tail_analytic(v) - direct) < 1e-15


def test_square_tail_at_sixteen():
    assert abs(square_tail_analytic(16.0) / 6.334248e-05 - 1) < 1e-4


# P(x^2 > v) = erfc(sqrt(v/2)) to 40 digits, from mpmath at 60 digits
SQUARE_TAIL_40_DIGITS = {
    1e-12: "0.9999992021154391972676329043083323750839",
    1e-6: "0.9992021155721778748488722375455542035434",
    1.0: "0.3173105078629141028295349087359241550442",
    4.0: "0.04550026389635841440056527433306687494355",
    16.0: "6.334248366623984250754151344430259688767e-5",
    40.0: "2.539628589470864970653362077014451130605e-10",
    69.0: "9.846344031425318686396421624426272306139e-17",
    100.0: "1.523970604832105213194668650319861672701e-23",
    400.0: "5.507248237212467390151245561714930665615e-89",
    700.0: "2.990226975124620336911911626697340555697e-154",
}


@pytest.mark.parametrize("v", sorted(SQUARE_TAIL_40_DIGITS))
def test_square_tail_against_40_digit_values(v):
    # (v + 4) ulps: erfc's condition number at sqrt(v/2), so the rounding
    # of sqrt(v/2) alone can use up the bound
    truth = float(SQUARE_TAIL_40_DIGITS[v])
    assert square_tail_analytic(v) == pytest.approx(truth, rel=(v + 4) * 2.0**-52, abs=0.0)


def test_cross_tail_normalizes():
    # the full two-sided integral is 1
    assert abs(cross_tail_integral(1e-12) - 1.0) < 1e-6


@pytest.mark.parametrize("v", np.geomspace(1e-6, 5.0, 31))
def test_cross_tail_against_closed_form(v):
    """The trapezoid sum against the closed form 1 - (2/pi) * integral_0^v K0,
    an oracle independent of the sum.

    Production does not use the closed form: its subtraction cancels as
    the tail shrinks.  At v = 8 it is 2.6e-9 off relative, enough to change
    the .10e digits of the Monte Carlo CSV; at v = 40 it returns 0.0 where
    the tail is 5.3e-19.  On [1e-6, 5] the two agreed within 4.1e-12.
    """
    closed = 1.0 - 2.0 / np.pi * special.iti0k0(v)[1]
    assert cross_tail_integral(v) == pytest.approx(closed, rel=1e-10, abs=0.0)


# P(|x1 x2| > v) to 40 digits, from mpmath as 1 - (2/pi) * integral_0^v K0
# with integral_0^v K0(t) dt = (pi v / 2) (K0(v) L_{-1}(v) + K1(v) L_0(v))
# (L: modified Struve), evaluated at 60 + v/2.3 digits so the subtraction
# leaves 40; for v = 1e-12 .. 40 a 40-digit mpmath quadrature of
# integral_0^inf exp(-v cosh u) / cosh u du agreed to 1e-36
CROSS_TAIL_40_DIGITS = {
    1e-12: "0.9999999999816991215594174660059906801718",
    1e-6: "0.9999904943487459697891210300244592851788",
    1.0: "0.2089936630046523274365750272963450090087",
    2.5: "0.03464642572957531463792508253067669483519",
    4.0: "0.006459625615770474050729149509524765965605",
    8.0: "8.838924759665938016367979874612453066104e-5",
    16.0: "2.164730221913457992007195221527477807487e-8",
    40.0: "5.279013045958213117543730602602414586016e-19",
    100.0: "2.949931694521613759518057228764888107775e-45",
    400.0: "7.628530923345030227176126941132158606566e-176",
    700.0: "2.970753817162679783016132230612156677215e-306",
}


@pytest.mark.parametrize("v", sorted(CROSS_TAIL_40_DIGITS))
def test_cross_tail_against_40_digit_values(v):
    # a few rounding errors of the sum and its scale, nothing of the rule
    truth = float(CROSS_TAIL_40_DIGITS[v])
    assert cross_tail_integral(v) == pytest.approx(truth, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("v", [1e3, 1e6])
def test_cross_tail_below_the_smallest_double_is_zero(v):
    assert cross_tail_integral(v) == 0.0


def test_cross_tail_against_variance_bound():
    # Chebyshev: P(|Z| > v) <= Var/v^2 = 1/v^2
    for v in (2.0, 4.0, 8.0):
        assert cross_tail_integral(v) < 1.0 / v ** 2


def test_estimates_near_truth():
    rows = run_montecarlo([1.0, 4.0], samples=400_000, seed=2)
    for r in rows:
        assert abs(r.square_mc - r.square_analytic) < 5 * max(r.square_se, 1e-6)
        assert abs(r.cross_mc - r.cross_integral) < 5 * max(r.cross_se, 1e-6)


def test_deterministic_given_seed():
    a = run_montecarlo([4.0], samples=100_000, seed=9)
    b = run_montecarlo([4.0], samples=100_000, seed=9)
    assert a[0].square_hits == b[0].square_hits
    assert a[0].cross_hits == b[0].cross_hits


def test_standard_error_formula():
    row = TailRow(v=4.0, samples=10_000, square_hits=450, cross_hits=70,
                  square_analytic=0.0455, cross_integral=6.46e-3)
    p = 0.045
    assert abs(row.square_se - np.sqrt(p * (1 - p) / 10_000)) < 1e-12


def test_csv_and_table():
    rows = run_montecarlo([4.0], samples=50_000, seed=1)
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0].startswith("v,samples,square_mc")
    assert len(csv.splitlines()) == 2
    assert "P(x^2>v)" in format_table(rows)


def test_table_ratio_column_keeps_its_width():
    # the ratio grows like e^(v/2): e notation above 1e6, and n/a once the
    # cross tail has underflowed to 0; both tails need a 3-digit exponent
    # from v = 450 (square 7.2e-100) and v = 800 (square 5.4e-176)
    lines = format_table(run_montecarlo([16.0, 100.0, 450.0, 800.0], 1000, 0)).splitlines()
    assert all(len(line) == len(lines[0]) for line in lines)
    assert all(line[-11] == " " for line in lines)
    ratios = [line[-10:].strip() for line in lines[1:]]
    assert ratios[0] == "2,926.1"
    assert re.fullmatch(r"\d\.\d{3}e\+\d\d", ratios[1])
    assert re.fullmatch(r"\d\.\d{3}e\+\d\d", ratios[2])
    assert ratios[3] == "n/a"


def test_ten_million_sample_run_within_three_sigma_of_oracles():
    """At N=1e7 every cell with p >= 1e-6 sits within 3 binomial standard
    errors of its analytic (square) or quadrature (cross) value."""
    rows = run_montecarlo([4.0, 8.0, 16.0], samples=10_000_000, seed=0)
    for r in rows:
        se_sq = np.sqrt(r.square_analytic * (1 - r.square_analytic) / r.samples)
        assert abs(r.square_mc - r.square_analytic) <= 3 * se_sq, f"square v={r.v}"
        if r.cross_integral >= 1e-6:
            se_cr = np.sqrt(r.cross_integral * (1 - r.cross_integral) / r.samples)
            assert abs(r.cross_mc - r.cross_integral) <= 3 * se_cr, f"cross v={r.v}"


def test_chunking_invariant():
    """Estimates must not depend on internal chunk boundaries."""
    rows_big = run_montecarlo([4.0], samples=150_000, seed=3)
    old = mc._CHUNK
    try:
        mc._CHUNK = 37_000
        rows_small = run_montecarlo([4.0], samples=150_000, seed=3)
    finally:
        mc._CHUNK = old
    assert rows_big[0].square_hits == rows_small[0].square_hits
    assert rows_big[0].cross_hits == rows_small[0].cross_hits


def test_chunking_invariant_single_chunk_against_many(monkeypatch):
    """One chunk holding every sample counts the same hits as many chunks."""
    monkeypatch.setattr(mc, "_CHUNK", 150_000)
    rows_one = run_montecarlo([1.0, 4.0], samples=150_000, seed=3)
    monkeypatch.setattr(mc, "_CHUNK", 4097)
    rows_many = run_montecarlo([1.0, 4.0], samples=150_000, seed=3)
    assert rows_one == rows_many


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5])
@pytest.mark.parametrize("start", [0, 11])
def test_normal_pairs_depend_only_on_seed_and_index(seed, start):
    """Pieces of any size concatenate to the bits of one call over the range.

    The sizes put different samples into the SIMD tails of log, cos and sin.
    """
    sizes = [1, 7, 8, 9, 4097, 16385]
    whole = normal_pairs(seed, start, sum(sizes))
    pieces, at = [], start
    for m in sizes:
        pieces.append(normal_pairs(seed, at, m))
        at += m
    for axis in (0, 1):
        joined = np.concatenate([p[axis] for p in pieces])
        assert joined.tobytes() == whole[axis].tobytes()


V_LISTS = {
    "tiny": (1e-12, 0.5),               # every sample survives the filter
    "huge": (1e3, 1e6),                 # no sample survives it
    "duplicated": (8.0, 4.0, 8.0, 4.0, 2.5),
}


@pytest.mark.parametrize("v_list", sorted(V_LISTS))
@pytest.mark.parametrize("seed,samples,chunk", [
    (0, 50_001, 16_384), (5, 20_000, 4097), (2**64 - 1, 16_385, 1000)])
def test_filtered_counts_equal_full_draw(monkeypatch, v_list, seed, samples, chunk):
    """Drawing angles only where fl(r*r) > min(v) counts the same hits as
    drawing every pair; the chunk sizes start chunks at many offsets."""
    monkeypatch.setattr(mc, "_CHUNK", chunk)
    rows = run_montecarlo(V_LISTS[v_list], samples, seed)
    x1, x2 = normal_pairs(seed, 0, samples)
    sq, cr = x1 * x1, np.abs(x1 * x2)
    assert [r.v for r in rows] == sorted(V_LISTS[v_list])
    for r in rows:
        assert (r.square_hits, r.cross_hits) == (np.count_nonzero(sq > r.v),
                                                 np.count_nonzero(cr > r.v))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
@pytest.mark.parametrize("start,count", [(0, 16_384), (11, 4097), (2**40 + 3, 999)])
@pytest.mark.parametrize("v_min", [1e-12, 4.0, 9.0, 80.0, 700.0])
def test_candidates_keep_the_full_draw_bits(seed, start, count, v_min):
    """Each candidate has the reference's x1 and x2 bits at its index, and
    every sample left out exceeds v_min in neither product.  The integer
    prefilter passes every draw at 1e-12; at 80 and 700, exp(-v/2) 2**53 is
    below one draw step, so it passes k = 0 alone, where r*r = 106 ln 2 ~
    73.5 hits nothing."""
    keep, x1, x2 = mc._candidate_pairs(seed, start, count, v_min)
    ref1, ref2 = normal_pairs(seed, start, count)
    assert x1.tobytes() == ref1[keep].tobytes()
    assert x2.tobytes() == ref2[keep].tobytes()
    out = np.ones(count, dtype=bool)
    out[keep] = False
    assert not np.any(ref1[out] * ref1[out] > v_min)
    assert not np.any(np.abs(ref1[out] * ref2[out]) > v_min)


def test_empty_v_list_is_refused():
    with pytest.raises(ValueError, match="at least one threshold"):
        run_montecarlo([], 10, 0)


def test_montecarlo_independent_of_cpu_dispatch():
    # the filter runs log on the draws the integer prefilter keeps, and cos
    # and sin on the samples whose fl(r*r) passes: gathered subsets all
    assert_passes_without_cpu_dispatch(__file__)


def _traced_peak(samples):
    tracemalloc.start()
    try:
        run_montecarlo((4, 8, 16), samples, 7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_does_not_grow_with_samples():
    """Samples are drawn and counted a chunk at a time: peak memory is
    a few MB and the same for 200k and 2M samples."""
    small, large = _traced_peak(200_000), _traced_peak(2_000_000)
    assert large < 8e6
    assert abs(large - small) <= 0.1 * small


# SHA-256 of rows_to_csv, recorded when the study drew 10^6 samples per chunk;
# the two with v = 16 re-recorded when the cross tail became a trapezoid sum,
# whose 2.1647302219e-08 replaced quadrature's 2.1647064975e-08 (see
# CROSS_TAIL_40_DIGITS)
GOLDEN_CSV = [
    ((4, 8, 16), 2_000_000, 7, "463dcc69e204c1077ba14fb2ac1e82de6c24cfcbec7c39f7b408d566e615b184"),
    ((1, 2.5), 16385, 3, "7018d419614136d74e473543e6264579dfb93cfddd1535a8d1e28a2e82fc6299"),
    ((4, 8, 16), 1, 0, "2c3e65e157931657ad4f05b4237fc32e3abd18cfe19476c35af7ba386dc04a03"),
]


@pytest.mark.parametrize("v_list,samples,seed,digest", GOLDEN_CSV)
def test_golden_csv(v_list, samples, seed, digest):
    csv = rows_to_csv(run_montecarlo(v_list, samples, seed))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest
