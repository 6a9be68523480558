import csv
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc, betaincinv

from helpers import (
    binomial_tail_oracle,
    cf_inversion_oracle,
    erlang_mixture_cdf,
    erlang_mixture_sf,
    numpy_log_sf,
    sample_h0_statistic,
)

from cpdsss import analysis
from cpdsss.analysis import (
    THRESHOLD_TABLE_COLUMNS,
    H0Pdf,
    bessel_k_half,
    design_detector,
    h0_cdf,
    h0_pdf,
    interference_rise_db,
    occupancy_fraction,
    p0_from_pfa,
    pfa_from_p0,
    processing_gain_db,
    solve_threshold,
    write_threshold_table,
)
from cpdsss.errors import NumericalError

# ---------------------------------------------------------------- Bessel ----

def test_bessel_base_case_frozen():
    # K_1/2(1) = sqrt(pi/2) e^-1
    assert abs(bessel_k_half(0, 1.0) - 0.4610685044478945) < 1e-15


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_bessel_order_half_closed_form(x):
    ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert abs(bessel_k_half(0, x) - ref) / ref < 1e-12


def test_bessel_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for a in (1, 5, 39):
        for x in np.geomspace(1e-3, 50.0, 12):
            ref = float(mpmath.besselk(a + 0.5, mpmath.mpf(float(x))))
            got = bessel_k_half(a, float(x))
            assert abs(got - ref) / ref < 1e-9, (a, x)


def test_bessel_recurrence():
    # K_{a+3/2}(x) = K_{a-1/2}(x) + ((2a+1)/x) K_{a+1/2}(x)
    for a in (1, 2, 3, 5, 20, 38):
        for x in (0.05, 0.4, 1.0, 7.0, 30.0):
            lhs = bessel_k_half(a + 1, x)
            rhs = bessel_k_half(a - 1, x) + (2 * a + 1) / x * bessel_k_half(a, x)
            assert abs(lhs - rhs) / lhs < 1e-10


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_k_half(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k_half(0, -1.0)
    with pytest.raises(ValueError):
        bessel_k_half(-1, 1.0)


def test_bessel_k_half_is_zero_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (0, 3, 40):
            assert bessel_k_half(a, math.inf) == 0.0
    with pytest.raises(ValueError):
        bessel_k_half(3, math.nan)


def test_bessel_decreasing_in_x():
    xs = np.linspace(0.1, 20, 50)
    vals = [bessel_k_half(4, float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------------- PDF ----

def test_h0_pdf_l1_reduction():
    for s2 in (1.0, 2.5):
        pdf = H0Pdf(1, s2)
        xs = np.linspace(0.0, 6.0 * s2, 60)
        got = h0_pdf(pdf, xs)
        ref = (2.0 / s2) * np.exp(-2.0 * xs / s2)
        assert np.abs(got - ref).max() < 1e-10


def test_h0_pdf_frozen_spot_value():
    assert abs(h0_pdf(H0Pdf(1, 1.0), 0.5) - 2 * math.exp(-1)) < 1e-12


@pytest.mark.parametrize("l_taps", [1, 5, 40])
def test_h0_pdf_normalizes(l_taps):
    pdf = H0Pdf(l_taps, 1.0)
    total, _ = integrate.quad(lambda t: h0_pdf(pdf, t), 0, np.inf, limit=400)
    assert abs(total - 1.0) < 1e-6


def test_h0_pdf_zero_limit_branch():
    pdf = H0Pdf(40, 1.0)
    at_zero = h0_pdf(pdf, 0.0)
    near_zero = h0_pdf(pdf, 5e-9)
    just_above = h0_pdf(pdf, 2e-8)
    assert abs(near_zero - at_zero) / at_zero < 1e-13
    assert abs(just_above - at_zero) / at_zero < 1e-6
    # analytic limit 2 Gamma(L - 1/2) / (s2 sqrt(pi) Gamma(L))
    ref = 2 * math.exp(math.lgamma(39.5) - math.lgamma(40)) / math.sqrt(math.pi)
    assert abs(at_zero - ref) < 1e-12


def _besselk_density(l_taps, s2, x):
    """The closed-form density at x > 0, through mpmath's Bessel K at 40 digits."""
    with mpmath.workdps(40):
        s2, z, order = mpmath.mpf(s2), 2 * mpmath.mpf(x) / s2, mpmath.mpf(l_taps) - 0.5
        norm = s2 / 2 * 2 ** (order - 1) * mpmath.sqrt(mpmath.pi) * mpmath.gamma(l_taps)
        k = mpmath.besselk(order, z, maxterms=10**6)  # large z at L=400 needs more terms
        return float(z ** order * k / norm)


@pytest.mark.parametrize("l_taps", [1, 2, 5, 40, 400])
def test_h0_pdf_matches_besselk_closed_form(l_taps):
    # the density once switched to its value at 0 below x = 1e-8 sigma^2, 1.8e-8 off at L=1
    for s2 in (0.5, 1.0, 2.2):
        for x in [2e-8, 5e-9, 1e-30, *np.geomspace(1e-6, 4 * l_taps * s2 + 50, 25)]:
            ref = _besselk_density(l_taps, s2, x)
            if ref >= 1e-300:
                got = h0_pdf(H0Pdf(l_taps, s2), float(x))
                assert abs(got - ref) <= 1e-12 * ref, (l_taps, s2, x, got, ref)


def test_h0_pdf_rejects_negative():
    with pytest.raises(ValueError):
        h0_pdf(H0Pdf(1, 1.0), -0.1)
    with pytest.raises(ValueError):
        H0Pdf(0, 1.0)
    with pytest.raises(ValueError):
        H0Pdf(1, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            H0Pdf(1, bad)


def test_h0_pdf_rejects_nan():
    # NaN once fell through every mask and read as the density at zero
    with pytest.raises(ValueError, match="NaN"):
        h0_pdf(H0Pdf(4, 1.0), math.nan)
    with pytest.raises(ValueError, match="NaN"):
        h0_pdf(H0Pdf(4, 1.0), np.array([1.0, math.nan]))


def test_h0_pdf_is_zero_at_infinity():
    pdf = H0Pdf(4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert h0_pdf(pdf, math.inf) == 0.0
        got = h0_pdf(pdf, np.array([0.0, 1.0, math.inf, 1e308]))
    assert got[0] == h0_pdf(pdf, 0.0) and got[1] == h0_pdf(pdf, 1.0)
    assert got[2] == 0.0 and got[3] == 0.0


# ------------------------------------------------------------------- CDF ----

def test_h0_cdf_l1_analytic():
    pdf = H0Pdf(1, 1.0)
    assert h0_cdf(pdf, 0.0) == 0.0
    assert abs(h0_cdf(pdf, 1.0) - (1 - math.exp(-2))) < 1e-10
    assert abs(h0_cdf(pdf, 20.0) - 1.0) < 1e-8


@pytest.mark.parametrize("l_taps,s2", [(1, 1.0), (5, 1.0), (40, 1.0), (5, 3.0)])
def test_h0_cdf_matches_mixture_oracle(l_taps, s2):
    pdf = H0Pdf(l_taps, s2)
    scale = s2 * l_taps
    xs = np.linspace(0.05, 3.0, 12) * scale / 2
    for x in xs:
        assert abs(h0_cdf(pdf, float(x)) - float(erlang_mixture_cdf(l_taps, s2, x))) < 1e-8


@pytest.mark.parametrize("l_taps", [1, 2, 5, 40, 400])
def test_h0_cdf_relative_accuracy_at_any_depth(l_taps):
    # 1 - S lost every digit below ~1e-8, and read -4.95e-15 at L=40, x=1e-100
    for s2 in (0.5, 1.0, 2.2):
        xs = [1e-100, 1e-12, *np.geomspace(1e-300, 4 * l_taps * s2 + 50, 120)]
        ref = erlang_mixture_cdf(l_taps, s2, np.array(xs))
        for x, r in zip(xs, ref):
            if r >= 1e-300:
                got = h0_cdf(H0Pdf(l_taps, s2), float(x))
                assert abs(got - r) <= 1e-12 * r, (l_taps, s2, x, got, r)
    # here z = 2x/sigma^2 rounds to 0, where log z raised a math domain error
    assert h0_cdf(H0Pdf(l_taps, 4.0), 5e-324) == 0.0


def test_h0_cdf_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        h0_cdf(H0Pdf(4, 1.0), math.nan)


def test_h0_cdf_is_one_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # it once returned nan with a RuntimeWarning
        for x in (math.inf, 1e308):
            assert h0_cdf(H0Pdf(4, 1.0), x) == 1.0
    assert h0_cdf(H0Pdf(4, 1.0), -math.inf) == 0.0


def test_h0_cdf_monotone():
    pdf = H0Pdf(40, 1.0)
    for xs in (np.linspace(0, 40, 30), np.geomspace(1e-300, 1, 200)):
        vals = [h0_cdf(pdf, float(x)) for x in xs]
        assert vals[0] >= 0 and all(b >= a for a, b in zip(vals, vals[1:]))


def test_h0_empirical_ks_quick(rng):
    # sampled directly from the defining sum-of-products form
    samples = sample_h0_statistic(rng, 40, 1.0, 20_000)
    from scipy.stats import kstest

    res = kstest(samples, lambda x: erlang_mixture_cdf(40, 1.0, x))
    assert res.pvalue > 0.01


# ------------------------------------------------------------- threshold ----

def test_solve_threshold_l1_analytic():
    eta = solve_threshold(H0Pdf(1, 1.0), 0.01)
    assert abs(eta - math.log(100.0) / 2.0) < 1e-8


def test_solve_threshold_near_one_gives_tiny_eta():
    eta = solve_threshold(H0Pdf(1, 1.0), 0.999)
    assert 0 < eta < 1e-3


DEEP_P0 = [1e-3, 1e-9, 1e-13, 1e-15, 1e-30]


@pytest.mark.parametrize("p0", DEEP_P0)
@pytest.mark.parametrize("l_taps", [1, 5, 40, 400, 4095])
def test_solve_threshold_deep_tail_matches_sf_oracle(l_taps, p0):
    eta = solve_threshold(H0Pdf(l_taps, 1.0), p0)
    tail = float(erlang_mixture_sf(l_taps, 1.0, eta))
    assert abs(tail / p0 - 1.0) < 1e-12


@pytest.mark.parametrize("p0", DEEP_P0)
def test_solve_threshold_l1_deep_tail_analytic(p0):
    eta = solve_threshold(H0Pdf(1, 1.0), p0)
    ref = math.log(1.0 / p0) / 2.0
    assert abs(eta / ref - 1.0) < 1e-13


@pytest.mark.parametrize("l_taps", [1, 2, 5, 40, 400, 4095])
def test_log_sf_matches_numpy_oracle(l_taps):
    # log S to 1e-13, relative where |log S| > 1 and absolute below (an absolute
    # error in log S is a relative error in S); the slope to 1e-12 relative
    for z in np.geomspace(1e-6, 5000.0, 120):
        got_log_s, got_slope = analysis._log_sf(l_taps, float(z))
        ref_log_s, ref_slope = numpy_log_sf(l_taps, float(z))
        assert abs(got_log_s - ref_log_s) <= 1e-13 * max(1.0, abs(ref_log_s)), (l_taps, z)
        assert abs(got_slope / ref_slope - 1.0) <= 1e-12, (l_taps, z)


# design_grid's 81 rows, plus deep targets that the M = 1 inversions reach
GRID_DESIGNS = list(itertools.product(
    (1e-3, 1e-6, 1e-9), ((1, 1), (10, 1), (10, 20)), (1, 5, 40), (0.5, 1.0, 2.0),
)) + list(itertools.product(
    (1e-15, 1e-30, 1e-100, 1e-200), ((1, 1), (10, 1)), (1, 5, 40), (1.0,),
))


def test_designs_match_numpy_tail(monkeypatch):
    got = [design_detector(pfa, k, m, l_taps, nv) for pfa, (k, m), l_taps, nv in GRID_DESIGNS]
    monkeypatch.setattr(analysis, "_log_sf", numpy_log_sf)
    for d, (pfa, (k, m), l_taps, nv) in zip(got, GRID_DESIGNS):
        ref = design_detector(pfa, k, m, l_taps, nv)
        assert d.p0 == ref.p0
        assert abs(d.eta - ref.eta) <= 2 * math.ulp(ref.eta), (d, ref)


def test_solve_threshold_domain():
    pdf = H0Pdf(1, 1.0)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            solve_threshold(pdf, bad)


def test_solve_threshold_decreasing_in_p0():
    pdf = H0Pdf(40, 1.0)
    etas = [solve_threshold(pdf, p) for p in (0.001, 0.01, 0.1, 0.5)]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_threshold_scales_with_noise_variance():
    # the statistic is pivotal in x / sigma^2
    eta1 = solve_threshold(H0Pdf(40, 1.0), 0.01)
    eta3 = solve_threshold(H0Pdf(40, 3.0), 0.01)
    assert abs(eta3 - 3.0 * eta1) < 1e-6


def test_threshold_exceedance_monte_carlo(rng):
    p0 = 0.01
    eta = solve_threshold(H0Pdf(40, 1.0), p0)
    draws = sample_h0_statistic(rng, 40, 1.0, 200_000)
    rate = float((draws > eta).mean())
    assert abs(rate - p0) < 3 * math.sqrt(p0 * (1 - p0) / len(draws))


# ---------------------------------------------------------- combinatorics ----

def test_pfa_identities():
    assert pfa_from_p0(0.37, 1, 1) == pytest.approx(0.37, abs=1e-15)
    assert pfa_from_p0(0.1, 3, 2) == pytest.approx(0.028, abs=1e-15)
    assert pfa_from_p0(0.2, 4, 4) == pytest.approx(0.2**4, abs=1e-16)
    assert pfa_from_p0(0.0, 5, 2) == 0.0
    assert pfa_from_p0(1.0, 5, 2) == 1.0


def test_pfa_matches_incomplete_beta(rng):
    for _ in range(200):
        n = int(rng.integers(1, 56))
        m = int(rng.integers(1, n + 1))
        p0 = float(rng.uniform(1e-6, 0.999))
        assert abs(pfa_from_p0(p0, n, m) - binomial_tail_oracle(p0, n, m)) < 1e-12


def test_pfa_monotonicity():
    grid = np.linspace(0.01, 0.99, 25)
    vals = [pfa_from_p0(float(p), 10, 3) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    by_m = [pfa_from_p0(0.3, 10, m) for m in range(1, 11)]
    assert all(a > b for a, b in zip(by_m, by_m[1:]))


def test_pfa_domain_errors():
    with pytest.raises(ValueError):
        pfa_from_p0(0.1, 3, 0)
    with pytest.raises(ValueError):
        pfa_from_p0(0.1, 3, 4)
    with pytest.raises(ValueError):
        pfa_from_p0(1.5, 3, 1)


def test_p0_inverse_identities():
    assert p0_from_pfa(0.001, 1, 1) == pytest.approx(0.001, abs=1e-14)
    assert p0_from_pfa(0.028, 3, 2) == pytest.approx(0.1, abs=1e-10)


def _beta_density(p0, n, m):
    return m * math.comb(n, m) * p0 ** (m - 1) * (1 - p0) ** (n - m)


def test_p0_inverse_roundtrip(rng):
    # p0 -> pfa -> p0 can only be recovered where the forward map keeps the
    # information in float64: skip triples where the local slope (beta
    # density) is so small that eps(pfa) already swamps 1e-10 of p0
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 56))
        m = int(rng.integers(1, n + 1))
        p0 = float(rng.uniform(1e-4, 0.999))
        pfa = pfa_from_p0(p0, n, m)
        if not 1e-250 < pfa < 1.0 - 1e-12 or _beta_density(p0, n, m) < 1e-5:
            continue
        assert abs(p0_from_pfa(pfa, n, m) - p0) < 1e-10
        checked += 1


def test_p0_inverse_postcondition_in_pfa_space(rng):
    # the inverse's contract holds unconditionally: feeding its output back
    # through the forward map reproduces the requested rate to 1e-12 relative,
    # down to the deep tail (PFA log-uniform in [1e-100, 1 - 1e-6])
    for _ in range(50):
        n = int(rng.integers(1, 56))
        m = int(rng.integers(1, n + 1))
        pfa = float(10.0 ** rng.uniform(-100.0, math.log10(1.0 - 1e-6)))
        back = pfa_from_p0(p0_from_pfa(pfa, n, m), n, m)
        assert abs(back / pfa - 1.0) < 1e-12, (pfa, n, m, back)


def _exact_pfa(p0, n, m):
    with mpmath.workdps(40):
        return float(mpmath.betainc(m, n - m + 1, 0, p0, regularized=True))


def test_p0_inverse_near_one(rng):
    # below 1 - PFA ~ 1e-13 the start p = PFA already meets the stop test;
    # a Newton polish over the vanishing slope there once took p0 far off
    # (0.875, whose rate is 0.984, for the first case)
    for pfa, n, m in ((0.9999999999999956, 2, 1), (0.9999999999999982, 5, 4)):
        assert abs(_exact_pfa(p0_from_pfa(pfa, n, m), n, m) - pfa) <= 1e-12 * pfa
    for _ in range(3000):
        pfa = 1.0 - 10.0 ** -rng.uniform(0.3, 15.0)
        k = int(rng.integers(1, 12))
        n = k * (k + 1) // 2
        m = int(rng.integers(1, n + 1))
        p0 = p0_from_pfa(pfa, n, m)
        assert abs(_exact_pfa(p0, n, m) - pfa) <= 1e-12 * pfa, (pfa, n, m, p0)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 55, 66])
def test_p0_inverse_m1_matches_closed_form(n):
    # M = 1: PFA = 1 - (1 - p0)^n, so p0 = -expm1(log1p(-PFA) / n) at any depth
    for pfa in np.logspace(-300.0, math.log10(0.5), 61):
        exact = -math.expm1(math.log1p(-pfa) / n)
        assert p0_from_pfa(float(pfa), n, 1) == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_p0_inverse_matches_scipy(rng):
    for _ in range(50):
        n = int(rng.integers(1, 56))
        m = int(rng.integers(1, n + 1))
        pfa = float(rng.uniform(1e-6, 0.999))
        ref = float(betaincinv(m, n - m + 1, pfa))
        assert abs(p0_from_pfa(pfa, n, m) - ref) < 1e-10


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 66), st.data(), st.floats(1e-100, 0.5), st.floats(1e-6, 1.0))
def test_p0_inverse_monotone_in_pfa(n, data, pfa, step):
    m = data.draw(st.integers(1, n))
    assert p0_from_pfa(pfa, n, m) < p0_from_pfa(pfa * (1.0 + step), n, m)


@pytest.mark.parametrize("n, m", [(1035, 1), (1035, 563)])
def test_p0_inverse_tail_overflow_is_numerical_error(n, m):
    # C(1035, i) passes the float range near i = n/2; at M = 563 the tail
    # from M fits, but the derivative's M * C(n, M) does not
    with pytest.raises(NumericalError, match=f"n={n}, M={m}"):
        p0_from_pfa(0.5, n, m)


def test_p0_inverse_domain():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            p0_from_pfa(bad, 3, 1)


# ------------------------------------------------------------- CF oracle ----

def test_cf_oracle_l1_matches_analytic():
    xs = np.linspace(0.0, 5.0, 21)
    got = cf_inversion_oracle(1, 1.0, xs)
    ref = 2.0 * np.exp(-2.0 * xs)
    assert np.abs(got - ref).max() < 1e-6


def test_cf_oracle_prefold_is_even():
    xs = np.array([0.25, 1.0, 2.5])
    plus = cf_inversion_oracle(1, 1.0, xs, fold=False)
    minus = cf_inversion_oracle(1, 1.0, -xs, fold=False)
    assert np.abs(plus - minus).max() < 1e-9


def test_cf_oracle_l40_matches_pdf():
    pdf = H0Pdf(40, 1.0)
    xs = np.linspace(0.0, 20.0, 11)
    got = cf_inversion_oracle(40, 1.0, xs)
    ref = h0_pdf(pdf, xs)
    assert np.abs(got - ref).max() < 1e-4


def test_cf_oracle_rejects_negative_grid_when_folding():
    with pytest.raises(ValueError):
        cf_inversion_oracle(1, 1.0, [-1.0])


# ------------------------------------------------------- detector design ----

def test_design_detector_invariants():
    d = design_detector(0.001, 10, 1, 40, 1.0)
    assert d.n_pairs == 55
    assert abs(pfa_from_p0(d.p0, 55, 1) - 0.001) < 1e-10
    assert abs((1.0 - h0_cdf(H0Pdf(40, 1.0), d.eta)) - d.p0) < 1e-8


def test_design_detector_k1_threshold():
    d = design_detector(0.001, 1, 1, 40, 1.0)
    assert d.p0 == pytest.approx(0.001, abs=1e-14)
    assert d.eta == pytest.approx(15.060010, abs=1e-4)


def test_design_eta_rescaling():
    d = design_detector(0.01, 1, 1, 40, 1.0)
    assert d.eta_for(2.0) == pytest.approx(2.0 * d.eta, rel=1e-12)


def test_design_rejects_bad_args():
    with pytest.raises(ValueError):
        design_detector(0.001, 0, 1, 40, 1.0)
    with pytest.raises(ValueError):
        design_detector(0.001, 1, 2, 40, 1.0)  # n_pairs = 1


def test_threshold_table_round_trip(tmp_path):
    entries = [
        (1, design_detector(0.01, 1, 1, 1, 1.0)),
        (10, design_detector(0.001, 10, 1, 40, 1.0)),
    ]
    path = tmp_path / "thresholds.csv"
    write_threshold_table(path, entries)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"L,sigma2,K,M,n,p0,eta,target_pfa" and lines[3:] == [b""]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == THRESHOLD_TABLE_COLUMNS
    assert float(rows[0]["eta"]) == pytest.approx(math.log(100) / 2, abs=1e-8)
    assert int(rows[1]["n"]) == 55
    assert float(rows[1]["p0"]) == pytest.approx(p0_from_pfa(0.001, 55, 1), rel=1e-10)


# ------------------------------------------------------------ calculators ----

def test_occupancy_fraction_values():
    assert occupancy_fraction(20, 500, 30000) == 1.0 / 3.0
    assert occupancy_fraction(0, 500, 30000) == 0.0
    assert occupancy_fraction(100, 1000, 30000) == 1.0
    with pytest.raises(ValueError):
        occupancy_fraction(10, 500, 0)
    with pytest.raises(ValueError):
        occupancy_fraction(-1, 500, 30000)


def test_occupancy_fraction_rejects_nan():
    # min(1.0, nan) is 1.0, so a NaN rate once read as a full channel
    for args in ((1, math.nan, 1.0), (1, 1.0, math.nan), (0, math.inf, 1.0)):
        with pytest.raises(ValueError, match="undefined"):
            occupancy_fraction(*args)


def test_processing_gain():
    assert processing_gain_db(1024) == pytest.approx(30.1029995664, abs=1e-9)
    assert processing_gain_db(1) == 0.0
    with pytest.raises(ValueError):
        processing_gain_db(0)


def test_processing_gain_rejects_nan():
    with pytest.raises(ValueError, match="n_len must be >= 1"):
        processing_gain_db(math.nan)


def test_interference_rise():
    assert interference_rise_db(0.0, 0.01) == 0.0
    got = interference_rise_db(1.0 / 3.0, 0.01)
    assert got == pytest.approx(10 * math.log10(1 + 0.01 / 3), rel=1e-12)
    assert 0.014 < got < 0.015
    with pytest.raises(ValueError):
        interference_rise_db(-0.1, 0.01)


def test_interference_rise_rejects_nan():
    for args in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError):
            interference_rise_db(*args)
    assert interference_rise_db(math.inf, 1.0) == math.inf
    assert interference_rise_db(1.0, math.inf) == math.inf
