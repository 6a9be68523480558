"""Closed-form detector design and traffic calculators.

Under the absent-user hypothesis each pairwise statistic is the absolute
real part of an inner product of two independent complex Gaussian
L-vectors, i.e. |sum of 2L independent products of N(0, sigma^2/2)
variables|. Its density is

    f(x) = (2x/s2)^(L-1/2) K_{L-1/2}(2x/s2) / ((s2/2) 2^(L-3/2) sqrt(pi) Gamma(L))

for x >= 0, with K the modified Bessel function of the second kind. The
half-integer order admits an exact finite sum, so no special-function
dependency is needed. The statistic is |G1 - G2| with G1, G2 independent
Gamma(L, sigma^2/2), and its tail is a finite sum as well: with
z = 2x/sigma^2,

    S(x) = e^-z sum_{j<L} W_j z^j / j!,   W_j = sum_{k <= L-1-j} w_k,
    w_k = C(L-1+k, k) 2^-(L-1+k).

Every term is positive, so S is evaluated in log space to full relative
accuracy at any depth, and thresholds solve log S = log p0 by Newton's
method. The density is -dS/dx, and the CDF is 1 - S or, where S > 1/2,
the lower tail's own finite sum, so both come from the same constants.
The M-out-of-n false-alarm combinatorics use the (exact) binomial tail,
equal to a regularized incomplete beta function. Everything here needs
the math module only; the density loads numpy for an array input.

The distribution depends on x only through x/sigma^2, so a threshold
solved at one noise variance rescales linearly to any other - which is
how estimated-noise thresholds are applied per frame without re-solving.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, exp, expm1, fsum, inf, isnan, lgamma, log, log1p, pi, sqrt
from operator import mul

from .errors import NumericalError

__all__ = [
    "bessel_k_half",
    "H0Pdf",
    "h0_pdf",
    "h0_cdf",
    "solve_threshold",
    "pfa_from_p0",
    "p0_from_pfa",
    "DetectorDesign",
    "design_detector",
    "occupancy_fraction",
    "processing_gain_db",
    "interference_rise_db",
    "THRESHOLD_TABLE_COLUMNS",
    "write_threshold_table",
]

THRESHOLD_TABLE_COLUMNS = ["L", "sigma2", "K", "M", "n", "p0", "eta", "target_pfa"]

# Tail-sum terms this far below the largest, in log, are dropped: for L <= 4095
# their total is below one ulp of the sum, and exp of them only costs time.
_LOG_SKIP = 50.0


@lru_cache(maxsize=128)
def _log_half_order_coeffs(a: int) -> tuple[float, ...]:
    # log of (a+k)! / (k! (a-k)!) for k = 0..a
    return tuple(
        lgamma(a + k + 1) - lgamma(k + 1) - lgamma(a - k + 1) for k in range(a + 1)
    )


def bessel_k_half(order_minus_half: int, x: float) -> float:
    """Modified Bessel function of the second kind at half-integer order a + 1/2.

    Uses the exact closed form
    K_{a+1/2}(x) = sqrt(pi/(2x)) e^{-x} sum_k (a+k)! / (k!(a-k)!) (2x)^{-k},
    evaluated in log space so large orders stay accurate at small arguments.
    """
    a = int(order_minus_half)
    if a < 0:
        raise ValueError("order_minus_half must be >= 0")
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    if x == inf:
        return 0.0
    t = [c - k * log(2.0 * x) for k, c in enumerate(_log_half_order_coeffs(a))]
    m = max(t)
    try:  # K passes the float range at tiny x
        return exp(0.5 * log(pi / (2.0 * x)) - x + m + log(fsum(exp(v - m) for v in t)))
    except OverflowError:
        return inf


@dataclass(frozen=True)
class H0Pdf:
    """Density of the pairwise statistic when the user is silent (noise only)."""

    l_taps: int
    noise_var: float

    def __post_init__(self):
        if self.l_taps < 1:
            raise ValueError("l_taps must be >= 1")
        if not (math.isfinite(self.noise_var) and self.noise_var > 0):
            raise ValueError(f"noise_var must be finite and positive, got {self.noise_var}")


def h0_pdf(pdf: H0Pdf, x):
    """Evaluate the noise-only density at x >= 0 (scalar or array); it is 0 at +inf.

    It is -dS/dx = (2/sigma^2) S (-d log S/dz), from the tail sum; only an array loads numpy.
    """
    if not isinstance(x, (int, float)):
        import numpy as np

        x_arr = np.asarray(x, dtype=float)
        out = np.array([h0_pdf(pdf, v) for v in x_arr.ravel().tolist()]).reshape(x_arr.shape)
        return float(out) if out.shape == () else out
    if isnan(x):
        raise ValueError("density is undefined at NaN")
    if x < 0:
        raise ValueError("density is defined for x >= 0")
    z = 2.0 * x / pdf.noise_var
    if z == inf:  # an x that overflows z is past every tail
        return 0.0
    if z == 0:  # S = 1 and -d log S/dz = w_{L-1}
        return 2.0 * _tail_coeffs(pdf.l_taps)[1][0] / pdf.noise_var
    log_s, slope = _log_sf(pdf.l_taps, z)
    return 2.0 * exp(log_s) * -slope / pdf.noise_var


def _logaddexp(x: float, y: float) -> float:
    d = x - y
    return x + log1p(exp(-d)) if d > 0 else y + log1p(exp(d))


@lru_cache(maxsize=128)
def _tail_coeffs(l_taps: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Constants of the tail sum for j = 0..L-1: (log(W_j / j!), w_{L-1-j} / W_j)."""
    log_w = [
        lgamma(l_taps + i) - lgamma(i + 1) - lgamma(l_taps) - (l_taps - 1 + i) * log(2.0)
        for i in range(l_taps)
    ]
    log_big_w = list(accumulate(log_w, _logaddexp))[::-1]
    log_a = tuple(b - lgamma(j + 1) for j, b in enumerate(log_big_w))
    ratio = tuple(exp(w - b) for w, b in zip(reversed(log_w), log_big_w))
    return log_a, ratio


def _log_sf(l_taps: int, z: float) -> tuple[float, float]:
    """log S and d(log S)/dz at z = 2x/sigma^2 > 0.

    The log terms t_j = log(W_j z^j / j!) are concave in j (W_j is a tail of
    a log-concave weight sequence), so the terms kept, those within
    ``_LOG_SKIP`` of the largest, are one run around it, found by bisection.
    """
    log_a, ratio = _tail_coeffs(l_taps)
    lz = log(z)
    t = [a + j * lz for j, a in enumerate(log_a)]
    m = max(t)
    top = t.index(m)
    cut = m - _LOG_SKIP
    lo = bisect_right(t, cut, 0, top)
    hi = bisect_left(t, -cut, top, l_taps, key=float.__neg__)
    e = [exp(x - m) for x in t[lo:hi]]
    total = fsum(e)
    return m + log(total) - z, -fsum(map(mul, ratio[lo:hi], e)) / total


def h0_cdf(pdf: H0Pdf, x: float) -> float:
    """P(statistic <= x): 1 - S, or where S > 1/2 the lower tail, a sum of positive terms.

    F = e^-z sum_{j>=1} (1 - W_j) z^j / j!, and 1 - W_j = 1 from j = L on. Where
    S > 1/2, z < L, so those Poisson terms fall; they stop ``_LOG_SKIP`` below the top.
    """
    if isnan(x):
        raise ValueError("CDF is undefined at NaN")
    z = 2.0 * x / pdf.noise_var
    if not 0 < z < inf:  # 0 at x <= 0 or where z underflows, 1 at +inf
        return float(z > 0)
    log_s = _log_sf(pdf.l_taps, z)[0]
    if log_s <= log(0.5):
        return -expm1(log_s)
    # 1 - W_j sums w_{L-1-i} = ratio_i W_i over i < j
    log_a, ratio = _tail_coeffs(pdf.l_taps)
    log_w = (log(r) + a + lgamma(i + 1) for i, (a, r) in enumerate(zip(log_a, ratio)))
    lz = log(z)
    t = [d - lgamma(j + 1) + j * lz for j, d in enumerate(accumulate(log_w, _logaddexp), 1)]
    m = max(t)
    while t[-1] > m - _LOG_SKIP:
        t.append(t[-1] + lz - log(len(t) + 1))
    return exp(m + log(fsum(exp(v - m) for v in t)) - z)


def solve_threshold(pdf: H0Pdf, p0: float) -> float:
    """Threshold eta with tail probability p0: solves log S(eta) = log p0.

    log S is concave (the density is log-concave), so Newton's method in
    z = 2 eta / sigma^2 converges from any start; steps that leave the
    bracket kept from the signs seen so far fall back to bisection or
    doubling, which only rounding can trigger.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"p0 must be in (0, 1), got {p0}")
    target = log(p0)
    # exact at L = 1 (S = e^-z); the root term is the spread of the other L - 1
    z = -target + sqrt(2.0 * (pdf.l_taps - 1) * -target)
    lo, hi = 0.0, inf
    for _ in range(100):
        log_s, slope = _log_sf(pdf.l_taps, z)
        g = log_s - target
        if g == 0.0:
            break
        if g > 0.0:
            lo = z
        else:
            hi = z
        z_next = z - g / slope
        if not lo < z_next < hi:
            z_next = 0.5 * (lo + hi) if hi < inf else 2.0 * z
        converged = abs(z_next - z) <= 1e-12 * z  # quadratic: the last step's error is ~1e-24
        z = z_next
        if converged:
            break
    else:
        raise NumericalError(f"threshold solve for p0={p0:.3e} did not converge")
    residual = _log_sf(pdf.l_taps, z)[0] - target  # relative tail error, to first order
    if not abs(residual) <= 1e-10:
        raise NumericalError(f"relative tail residual {residual:.3e} exceeds 1e-10")
    return float(z * pdf.noise_var / 2.0)


def pfa_from_p0(p0: float, n: int, m: int) -> float:
    """False-alarm rate of the M-out-of-n rule assuming independent statistics.

    Exact binomial tail sum_{i=M}^{n} C(n,i) p0^i (1-p0)^{n-i}; equals the
    regularized incomplete beta I_{p0}(M, n-M+1).
    """
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"need 1 <= M <= n, got M={m}, n={n}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0}")
    q = 1.0 - p0
    try:
        return float(sum(comb(n, i) * p0**i * q ** (n - i) for i in range(m, n + 1)))
    except OverflowError:
        raise _overflow(n, m) from None


def _overflow(n: int, m: int) -> NumericalError:
    return NumericalError(
        f"the M-of-n tail at n={n}, M={m} needs binomial coefficients past the float range"
    )


def p0_from_pfa(pfa: float, n: int, m: int) -> float:
    """Invert :func:`pfa_from_p0` in p0 by bisection with Newton acceleration.

    The map is strictly increasing in p0, and the derivative is the scaled
    beta density M*C(n,M) p0^(M-1) (1-p0)^(n-M), so Newton steps are cheap;
    any step leaving the bracket falls back to bisection.
    """
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"need 1 <= M <= n, got M={m}, n={n}")
    if not 0.0 < pfa < 1.0:
        raise ValueError(f"target false-alarm rate must be in (0, 1), got {pfa}")
    lo, hi = 0.0, 1.0
    p = pfa  # decent start: exact for n = m = 1
    try:
        dcoef = float(m * comb(n, m))
    except OverflowError:
        raise _overflow(n, m) from None
    for _ in range(300):
        f = pfa_from_p0(p, n, m) - pfa
        if abs(f) <= 1e-13 * pfa:  # relative: pfa may be arbitrarily small
            for _ in range(3):  # Newton polish toward the rounding floor
                deriv = dcoef * p ** (m - 1) * (1.0 - p) ** (n - m)
                if deriv <= 0 or not math.isfinite(deriv):
                    break
                cand = p - (pfa_from_p0(p, n, m) - pfa) / deriv
                # a converged p moves by rounding only; near PFA = 1 the residual is
                # rounding too, over a vanishing slope, and a long step lands far off
                if not abs(cand - p) <= 1e-8 * p:
                    break
                p = cand
            return float(p)
        if f > 0:
            hi = p
        else:
            lo = p
        if hi - lo <= 1e-16 * hi:  # relative: p0 may lie far below 1e-16
            return float(0.5 * (lo + hi))
        deriv = dcoef * p ** (m - 1) * (1.0 - p) ** (n - m)
        if deriv > 0 and math.isfinite(deriv) and lo < p - f / deriv < hi:
            p = p - f / deriv
        else:
            p = 0.5 * (lo + hi)
    raise NumericalError("p0 inversion did not converge")


@dataclass(frozen=True)
class DetectorDesign:
    """A solved CFAR operating point binding (PFA, p0, eta, M, n, L, sigma^2)."""

    target_pfa: float
    p0: float
    eta: float
    m_of_n: int
    n_pairs: int
    l_taps: int
    noise_var: float

    def eta_for(self, noise_var: float) -> float:
        """Rescale the threshold to another noise variance (the statistic is pivotal in x/sigma^2)."""
        return self.eta * noise_var / self.noise_var


def design_detector(
    target_pfa: float, k_bits: int, m_of_n: int, l_taps: int, noise_var: float
) -> DetectorDesign:
    """Fix the false-alarm rate and derive (p0, eta) for K bits and the M-of-n rule."""
    if k_bits < 1:
        raise ValueError("detector design needs K >= 1 (pairwise statistics)")
    n_pairs = k_bits * (k_bits + 1) // 2
    if not 1 <= m_of_n <= n_pairs:
        raise ValueError(f"M must be in [1, {n_pairs}], got {m_of_n}")
    p0 = p0_from_pfa(target_pfa, n_pairs, m_of_n)
    eta = solve_threshold(H0Pdf(l_taps, noise_var), p0)
    return DetectorDesign(
        target_pfa=target_pfa,
        p0=p0,
        eta=eta,
        m_of_n=m_of_n,
        n_pairs=n_pairs,
        l_taps=l_taps,
        noise_var=noise_var,
    )


def occupancy_fraction(num_ues: int, sr_rate_per_ue: float, symbol_rate: float) -> float:
    """Fraction of symbol slots carrying at least one request, capped at 1."""
    if num_ues < 0 or sr_rate_per_ue < 0:
        raise ValueError("counts and rates must be nonnegative")
    if symbol_rate <= 0:
        raise ValueError("symbol_rate must be positive")
    occupancy = num_ues * sr_rate_per_ue / symbol_rate
    if isnan(occupancy):
        raise ValueError(
            f"occupancy is undefined for num_ues={num_ues}, "
            f"sr_rate_per_ue={sr_rate_per_ue}, symbol_rate={symbol_rate}"
        )
    return min(1.0, occupancy)


def processing_gain_db(n_len: int) -> float:
    """Despreading gain of a length-N spreading sequence, in dB."""
    if not n_len >= 1:  # false for NaN too
        raise ValueError("n_len must be >= 1")
    return 10.0 * math.log10(n_len)


def interference_rise_db(occupancy: float, usr_to_noise_power_ratio: float) -> float:
    """Average rise of the interference floor from underlay traffic, in dB."""
    rise = occupancy * usr_to_noise_power_ratio
    # the comparisons are false for NaN, and the product is NaN for 0 x inf
    if not (occupancy >= 0 and usr_to_noise_power_ratio >= 0 and rise >= 0):
        raise ValueError(
            f"inputs must be nonnegative with a defined product, got occupancy={occupancy}, "
            f"usr_to_noise_power_ratio={usr_to_noise_power_ratio}"
        )
    return 10.0 * math.log10(1.0 + rise)


def write_threshold_table(path, entries: list[tuple[int, DetectorDesign]]) -> None:
    """Write (K, design) rows as CSV with the documented column set, atomically.

    Lines end in CSV's ``\\r\\n``, as ``csv.writer`` writes them.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    rows = [THRESHOLD_TABLE_COLUMNS] + [
        [d.l_taps, format(d.noise_var, ".12g"), k_bits, d.m_of_n, d.n_pairs,
         format(d.p0, ".12g"), format(d.eta, ".12g"), format(d.target_pfa, ".12g")]
        for k_bits, d in entries
    ]
    _atomic_write(path, "".join(",".join(map(str, row)) + "\r\n" for row in rows))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` verbatim (no newline translation) through a renamed temp file."""
    import tempfile  # only writers need it

    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
