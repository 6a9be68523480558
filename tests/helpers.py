"""Independent oracles shared by the test modules.

Everything here is deliberately written on a different arithmetic path
from the package code: dense matrix products instead of FFTs, scipy's
incomplete gamma functions instead of the package's log-space tail sum,
numpy reductions over every term of that sum instead of the package's
pruned ``math.fsum`` sums, explicit loops instead of vectorized kernels,
and whole frames through the public tx -> channel -> rx functions
instead of the experiments' despread-domain sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, lgamma, log, pi

import numpy as np
from scipy import integrate
from scipy.special import gammainc, gammaincc

from cpdsss.channel import NoiseSpec, apply_channel, draw_channel, superpose
from cpdsss.rx import (
    despread_full, estimate_noise_power, extract_user, pairwise_stats, recover_bits,
)
from cpdsss.tx import add_cp, build_message, remove_cp
from cpdsss.zc import ZcBasis, cyclic_shift


def dense_despread(basis: ZcBasis, y: np.ndarray) -> np.ndarray:
    """O(N^2) despreading: row n of the matrix is conj(shift n)."""
    rows = np.stack([np.conj(cyclic_shift(basis, n)) for n in range(basis.n_len)])
    return rows @ y


@dataclass(frozen=True)
class ShiftWindow:
    """The N x L block of ``width`` consecutive shifts starting at ``start_index``."""

    start_index: int
    width: int


def window_product(basis: ZcBasis, w1: ShiftWindow, w2: ShiftWindow) -> np.ndarray:
    """Dense L x L product Z_iH Z_j between two shift windows.

    Entry (r, c) is shift(i+r)H shift(j+c), i.e. 1 where i+r = j+c (mod N)
    and ~0 elsewhere; the receiver never forms these matrices.
    """
    for w in (w1, w2):
        if not 0 <= w.start_index < basis.n_len:
            raise ValueError(f"window start {w.start_index} out of range")
        if not 1 <= w.width <= basis.n_len:
            raise ValueError(f"window width {w.width} out of range")
    if w1.width != w2.width:
        raise ValueError(f"window widths differ: {w1.width} != {w2.width}")
    z1 = np.stack(
        [cyclic_shift(basis, (w1.start_index + c) % basis.n_len) for c in range(w1.width)],
        axis=1,
    )
    z2 = np.stack(
        [cyclic_shift(basis, (w2.start_index + c) % basis.n_len) for c in range(w2.width)],
        axis=1,
    )
    return z1.conj().T @ z2


def circular_convolve_oracle(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Circular convolution by explicit summation."""
    n = len(x)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for l, hv in enumerate(h):
            out[m] += hv * x[(m - l) % n]
    return out


def erlang_mixture_cdf(l_taps: int, noise_var: float, x) -> np.ndarray:
    """Closed-form CDF of the noise-only pairwise statistic.

    The statistic is |sum of 2L products of independent N(0, s2/2)
    variables|; expanding the half-integer Bessel density termwise gives a
    negative-binomial mixture of Erlang CDFs:

        F(x) = sum_{k=0}^{L-1} C(L-1+k, k) 2^-(L-1+k) P(L-k, 2x/s2)

    with P the regularized lower incomplete gamma function. Weights sum
    to 1 by the binomial identity sum_k C(a+k, k) 2^-k = 2^a.
    """
    a = l_taps - 1
    z = 2.0 * np.asarray(x, dtype=float) / noise_var
    out = np.zeros_like(z)
    for k in range(l_taps):
        log_w = lgamma(a + k + 1) - lgamma(k + 1) - lgamma(a + 1) - (a + k) * log(2.0)
        out = out + exp(log_w) * gammainc(l_taps - k, z)
    return out


def erlang_mixture_sf(l_taps: int, noise_var: float, x) -> np.ndarray:
    """Tail 1 - F(x) of the same mixture, as sum_k w_k Q(L-k, 2x/s2).

    Q is the regularized upper incomplete gamma function, so the tail is
    summed from positive terms and never formed as 1 - CDF; it keeps its
    relative accuracy however small it is.
    """
    a = l_taps - 1
    z = 2.0 * np.asarray(x, dtype=float) / noise_var
    out = np.zeros_like(z)
    for k in range(l_taps):
        log_w = lgamma(a + k + 1) - lgamma(k + 1) - lgamma(a + 1) - (a + k) * log(2.0)
        out = out + exp(log_w) * gammaincc(l_taps - k, z)
    return out


@lru_cache(maxsize=None)
def _numpy_tail_coeffs(l_taps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.arange(l_taps)
    log_w = np.array(
        [lgamma(l_taps + i) - lgamma(i + 1) - lgamma(l_taps) for i in range(l_taps)]
    ) - (l_taps - 1 + k) * log(2.0)
    log_big_w = np.logaddexp.accumulate(log_w)[::-1]
    log_fact = np.array([lgamma(i + 1) for i in range(l_taps)])
    return k.astype(float), log_big_w - log_fact, np.exp(log_w[::-1] - log_big_w)


def numpy_log_sf(l_taps: int, z: float) -> tuple[float, float]:
    """The package's log S and d(log S)/dz as numpy arrays compute them: every term
    of the tail sum is kept, none skipped, and both sums are numpy reductions.

    It has the signature of ``cpdsss.analysis._log_sf``, so a test can put it
    in that function's place and solve the same design on this arithmetic.
    """
    j, log_a, ratio = _numpy_tail_coeffs(l_taps)
    t = log_a + j * log(z)
    m = t.max()
    e = np.exp(t - m)
    total = e.sum()
    return float(m + log(total) - z), -float(ratio @ e / total)


def cf_inversion_oracle(l_taps: int, noise_var: float, x_grid, fold: bool = True) -> np.ndarray:
    """Slow independent density estimate by Fourier inversion of the CF.

    The pre-folding statistic (the signed sum of 2L products) has
    characteristic function (2/s2)^(2L) / (t^2 + 4/s2^2)^L. Its symmetric
    density at +x and -x comes from oscillatory quadrature of the CF, and
    the two are folded onto the nonnegative half line. ``fold=False``
    returns the raw pre-folding density instead (any sign allowed).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if fold and np.any(x_grid < 0):
        raise ValueError("x grid must be nonnegative")

    def phi(t):
        log_cf = 2.0 * l_taps * log(2.0 / noise_var) - l_taps * np.log(
            t * t + 4.0 / noise_var**2
        )
        return exp(log_cf)

    def prefold(u: float) -> float:
        if u == 0.0:
            val, _ = integrate.quad(phi, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11)
        else:
            val, _ = integrate.quad(
                phi, 0.0, np.inf, weight="cos", wvar=u, epsabs=1e-12, limlst=200
            )
        return val / pi

    if not fold:
        return np.array([prefold(x) for x in x_grid])
    return np.array([prefold(x) + prefold(-x) for x in x_grid])


def sample_h0_statistic(rng: np.random.Generator, l_taps: int, noise_var: float, n: int,
                        chunk: int = 50_000) -> np.ndarray:
    """Direct draws of the noise-only statistic from its defining product form."""
    out = np.empty(n)
    sigma = np.sqrt(noise_var / 2.0)
    done = 0
    while done < n:
        b = min(chunk, n - done)
        p = sigma * rng.standard_normal((b, 2 * l_taps))
        q = sigma * rng.standard_normal((b, 2 * l_taps))
        out[done : done + b] = np.abs((p * q).sum(axis=1))
        done += b
    return out


def crossing_snr_db(snrs, values, target: float) -> float:
    """SNR where a decreasing curve crosses ``target``, log-linear interpolation."""
    snrs = list(snrs)
    logs = [np.log10(max(v, 1e-12)) for v in values]
    lt = np.log10(target)
    for i in range(len(snrs) - 1):
        a, b = logs[i], logs[i + 1]
        if (a - lt) * (b - lt) <= 0 and a != b:
            frac = (a - lt) / (a - b)
            return snrs[i] + frac * (snrs[i + 1] - snrs[i])
    raise AssertionError(f"curve never crosses {target}: {list(zip(snrs, values))}")


def binomial_tail_oracle(p0: float, n: int, m: int) -> float:
    """Same tail as the package computes, but via scipy's incomplete beta."""
    from scipy.special import betainc

    return float(betainc(m, n - m + 1, p0))


def full_chain_h0(sc, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """One noise-only frame through the receiver: pairwise statistics, soft bit metrics
    and frame power.

    ``sc`` is an experiments ``_Scenario``; it supplies the basis, the code
    assignment and the configuration.
    """
    y = superpose([], NoiseSpec(sc.config.noise_var), rng, n_samples=sc.config.n_len)
    ds = extract_user(despread_full(sc.basis, y), sc.assign)
    c, _, _ = pairwise_stats(ds.vectors)
    _, soft = recover_bits(ds)
    return c, np.asarray(soft), estimate_noise_power(y)


def full_chain_h1(sc, rng: np.random.Generator, amplitude: float):
    """One message frame through tx -> channel -> rx; draws bits, then channel, then noise.

    Returns the pairwise statistics, the soft bit metrics, the information
    bits sent and the frame power.
    """
    cp_len = sc.config.cp_len
    bits = [1] + [int(b) for b in rng.choice([-1, 1], size=sc.curve.k_bits)]
    samples = add_cp(build_message(sc.basis, sc.assign, bits, amplitude), cp_len)
    received = apply_channel(samples, draw_channel(sc.config.channel, rng))
    y = remove_cp(superpose([received], NoiseSpec(sc.config.noise_var), rng), cp_len)
    ds = extract_user(despread_full(sc.basis, y), sc.assign)
    c, _, _ = pairwise_stats(ds.vectors)
    _, soft = recover_bits(ds)
    return c, np.asarray(soft), np.asarray(bits[1:], dtype=float), estimate_noise_power(y)
