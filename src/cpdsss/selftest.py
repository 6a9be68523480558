"""Built-in invariant checks behind the ``cpdsss selftest`` command.

Each check is a small, fast verification of a core numerical property:
sequence orthogonality, FFT/dense receiver equivalence, density
normalization, Bessel identities, and the false-alarm combinatorics
round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, rx, tx, zc


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_zc_orthogonality() -> str:
    worst = 0.0
    for n_len, root in ((64, 1), (63, 2), (64, 7)):
        basis = zc.generate_zc(n_len, root)
        shifts = np.stack([zc.cyclic_shift(basis, i) for i in range(n_len)])
        gram = shifts.conj() @ shifts.T
        off = gram - np.eye(n_len)
        worst = max(worst, float(np.abs(off).max()))
    assert worst < 1e-10, f"max off-diagonal inner product {worst:.3e}"
    return f"max |<z_i, z_j>| off-diagonal = {worst:.2e}"


def _check_flat_spectrum() -> str:
    basis = zc.generate_zc(256, 1)
    mags = np.abs(np.fft.fft(basis.seq))
    dev = float(np.abs(mags - 1.0).max())
    assert dev < 1e-9, f"spectrum flatness deviation {dev:.3e}"
    return f"max | |Z[k]| - 1 | = {dev:.2e}"


def _check_cp_roundtrip() -> str:
    rng = np.random.default_rng(7)
    body = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    out = tx.remove_cp(tx.add_cp(body, 72), 72)
    assert out.shape == body.shape and np.array_equal(out, body), "CP round trip differs"
    return "remove_cp(add_cp(x)) == x for N=1024, cp=72"


def _check_despread_equivalence() -> str:
    n_len = 64
    basis = zc.generate_zc(n_len, 1)
    rng = np.random.default_rng(11)
    y = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    dense = np.stack([np.conj(zc.cyclic_shift(basis, i)) for i in range(n_len)]) @ y
    fast = rx.despread_full(basis, y)
    diff = float(np.abs(fast - dense).max())
    assert diff < 1e-9, f"FFT vs dense despreading differ by {diff:.3e}"
    return f"max |fft - dense| = {diff:.2e} at N={n_len}"


def _check_pdf_normalization() -> str:
    from scipy import integrate  # only this check needs scipy; importing the module does not

    worst = 0.0
    for l_taps in (1, 5, 40):
        pdf = analysis.H0Pdf(l_taps, 1.0)
        total, _ = integrate.quad(lambda t: analysis.h0_pdf(pdf, t), 0.0, np.inf, limit=400)
        worst = max(worst, abs(total - 1.0))
    assert worst < 1e-6, f"density mass deviates from 1 by {worst:.3e}"
    return f"max |integral - 1| over L in (1,5,40) = {worst:.2e}"


def _check_threshold_l1() -> str:
    eta = analysis.solve_threshold(analysis.H0Pdf(1, 1.0), 0.01)
    expected = math.log(100.0) / 2.0
    assert abs(eta - expected) < 1e-8, f"eta {eta} vs analytic {expected}"
    return f"eta(L=1, p0=0.01) = {eta:.9f}"


def _check_bessel_base() -> str:
    worst = 0.0
    for x in (0.5, 2.0, 10.0):
        got = analysis.bessel_k_half(0, x)
        ref = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-12, f"half-order base case off by {worst:.3e}"
    return f"max rel error of K_1/2 closed form = {worst:.2e}"


def _check_bessel_recurrence() -> str:
    worst = 0.0
    for a in (1, 2, 3, 5, 10):
        for x in (0.3, 1.0, 4.0, 20.0):
            lhs = analysis.bessel_k_half(a + 1, x)
            rhs = analysis.bessel_k_half(a - 1, x) + (2 * a + 1) / x * analysis.bessel_k_half(a, x)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-10, f"recurrence residual {worst:.3e}"
    return f"max rel recurrence residual = {worst:.2e}"


def _check_beta_roundtrip() -> str:
    # inversion contract: feeding the inverse back through the forward map
    # reproduces the requested rate; p0 itself is only recoverable where
    # the forward map is not saturated in float64. The error is relative,
    # since the rates reach down to 1e-100
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 56))
        m = int(rng.integers(1, n + 1))
        pfa = float(10.0 ** rng.uniform(-100.0, np.log10(1 - 1e-6)))
        back = analysis.pfa_from_p0(analysis.p0_from_pfa(pfa, n, m), n, m)
        worst = max(worst, abs(back / pfa - 1))
    assert worst < 1e-12, f"relative round-trip error {worst:.3e}"
    return f"max |roundtrip(pfa)/pfa - 1| = {worst:.2e}"


def _check_calculators() -> str:
    occ = analysis.occupancy_fraction(20, 500, 30000)
    gain = analysis.processing_gain_db(1024)
    assert occ == 1.0 / 3.0, f"occupancy {occ} != 1/3"
    assert abs(gain - 30.103) < 1e-3, f"processing gain {gain}"
    return f"occupancy=1/3, gain={gain:.4f} dB"


CHECKS = [
    ("zc_orthogonality", _check_zc_orthogonality),
    ("zc_flat_spectrum", _check_flat_spectrum),
    ("cp_roundtrip", _check_cp_roundtrip),
    ("fft_despread_equivalence", _check_despread_equivalence),
    ("h0_pdf_normalization", _check_pdf_normalization),
    ("threshold_l1_analytic", _check_threshold_l1),
    ("bessel_half_order_base", _check_bessel_base),
    ("bessel_recurrence", _check_bessel_recurrence),
    ("beta_roundtrip", _check_beta_roundtrip),
    ("traffic_calculators", _check_calculators),
]


def run_checks(name_filter: str = "") -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report any failure mode
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
