"""Correctness checks on the benchmark's outputs, independent of the package's arithmetic.

ROC rows are compared with reference counts recorded from the seed
(``reference.json``) by Fisher's exact test, so they survive any change of
the package's random streams that keeps the statistics. A row fails only
when the two-sided p-value is below ``P_FAIL``; over the few thousand rows
a full benchmark session checks, a correct program then fails a row with
probability well below 1%.

Designs are checked against scipy's incomplete beta (p0) and an mpmath
evaluation of the closed-form noise-only survival function (eta). The
statistic |Re y_i^H y_j| is |G1 - G2| with G1, G2 independent
Gamma(L, sigma^2/2), so with t = x / (sigma^2/2)

    P(|G1 - G2| > x) = 2 e^-t sum_{k<L} sum_{j<=k} C(k,j) t^(k-j)/k! * Gamma(L+j) / (Gamma(L) 2^(L+j)).
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath
from scipy.special import betainc, betaincinv
from scipy.stats import fisher_exact

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
P_FAIL = 1e-7
# 10^6 trials at PFA 1e-3 resolve the false-alarm rate to about +-6%, so a
# 1% error is below anything a user can see; a larger one fails.
PFA_REL_TOL = 1e-2
TAIL_DIGITS_CAP = 12.0


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def row_key(row: dict) -> str:
    return f"{row['metric']}|K{row['k_bits']}|M{row['m_of_n']}|snr{row['snr_db']}"


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def row_count(row: dict) -> tuple[int, int]:
    """(events, trials) of a rate row; the CSV value is events/trials to 12 digits."""
    trials = int(row["trials"])
    return int(round(float(row["value"]) * trials)), trials


def check_rows(rows: list[dict], reference: dict) -> list[str]:
    """Problems with one run's rate rows against the recorded reference counts."""
    problems = []
    seen = set()
    for row in rows:
        key = row_key(row)
        seen.add(key)
        if key not in reference:
            problems.append(f"unexpected row {key}")
            continue
        events, trials = row_count(row)
        if not 0 <= events <= trials:
            problems.append(f"{key}: value {row['value']} out of range")
            continue
        ref_events, ref_trials = reference[key]
        table = [[events, trials - events], [ref_events, ref_trials - ref_events]]
        p_value = fisher_exact(table).pvalue
        if p_value < P_FAIL:
            problems.append(
                f"{key}: {events}/{trials} against reference {ref_events}/{ref_trials} (p={p_value:.2g})"
            )
    for key in sorted(set(reference) - seen):
        problems.append(f"missing row {key}")
    return problems


@lru_cache(maxsize=4096)
def exact_tail(l_taps: int, noise_var: float, x: float) -> mpmath.mpf:
    """P(statistic > x) under H0 by the closed-form finite sum, at 40 digits."""
    with mpmath.workdps(40):
        t = mpmath.mpf(x) / (mpmath.mpf(noise_var) / 2)
        weights = [
            mpmath.gamma(l_taps + j) / (mpmath.gamma(l_taps) * mpmath.mpf(2) ** (l_taps + j))
            for j in range(l_taps)
        ]
        total = mpmath.mpf(0)
        for k in range(l_taps):
            inner = mpmath.mpf(0)
            for j in range(k + 1):
                inner += mpmath.binomial(k, j) * t ** (k - j) * weights[j]
            total += inner / mpmath.factorial(k)
        return 2 * mpmath.exp(-t) * total


def check_design(d: dict) -> tuple[list[str], float]:
    """Problems with one design, and the relative error of its solved tail."""
    if "error" in d:
        return [f"design {d} raised {d['error']}"], math.inf
    k, m, pfa = d["k_bits"], d["m_of_n"], d["target_pfa"]
    n_pairs = k * (k + 1) // 2
    p0 = d.get("p0")
    problems = []
    if p0 is None:
        p0 = float(betaincinv(m, n_pairs - m + 1, pfa))
    else:
        realized = float(betainc(m, n_pairs - m + 1, p0))
        if not abs(realized / pfa - 1) <= PFA_REL_TOL:
            problems.append(f"design {d}: p0 gives PFA {realized:.6g} against target {pfa:.6g}")
    tail = exact_tail(d["l_taps"], d["noise_var"], d["eta"])
    rel_err = float(abs(tail / mpmath.mpf(p0) - 1))
    if not rel_err <= PFA_REL_TOL:
        problems.append(f"design {d}: exact tail at eta is {float(tail):.6g}, p0 is {p0:.6g}")
    return problems, rel_err


def tail_digits(rel_errs) -> float:
    """-log10 of the worst relative tail error, capped at TAIL_DIGITS_CAP."""
    worst = max(rel_errs)
    if worst <= 10 ** -TAIL_DIGITS_CAP:
        return TAIL_DIGITS_CAP
    return -math.log10(worst)


def designs_from_derived(derived: dict, mapping: dict) -> list[dict]:
    """The thresholds a ROC run designed, read from its sidecar's derived block."""
    out = []
    for curve in derived["curves"]:
        for pfa, eta in zip(curve["pfa_grid"], curve["eta_grid"]):
            out.append({"l_taps": mapping["l_taps"], "noise_var": mapping["noise_var"],
                        "k_bits": curve["k_bits"], "m_of_n": curve["m_of_n"],
                        "target_pfa": pfa, "eta": eta})
    return out
