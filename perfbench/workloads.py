"""Workload definitions shared by the benchmark's parent and child processes.

Every workload is fixed here, so that a later change to the package's
defaults does not silently change what the benchmark measures. Inputs are
derived from the ``--seed`` argument only: the CLI workload passes it on as
``master_seed`` (``cpdsss simulate --seed``) and the design workload uses it
to order its grid.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

N_LEN = 1024
CP_LEN = 72
L_TAPS = 40
TDL_A_300NS = {"kind": "tdl_a", "rms_delay_spread_ns": 300.0, "sample_rate_hz": 30.72e6}

# The CLI workload reads this file; its seed comes from `cpdsss simulate --seed`.
CLI_CONFIG_PATH = HERE / "cli_roc.json"
CLI_JOBS = 2

# design_grid: L x (K, M) x target PFA x noise variance = 81 designs.
DESIGN_GRID = tuple(
    {"l_taps": l_taps, "k_bits": k, "m_of_n": m, "target_pfa": pfa, "noise_var": nv}
    for l_taps, (k, m), pfa, nv in itertools.product(
        (1, 5, 40), ((1, 1), (10, 1), (10, 20)), (1e-3, 1e-6, 1e-9), (0.5, 1.0, 2.0)
    )
)
# Set-up of design_grid is one design row: the design-threshold CLI defaults.
SETUP_DESIGN = {"l_taps": 40, "k_bits": 1, "m_of_n": 1, "target_pfa": 1e-3, "noise_var": 1.0}

WORKLOADS = ("design_grid", "cli_roc_jobs2")
MIN_REPS = 3  # a run measures at least this many reps, however long they take


def another_rep(reps_done: int, elapsed_s: float, last_rep_s: float, seconds: float) -> bool:
    """Start another rep while one is owed, or while it should end inside the window."""
    return reps_done < MIN_REPS or elapsed_s + last_rep_s <= seconds


def cli_config() -> dict:
    return json.loads(CLI_CONFIG_PATH.read_text())


def trials_per_run(mapping: dict) -> int:
    """Monte Carlo trials of one ROC run: an H0 set per curve plus an H1 set per SNR point."""
    if mapping["kind"] != "roc":
        raise ValueError(f"no trial count for kind {mapping['kind']!r}")
    points = len(mapping["snr_grid_db"])
    return len(mapping["curves"]) * (1 + points) * mapping["num_trials"]


def window_use_frac(workload: str) -> float:
    """Share (K+1)*L/N of the despread vector the receiver reads, averaged over curves."""
    if workload == "design_grid":
        return 0.0
    mapping = cli_config()
    fracs = [(c["k_bits"] + 1) * mapping["l_taps"] / mapping["n_len"] for c in mapping["curves"]]
    return sum(fracs) / len(fracs)
