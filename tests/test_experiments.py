import json
import math

import numpy as np
import pytest
from scipy.stats import kstest

from helpers import erlang_mixture_cdf

from cpdsss.errors import ConfigError
from cpdsss.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ThresholdMode,
    amplitude_for_snr,
    run_ber,
    run_dist,
    run_experiment,
    run_pfa,
    run_pmd,
    run_roc,
    trial_rng,
    wilson_interval,
)


def cfg(**kw):
    return ExperimentConfig.from_mapping(kw)


# ------------------------------------------------------------------ config ----

def test_defaults_match_frame_numerology():
    c = cfg(kind="pfa")
    assert (c.n_len, c.cp_len, c.l_taps) == (1024, 72, 40)
    assert c.channel.kind == "tdl_a"
    assert c.channel.rms_delay_spread_ns == 300.0
    assert c.threshold_mode is ThresholdMode.ANALYTIC_TRUE_SIGMA


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        cfg(kind="pfa", bogus=1)
    with pytest.raises(ConfigError, match="unknown channel keys"):
        cfg(kind="pfa", channel={"bogus": 1})
    with pytest.raises(ConfigError, match="unknown curve keys"):
        cfg(kind="pfa", curves=[{"k": 1}])


def test_curves_and_toplevel_bits_conflict():
    with pytest.raises(ConfigError):
        cfg(kind="pfa", k_bits=1, curves=[{"k_bits": 1}])


def test_validation_errors():
    with pytest.raises(ConfigError):
        cfg(kind="nope")
    with pytest.raises(ConfigError):
        cfg(kind="pfa", k_bits=0)
    with pytest.raises(ConfigError):
        cfg(kind="pfa", k_bits=1, m_of_n=2)  # only one pair exists
    with pytest.raises(ConfigError):
        cfg(kind="pmd")  # snr grid required
    with pytest.raises(ConfigError):
        cfg(kind="pfa", target_pfa=1.5)
    with pytest.raises(ConfigError):
        cfg(kind="pfa", threshold_mode="sometimes")
    with pytest.raises(ConfigError):
        cfg(kind="pfa", cp_len=1024)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_values_rejected(bad):
    with pytest.raises(ConfigError, match="noise_var must be finite"):
        cfg(kind="pfa", noise_var=bad)
    with pytest.raises(ConfigError, match="rms_delay_spread_ns must be finite"):
        cfg(kind="pfa", channel={"rms_delay_spread_ns": bad})
    with pytest.raises(ConfigError, match="sample_rate_hz must be finite"):
        cfg(kind="pfa", channel={"sample_rate_hz": bad})


def test_config_round_trip():
    c = cfg(kind="pmd", snr_grid_db=[-12.0, -11.0], curves=[{"k_bits": 10, "m_of_n": 20}],
            master_seed=7)
    again = ExperimentConfig.from_mapping(c.to_mapping())
    assert again == c
    assert again.config_hash() == c.config_hash()


def test_amplitude_for_snr_definition():
    # per-sample rx power = amp^2 (K+1) / N; configured snr = that over sigma^2
    amp = amplitude_for_snr(-12.0, 1024, 1.0, 1)
    assert amp**2 * 2 / 1024 == pytest.approx(10 ** (-1.2), rel=1e-12)


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(5, 100)
    z = 1.959963984540054
    denom = 1 + z * z / 100
    center = (0.05 + z * z / 200) / denom
    half = z / denom * math.sqrt(0.05 * 0.95 / 100 + z * z / (4 * 100 * 100))
    assert lo == pytest.approx(center - half, rel=1e-12)
    assert hi == pytest.approx(center + half, rel=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-12)


def test_trial_rng_streams_are_stable_and_distinct():
    a = trial_rng(1, 2, 3).standard_normal(4)
    b = trial_rng(1, 2, 3).standard_normal(4)
    c = trial_rng(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------- experiments ----

PFA_QUICK = dict(kind="pfa", target_pfa=0.05, num_trials=20_000, master_seed=11)


def test_run_pfa_matches_target_at_quick_scale():
    res = run_pfa(cfg(**PFA_QUICK))
    row = res.rows[0]
    assert row.metric == "pfa"
    assert row.ci_low <= 0.05 <= row.ci_high
    assert res.derived["curves"][0]["p0"] == pytest.approx(0.05, abs=1e-12)


def test_results_identical_across_worker_counts():
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=3_000, master_seed=3)
    r1 = run_pfa(c, jobs=1)
    r4 = run_pfa(c, jobs=4)
    assert r1.to_csv_text() == r4.to_csv_text()
    c2 = cfg(kind="pmd", snr_grid_db=[-12.0], num_trials=600, master_seed=3)
    assert run_pmd(c2, jobs=1).to_csv_text() == run_pmd(c2, jobs=5).to_csv_text()


def test_est_sigma_threshold_mode_tracks_target():
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=20_000, master_seed=13,
            threshold_mode="est_sigma")
    row = run_pfa(c).rows[0]
    assert row.ci_low <= 0.05 <= row.ci_high


def test_run_pmd_zero_misses_at_high_snr():
    c = cfg(kind="pmd", snr_grid_db=[0.0], num_trials=1_000, master_seed=2)
    row = run_pmd(c).rows[0]
    assert row.metric == "pmd" and row.value == 0.0


def test_run_dist_h0_matches_analytic_and_h1_offset():
    c = cfg(kind="dist", snr_grid_db=[0.0], num_trials=20_000, master_seed=4,
            dist_bins=40)
    res = run_dist(c)
    samples = res.extras[(1, 0.0)]
    ks = kstest(samples["h0"], lambda x: erlang_mixture_cdf(40, 1.0, x))
    assert ks.pvalue > 0.01
    metrics = {r.metric: r.value for r in res.rows}
    amp2 = metrics["expected_h1_offset"]
    assert amp2 == pytest.approx(amplitude_for_snr(0.0, 1024, 1.0, 1) ** 2, rel=1e-12)
    # at high SNR the histogram separation approaches the analytic offset
    assert abs(metrics["h1_minus_h0_mean"] - amp2) / amp2 < 0.05
    assert metrics["ks_h0_h1"] > 0.9  # distributions far apart at 0 dB
    hist_total = sum(v for k, v in metrics.items() if k.startswith("h0_hist_"))
    assert hist_total <= c.num_trials  # one pair per trial at K=1


def test_run_roc_monotone_and_dominant():
    c = cfg(kind="roc", snr_grid_db=[-12.0], num_trials=3_000, master_seed=6,
            roc_pfa_grid=[1e-3, 1e-2, 1e-1, 3e-1])
    res = run_roc(c)
    pd = [r.value for r in res.rows if r.metric.startswith("pd@")]
    pfa_emp = [r.value for r in res.rows if r.metric.startswith("pfa_emp@")]
    assert all(b >= a for a, b in zip(pd, pd[1:]))  # PD nondecreasing in PFA
    for p, f in zip(pd, pfa_emp):
        assert p >= f  # above the chance diagonal


def test_run_roc_k10_underperforms_k1_at_matched_pfa():
    common = dict(kind="roc", snr_grid_db=[-12.0], num_trials=3_000, master_seed=14,
                  roc_pfa_grid=[1e-3])
    pd1 = run_roc(cfg(**common, curves=[{"k_bits": 1, "m_of_n": 1}])).rows[0].value
    pd10 = run_roc(cfg(**common, curves=[{"k_bits": 10, "m_of_n": 20}])).rows[0].value
    assert pd1 > pd10 + 0.05  # sharing power over 11 codes costs detection


def test_run_roc_chance_level_when_no_signal():
    # an H1 ensemble with (essentially) zero amplitude behaves like noise
    c = cfg(kind="roc", snr_grid_db=[-400.0], num_trials=4_000, master_seed=8,
            roc_pfa_grid=[0.05, 0.2])
    res = run_roc(c)
    pd = {r.metric: r.value for r in res.rows if r.metric.startswith("pd@")}
    for metric, value in pd.items():
        target = float(metric.split("=")[1])
        se = 3 * math.sqrt(target * (1 - target) / c.num_trials)
        assert abs(value - target) < se + 0.01


def test_run_ber_increases_with_k_and_gating_rows():
    common = dict(kind="ber", snr_grid_db=[-14.0], num_trials=2_000, master_seed=9)
    ber1 = run_ber(cfg(**common)).rows[0].value
    ber10 = run_ber(cfg(**common, curves=[{"k_bits": 10, "m_of_n": 1}])).rows[0].value
    assert ber10 > ber1 > 0
    gated = run_ber(cfg(**common, ber_detection_gate="cfar"))
    metrics = [r.metric for r in gated.rows]
    assert "ber" in metrics and "detect_rate" in metrics


def test_csv_schema_and_write(tmp_path):
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=500, master_seed=1, name="demo")
    res = run_pfa(c)
    csv_path, sidecar = res.write(tmp_path)
    text = open(csv_path).read()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + len(res.rows)
    side = json.loads(open(sidecar).read())
    assert side["config"] == c.to_mapping()
    assert side["config_hash"] == c.config_hash()
    assert side["code_version"]
    # rewriting is atomic and idempotent
    res.write(tmp_path)
    assert open(csv_path).read() == text


def test_run_experiment_dispatch():
    c = cfg(kind="pfa", target_pfa=0.1, num_trials=200, master_seed=1)
    assert run_experiment(c).rows[0].metric == "pfa"
    with pytest.raises(ConfigError):
        run_pmd(c)  # wrong kind for the runner
