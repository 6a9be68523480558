import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma, ks_2samp, kstest, ncx2

from helpers import erlang_mixture_cdf, full_chain_h0, full_chain_h1

from cpdsss.channel import apply_channel, draw_taps
from cpdsss.errors import ConfigError
from cpdsss.channel import ProfileKind
from cpdsss.experiments import (
    CSV_COLUMNS,
    BerGate,
    ChannelConfig,
    CurveConfig,
    ExperimentConfig,
    ExperimentKind,
    ThresholdMode,
    _Scenario,
    amplitude_for_snr,
    chunk_rng,
    run_experiment,
    trial_rng,
    wilson_interval,
)
from cpdsss.rx import despread_full, extract_user, pairwise_stats
from cpdsss.tx import add_cp, build_message, remove_cp


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


@st.composite
def config_mappings(draw):
    """Mappings of valid configs, every field drawn."""
    k_max = draw(st.integers(1, 12))
    l_taps = draw(st.integers(1, 60))
    n_len = draw(st.integers((k_max + 1) * (l_taps + 1), 4096))
    positive = st.floats(min_value=1e-300, max_value=1e300)
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    curves = [{"k_bits": k, "m_of_n": draw(st.integers(1, k * (k + 1) // 2))}
              for k in draw(st.lists(st.integers(1, k_max), min_size=1, max_size=3))]
    # a plain file name: it names the output files
    name = st.text(st.characters(exclude_characters="/\0" + os.sep), max_size=8).filter(
        lambda s: s not in (".", ".."))
    # the received power (1 + 10 ** (snr / 10)) * n_len * noise_var is at most 1e300, and
    # 10 ** (snr / 10) itself stays in the float range
    noise_var = draw(st.floats(min_value=1e-300, max_value=1e300 / (2 * n_len)))
    snr_max = 10 * math.log10(min(1e300 / (n_len * noise_var), 1e300) - 1) - 1
    return {
        "kind": draw(st.sampled_from(ExperimentKind)).value,
        "name": draw(name),
        "n_len": n_len,
        "cp_len": draw(st.integers(0, n_len - 1)),
        "l_taps": l_taps,
        "zc_root": draw(st.integers(1, 2 * n_len).filter(lambda r: math.gcd(r, n_len) == 1)),
        "noise_var": noise_var,
        "curves": curves,
        "target_pfa": draw(unit),
        "snr_grid_db": draw(st.lists(st.floats(max_value=snr_max, allow_nan=False,
                                               allow_infinity=False), min_size=1, max_size=4)),
        "num_trials": draw(st.integers(1, 10**9)),
        "master_seed": draw(st.integers(0, 2**64)),
        "threshold_mode": draw(st.sampled_from(ThresholdMode)).value,
        "ber_detection_gate": draw(st.sampled_from(BerGate)).value,
        "roc_pfa_grid": draw(st.lists(unit, min_size=1, max_size=4)),
        "dist_bins": draw(st.integers(1, 500)),
        "channel": {
            "kind": draw(st.sampled_from(ProfileKind)).value,
            "rms_delay_spread_ns": draw(positive),
            "sample_rate_hz": draw(positive),
            "max_taps": draw(st.integers(1, 512)),
            "normalize_each_draw": draw(st.booleans()),
        },
    }


@settings(derandomize=True, deadline=None, max_examples=200)
@given(config_mappings())
def test_config_round_trip_property(mapping):
    # the strategy draws every field at every level: a new field fails here until drawn
    assert set(mapping) == {f.name for f in fields(ExperimentConfig)}
    assert set(mapping["channel"]) == {f.name for f in fields(ChannelConfig)}
    assert all(set(c) == {f.name for f in fields(CurveConfig)} for c in mapping["curves"])
    c = ExperimentConfig.from_mapping(mapping)
    for again in (ExperimentConfig.from_mapping(c.to_mapping()),
                  ExperimentConfig.from_mapping(json.loads(json.dumps(c.to_mapping())))):
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


def test_chunk_rng_streams_are_stable_and_distinct():
    a = chunk_rng(1, 2, 3, 1, 4).standard_normal(4)
    b = chunk_rng(1, 2, 3, 1, 4).standard_normal(4)
    c = chunk_rng(1, 2, 3, 1, 5).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chunk_rng_keys_curve_and_snr_point_separately():
    # a salt of curve * 4096 + snr point gave these two keys one stream
    a = chunk_rng(1, 0, 4096, 1, 0).standard_normal(4)
    b = chunk_rng(1, 1, 0, 1, 0).standard_normal(4)
    assert not np.array_equal(a, b)


# ----------------------------------------------------------------- sampler ----

SAMPLER_CHANNELS = {
    # id: (config overrides, channel taps)
    "tdl_a_300ns": ({}, 90),  # 18 taps beyond the CP of 72
    "exp_pdp_cp_long": ({"channel": {"kind": "exp_pdp", "max_taps": 72}}, 72),
    "flat": ({"channel": {"kind": "flat"}}, 1),
    "unnormalized": ({"channel": {"normalize_each_draw": False}}, 90),
    "longer_than_frame": (
        {"n_len": 64, "cp_len": 8, "l_taps": 4,
         "channel": {"kind": "exp_pdp", "max_taps": 128, "rms_delay_spread_ns": 3000.0}},
        128,
    ),
}


@pytest.mark.parametrize("k_bits", [1, 10])
@pytest.mark.parametrize("case", SAMPLER_CHANNELS.values(), ids=SAMPLER_CHANNELS)
def test_sampler_signal_equals_full_chain(case, k_bits):
    overrides, n_taps = case
    config = cfg(kind="pmd", snr_grid_db=[0.0], curves=[{"k_bits": k_bits, "m_of_n": 1}],
                 **overrides)
    sc = _Scenario(config, config.curves[0])
    assert len(sc.config.channel.pdp) == n_taps
    rng = np.random.default_rng(17)
    size, amp = 6, 3.0
    bits = rng.choice([-1, 1], size=(size, k_bits))
    taps = draw_taps(sc.config.channel, rng, size)
    windows, energy = sc.window_signal(amp * np.hstack([np.ones((size, 1)), bits]), taps)
    for b in range(size):
        body = build_message(sc.basis, sc.assign, [1, *bits[b]], amp)
        received = apply_channel(add_cp(body, config.cp_len), taps[b])
        y = remove_cp(received, config.cp_len)
        expected = extract_user(despread_full(sc.basis, y), sc.assign).vectors
        assert np.abs(windows[b] - expected).max() <= 1e-10 * np.abs(expected).max()
        assert energy[b] == pytest.approx(np.vdot(y, y).real, rel=1e-10)


def _chunk_and_signal(sc, seed, size, amp):
    """A message chunk from ``seed``, and its noiseless signal redrawn in the chunk's order."""
    ch = sc.chunk(np.random.default_rng(seed), 1, amp, size)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(size, sc.curve.k_bits)) * 2.0 - 1.0
    taps = draw_taps(sc.config.channel, rng, size)
    windows, energy = sc.window_signal(amp * np.hstack([np.ones((size, 1)), bits]), taps)
    return ch, bits, windows, energy


@pytest.mark.parametrize("k_bits", [1, 10])
def test_chunk_at_vanishing_noise_is_the_noiseless_signal(k_bits):
    config = cfg(kind="pmd", snr_grid_db=[0.0], curves=[{"k_bits": k_bits, "m_of_n": 1}],
                 noise_var=1e-24)
    sc = _Scenario(config, config.curves[0])
    ch, bits, windows, energy = _chunk_and_signal(sc, 3, 50, 2.0)
    assert np.array_equal(ch.bits, bits)
    assert ch.est * config.n_len == pytest.approx(energy, rel=1e-9)
    assert ch.c == pytest.approx(pairwise_stats(windows)[0], rel=1e-9)
    soft = np.einsum("bl,bkl->bk", windows[:, 0].conj(), windows[:, 1:]).real
    assert ch.soft == pytest.approx(soft, rel=1e-9)


def test_frame_power_given_the_signal_is_noncentral_chi2():
    # 2N est / sigma^2 is noncentral chi^2 with 2N degrees of freedom and
    # noncentrality 2E / sigma^2, E the noiseless frame energy; at L=4 most
    # of E lies outside the windows, where only the frame power sees it
    config = cfg(kind="pmd", snr_grid_db=[0.0], l_taps=4, noise_var=0.5)
    sc = _Scenario(config, config.curves[0])
    amp = amplitude_for_snr(0.0, config.n_len, config.noise_var, 1)
    parts = [_chunk_and_signal(sc, seed, 256, amp) for seed in range(40)]
    est = np.concatenate([p[0].est for p in parts])
    energy = np.concatenate([p[3] for p in parts])
    in_windows = np.concatenate([np.sum(np.abs(p[2]) ** 2, axis=(1, 2)) for p in parts])
    assert np.mean(energy - in_windows) > 0.5 * np.mean(energy)
    dof = 2 * config.n_len
    uniform = ncx2.cdf(dof * est / config.noise_var, dof, 2 * energy / config.noise_var)
    assert kstest(uniform, "uniform").pvalue > 1e-3


def test_noise_only_frame_power_is_gamma_distributed():
    # N * est / sigma^2 sums N unit-mean exponentials: Gamma(N, 1), exactly
    config = cfg(kind="pfa", noise_var=2.5)
    sc = _Scenario(config, config.curves[0])
    est = np.concatenate([sc.chunk(chunk_rng(8, 0, 0, 0, q), 0, 0.0, 256).est for q in range(200)])
    scaled = est * config.n_len / config.noise_var
    assert kstest(scaled, gamma(config.n_len).cdf).pvalue > 1e-3


def _assert_sampler_matches_full_chain(config, hypothesis, amp, seed):
    """KS of the sampler's chunks against frames through the full chain, one scalar a trial."""
    sc = _Scenario(config, config.curves[0])
    m_of_n = sc.curve.m_of_n

    def scalars(c, soft, est):
        return {"c[0]": c[..., 0], "mth": np.sort(c, axis=-1)[..., -m_of_n],
                "soft[0]": soft[..., 0], "est": est}

    sampled = [scalars(ch.c, ch.soft, ch.est)
               for ch in (sc.chunk(chunk_rng(seed, 0, 0, hypothesis, q), hypothesis, amp, 256)
                          for q in range(24))]
    oracle = []
    for t in range(3000):
        rng = np.random.default_rng(np.random.SeedSequence((seed + 1, hypothesis, t)))
        if hypothesis:
            c, soft, _, est = full_chain_h1(sc, rng, amp)
        else:
            c, soft, est = full_chain_h0(sc, rng)
        oracle.append(scalars(c, soft, est))
    # one scalar per trial and statistic: pooling the correlated pairs of a
    # trial would make the test reject too often
    for name in oracle[0]:
        p_value = ks_2samp(np.concatenate([s[name] for s in sampled]),
                           [o[name] for o in oracle]).pvalue
        assert p_value > 1e-3, f"{name}: KS p = {p_value:.2g}"


@pytest.mark.parametrize("hypothesis", [0, 1])
@pytest.mark.parametrize("k_bits, m_of_n", [(1, 1), (10, 20)])
def test_sampler_matches_full_chain_in_distribution(k_bits, m_of_n, hypothesis):
    config = cfg(kind="pmd", snr_grid_db=[-12.0], curves=[{"k_bits": k_bits, "m_of_n": m_of_n}],
                 threshold_mode="est_sigma")
    amp = amplitude_for_snr(-12.0, config.n_len, config.noise_var, k_bits)
    _assert_sampler_matches_full_chain(config, hypothesis, amp, seed=5)


@pytest.mark.parametrize("k_bits, l_taps, m_of_n", [(10, 40, 20), (10, 4, 20), (3, 1, 2)])
def test_noise_only_gram_matches_full_chain_in_distribution(k_bits, l_taps, m_of_n):
    # noise-only chunks are drawn as the LQ factor of the windows; with L < K + 1
    # (the last two cases) it is a trapezoid of rank L
    config = cfg(kind="pfa", l_taps=l_taps, noise_var=2.5,
                 curves=[{"k_bits": k_bits, "m_of_n": m_of_n}])
    _assert_sampler_matches_full_chain(config, 0, 0.0, seed=7)


# ------------------------------------------------------------- experiments ----

PFA_QUICK = dict(kind="pfa", target_pfa=0.05, num_trials=20_000, master_seed=11)


def test_run_pfa_matches_target_at_quick_scale():
    res = run_experiment(cfg(**PFA_QUICK))
    row = res.rows[0]
    assert row.metric == "pfa"
    assert row.ci_low <= 0.05 <= row.ci_high
    assert res.derived["curves"][0]["p0"] == pytest.approx(0.05, abs=1e-12)


def test_results_identical_across_worker_counts():
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=3_000, master_seed=3)
    r1 = run_experiment(c, jobs=1)
    r4 = run_experiment(c, jobs=4)
    assert r1.to_csv_text() == r4.to_csv_text()
    c2 = cfg(kind="pmd", snr_grid_db=[-12.0], num_trials=600, master_seed=3)
    assert run_experiment(c2, jobs=1).to_csv_text() == run_experiment(c2, jobs=5).to_csv_text()


@pytest.mark.parametrize("kind", ["pmd", "roc"])
def test_one_pool_runs_every_point_of_every_curve(kind):
    # two curves of different (K, M) and 3 SNR points of 700 trials, three chunks each, the
    # last one short: a run submits all of them to one pool, whatever the worker count
    common = dict(kind=kind, snr_grid_db=[-13.0, -12.0, -11.0], num_trials=700, master_seed=21,
                  roc_pfa_grid=[1e-2, 1e-1])
    both = cfg(**common, curves=[{"k_bits": 1, "m_of_n": 1}, {"k_bits": 10, "m_of_n": 20}])
    texts = [run_experiment(both, jobs=jobs).to_csv_text() for jobs in (1, 2, 3)]
    assert texts[0] == texts[1] == texts[2]
    # the first curve's chunks draw the streams of a run of that curve alone, and its
    # reducer must hold its own detector, not the last curve's
    alone = run_experiment(cfg(**common, curves=[{"k_bits": 1, "m_of_n": 1}])).to_csv_text()
    first = [line for line in texts[0].splitlines()[1:] if line.split(",")[3:5] == ["1", "1"]]
    assert first == alone.splitlines()[1:]


def test_est_sigma_threshold_mode_tracks_target():
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=20_000, master_seed=13,
            threshold_mode="est_sigma")
    row = run_experiment(c).rows[0]
    assert row.ci_low <= 0.05 <= row.ci_high


def test_run_pmd_zero_misses_at_high_snr():
    c = cfg(kind="pmd", snr_grid_db=[0.0], num_trials=1_000, master_seed=2)
    row = run_experiment(c).rows[0]
    assert row.metric == "pmd" and row.value == 0.0


def test_run_dist_h0_matches_analytic_and_h1_offset():
    c = cfg(kind="dist", snr_grid_db=[0.0], num_trials=20_000, master_seed=4,
            dist_bins=40)
    res = run_experiment(c)
    # the H0 samples of the run: its noise-only point (curve 0, SNR point 0, hypothesis 0)
    sc = _Scenario(c, c.curves[0])
    h0 = np.concatenate([sc.chunk(chunk_rng(4, 0, 0, 0, q), 0, 0.0, min(256, 20_000 - 256 * q)).c
                         for q in range(-(-20_000 // 256))]).ravel()
    ks = kstest(h0, lambda x: erlang_mixture_cdf(40, 1.0, x))
    assert ks.pvalue > 0.01
    metrics = {r.metric: r.value for r in res.rows}
    assert metrics["h0_c_mean"] == float(h0.mean())  # the run drew these very samples
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
    res = run_experiment(c)
    pd = [r.value for r in res.rows if r.metric.startswith("pd@")]
    pfa_emp = [r.value for r in res.rows if r.metric.startswith("pfa_emp@")]
    assert all(b >= a for a, b in zip(pd, pd[1:]))  # PD nondecreasing in PFA
    for p, f in zip(pd, pfa_emp):
        assert p >= f  # above the chance diagonal


def test_run_roc_k10_underperforms_k1_at_matched_pfa():
    common = dict(kind="roc", snr_grid_db=[-12.0], num_trials=3_000, master_seed=14,
                  roc_pfa_grid=[1e-3])
    pd1 = run_experiment(cfg(**common, curves=[{"k_bits": 1, "m_of_n": 1}])).rows[0].value
    pd10 = run_experiment(cfg(**common, curves=[{"k_bits": 10, "m_of_n": 20}])).rows[0].value
    assert pd1 > pd10 + 0.05  # sharing power over 11 codes costs detection


def test_run_roc_chance_level_when_no_signal():
    # an H1 ensemble with (essentially) zero amplitude behaves like noise
    c = cfg(kind="roc", snr_grid_db=[-400.0], num_trials=4_000, master_seed=8,
            roc_pfa_grid=[0.05, 0.2])
    res = run_experiment(c)
    pd = {r.metric: r.value for r in res.rows if r.metric.startswith("pd@")}
    for metric, value in pd.items():
        target = float(metric.split("=")[1])
        se = 3 * math.sqrt(target * (1 - target) / c.num_trials)
        assert abs(value - target) < se + 0.01


def test_run_ber_increases_with_k_and_gating_rows():
    common = dict(kind="ber", snr_grid_db=[-14.0], num_trials=2_000, master_seed=9)
    ber1 = run_experiment(cfg(**common)).rows[0].value
    ber10 = run_experiment(cfg(**common, curves=[{"k_bits": 10, "m_of_n": 1}])).rows[0].value
    assert ber10 > ber1 > 0
    gated = run_experiment(cfg(**common, ber_detection_gate="cfar"))
    metrics = [r.metric for r in gated.rows]
    assert "ber" in metrics and "detect_rate" in metrics


def test_csv_schema_and_write(tmp_path):
    c = cfg(kind="pfa", target_pfa=0.05, num_trials=500, master_seed=1, name="demo")
    res = run_experiment(c)
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


def test_every_kind_is_declared_once():
    # run_experiment reads what a kind designs, draws and counts from its record alone
    from cpdsss.experiments import _KINDS

    assert set(_KINDS) == set(ExperimentKind)
    ber = dict(kind="ber", snr_grid_db=[-10.0], target_pfa=0.01)
    assert _KINDS[ExperimentKind.BER].pfas(cfg(**ber)) == ()
    assert _KINDS[ExperimentKind.BER].pfas(cfg(**ber, ber_detection_gate="cfar")) == (0.01,)


def test_run_experiment_dispatch():
    c = cfg(kind="pfa", target_pfa=0.1, num_trials=200, master_seed=1)
    assert run_experiment(c).rows[0].metric == "pfa"
