import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import circular_convolve_oracle

from cpdsss.channel import (
    ChannelConfig,
    NoiseSpec,
    apply_channel,
    draw_channel,
    load_tdl_a_table,
    superpose,
)
from cpdsss.errors import ConfigError
from cpdsss.experiments import amplitude_for_snr
from cpdsss.tx import add_cp, allocate_codes, build_message, remove_cp
from cpdsss.zc import generate_zc

FS = 30.72e6
RMS = 300e-9
RMS_NS = 300.0


def ensemble_pdp(profile, rng, draws):
    acc = np.zeros(len(profile.pdp))
    for _ in range(draws):
        acc += np.abs(draw_channel(profile, rng)) ** 2
    return acc / draws


def rms_delay_spread_ns(pdp, sample_rate):
    t = np.arange(len(pdp)) / sample_rate
    p = pdp / pdp.sum()
    mu = (p * t).sum()
    return float(np.sqrt((p * t * t).sum() - mu * mu) * 1e9)


def test_tdl_table_loads_with_version():
    delays, powers_db, version = load_tdl_a_table()
    assert len(delays) == 23 and len(powers_db) == 23
    assert "version 1" in version
    assert delays[0] == 0.0 and powers_db.min() < -29.0


def test_profiles_have_unit_power_pdp():
    for prof in (
        ChannelConfig(),
        ChannelConfig(kind="exp_pdp", max_taps=72),
        ChannelConfig(kind="flat", normalize_each_draw=False),
    ):
        assert abs(prof.pdp.sum() - 1.0) < 1e-12
    # 300 ns at 30.72 MHz puts the last table tap at sample 89
    assert len(ChannelConfig().pdp) == 90


def test_tdl_a_allocates_only_kept_taps():
    # 1e9 ns spreads the table over ~3e8 samples; only max_taps of them are built
    tracemalloc.start()
    try:
        pdp = ChannelConfig(rms_delay_spread_ns=1e9, sample_rate_hz=FS, max_taps=128).pdp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pdp) == 128 and pdp[0] == 1.0
    assert peak < 1 << 20


@pytest.mark.parametrize("rms_ns, fs", [(1e12, 1e16), (1e300, 1e300)])
def test_tdl_a_delays_past_int64_keep_only_the_first_tap(rms_ns, fs):
    # the scaled delays pass the int64 range (or the float range) before they are truncated
    pdp = ChannelConfig(rms_delay_spread_ns=rms_ns, sample_rate_hz=fs, max_taps=128).pdp
    assert len(pdp) == 128 and pdp[0] == 1.0 and not pdp[1:].any()


def test_unknown_profile_kind_rejected():
    with pytest.raises(ConfigError):
        ChannelConfig(kind="garbage", rms_delay_spread_ns=RMS_NS, sample_rate_hz=FS, max_taps=16)


@pytest.mark.parametrize("kind", ["exp_pdp", "tdl_a"])
def test_nan_delay_spread_rejected(kind):
    with pytest.raises(ConfigError, match="rms_delay_spread_ns must be finite"):
        ChannelConfig(kind=kind, rms_delay_spread_ns=float("nan"), sample_rate_hz=FS)


# SHA-256 of pdp.tobytes(), recorded from the per-kind profile builder that
# ChannelConfig.pdp replaced; these settings lie outside the CSV-pinned configs
PDP_SHA256 = {
    "exp_pdp_72_taps": (
        {"kind": "exp_pdp", "max_taps": 72},
        "4c763e9af2ed959de7e89782bba9a675126698317b2160afbb493b73085eb6c4",
    ),
    "tdl_a_1e9ns_128_taps": (
        {"rms_delay_spread_ns": 1e9, "max_taps": 128},
        "91170c9662528fd302ce361383bad0080f71f1eb917dcfa9a349bbb66738d85c",
    ),
    "tdl_a_37.5ns_7.68MHz": (
        {"rms_delay_spread_ns": 37.5, "sample_rate_hz": 7.68e6},
        "ca68f5611b2e809a19751e1966db83d557001a72f0e50eba655eb9bec77647b2",
    ),
    "flat": (
        {"kind": "flat"},
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ),
    "tdl_a_1_tap": (
        {"max_taps": 1},
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ),
    "tdl_a_1024_taps": (
        {"max_taps": 1024},
        "29c9d04474330302bb1e00466566641f8cfcbf90491a8030859524a4c063b821",
    ),
    "exp_pdp_1024_taps": (
        {"kind": "exp_pdp", "max_taps": 1024},
        "935b714aaac4ec4f3c783fbfaf78efd31961f1ddae9c5f85ab502c0affd2330d",
    ),
}


@pytest.mark.parametrize("kwargs, digest", PDP_SHA256.values(), ids=PDP_SHA256)
def test_pdp_bytes_are_pinned(kwargs, digest):
    pdp = ChannelConfig(**kwargs).pdp
    assert pdp.dtype == np.float64 and not pdp.flags.writeable
    assert hashlib.sha256(pdp.tobytes()).hexdigest() == digest


def test_flat_profile_single_tap(rng):
    prof = ChannelConfig(kind="flat", normalize_each_draw=False)
    h = draw_channel(prof, rng)
    assert h.shape == (1,)
    power = np.mean(
        [np.abs(draw_channel(prof, rng)[0]) ** 2 for _ in range(20_000)]
    )
    assert abs(power - 1.0) < 0.02


def test_normalized_draws_have_exactly_unit_energy(rng):
    prof = ChannelConfig()
    for _ in range(50):
        h = draw_channel(prof, rng)
        assert abs(np.linalg.norm(h) ** 2 - 1.0) < 1e-12


def test_unnormalized_energy_is_one_on_average(rng):
    prof = ChannelConfig(normalize_each_draw=False)
    energies = [np.linalg.norm(draw_channel(prof, rng)) ** 2 for _ in range(10_000)]
    assert abs(np.mean(energies) - 1.0) < 0.02


def test_exp_profile_decay_constant():
    prof = ChannelConfig(kind="exp_pdp", rms_delay_spread_ns=RMS_NS, sample_rate_hz=FS,
                         max_taps=72)
    beta = RMS * FS  # 9.216 samples
    ratios = prof.pdp[1:] / prof.pdp[:-1]
    assert np.abs(ratios - np.exp(-1.0 / beta)).max() < 1e-12


@pytest.mark.parametrize("rms_ns, fs", [(1e-300, 1e-300), (1e-300, 1.0)])
def test_exp_profile_spread_under_one_sample_is_the_zero_spread_limit(rms_ns, fs):
    # a spread that rounds to 0 samples once gave an all-NaN PDP, and a subnormal one
    # (1e-300 ns at 1 Hz is 1e-309 samples) warned of overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdp = ChannelConfig(kind="exp_pdp", rms_delay_spread_ns=rms_ns, sample_rate_hz=fs).pdp
    assert np.isfinite(pdp).all() and pdp.sum() == 1.0 and pdp[0] == 1.0


# The delay-spread moment checks validate the embedded table, its delay
# scaling and sample-grid quantization, so they run on the raw fading
# statistics (per-draw normalization intentionally reweights the ensemble
# PDP and is exercised separately above).

def test_exp_profile_rms_delay_spread(rng):
    prof = ChannelConfig(kind="exp_pdp", rms_delay_spread_ns=RMS_NS, sample_rate_hz=FS,
                         max_taps=72, normalize_each_draw=False)
    pdp = ensemble_pdp(prof, rng, 100_000)
    got = rms_delay_spread_ns(pdp, FS)
    assert abs(got - 300.0) / 300.0 < 0.05


def test_tdl_a_rms_delay_spread(rng):
    prof = ChannelConfig(rms_delay_spread_ns=RMS_NS, sample_rate_hz=FS, normalize_each_draw=False)
    pdp = ensemble_pdp(prof, rng, 100_000)
    got = rms_delay_spread_ns(pdp, FS)
    assert abs(got - 300.0) / 300.0 < 0.05


def test_draw_is_deterministic_given_stream():
    prof = ChannelConfig()
    a = draw_channel(prof, np.random.default_rng(42))
    b = draw_channel(prof, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_identity_channel():
    x = np.arange(10.0) + 1j
    h = np.array([1.0 + 0j])
    assert np.allclose(apply_channel(x, h), x)


def test_cp_makes_convolution_circular():
    # with cp >= taps-1, removing the CP leaves exactly the circular convolution
    rng = np.random.default_rng(9)
    n, cp = 64, 16
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 4
    received = apply_channel(add_cp(x, cp), taps)
    got = remove_cp(received, cp)
    oracle = circular_convolve_oracle(x, taps)
    assert np.abs(got - oracle).max() < 1e-9


def test_superpose_pure_noise_variance(rng):
    y = superpose([], NoiseSpec(1.0), rng, n_samples=1_000_000)
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 0.01


def test_superpose_noise_free_passthrough(rng):
    x = np.arange(5.0) + 2j
    out = superpose([x], NoiseSpec(0.0), rng)
    assert np.array_equal(out, x)


def test_superpose_validation(rng):
    with pytest.raises(ValueError):
        superpose([np.zeros(4), np.zeros(5)], NoiseSpec(1.0), rng)
    with pytest.raises(ValueError):
        superpose([], NoiseSpec(1.0), rng)
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)


def test_configured_snr_is_realized(rng):
    # measured per-sample receive power over noise variance tracks the config
    snr_db, k_bits, noise_var = -10.0, 1, 1.0
    basis = generate_zc(1024, 1)
    assign = allocate_codes(1, k_bits, 40, 1024)[0]
    amp = amplitude_for_snr(snr_db, 1024, noise_var, k_bits)
    prof = ChannelConfig()
    acc = 0.0
    frames = 10_000
    for _ in range(frames):
        bits = [1] + [int(b) for b in rng.choice([-1, 1], k_bits)]
        body = build_message(basis, assign, bits, amp)
        rx = apply_channel(add_cp(body, 72), draw_channel(prof, rng))
        acc += np.mean(np.abs(remove_cp(rx, 72)) ** 2)
    measured = acc / frames / noise_var
    assert abs(measured / 10 ** (snr_db / 10) - 1.0) < 0.02
