import tracemalloc

import numpy as np
import pytest

from helpers import circular_convolve_oracle

from cpdsss.channel import (
    ChannelProfile,
    ChannelRealization,
    NoiseSpec,
    apply_channel,
    draw_channel,
    exp_pdp_profile,
    flat_profile,
    load_tdl_a_table,
    superpose,
    tdl_a_profile,
)
from cpdsss.experiments import amplitude_for_snr
from cpdsss.tx import add_cp, allocate_codes, build_message, remove_cp
from cpdsss.zc import generate_zc

FS = 30.72e6
RMS = 300e-9


def ensemble_pdp(profile, rng, draws):
    acc = np.zeros(len(profile.pdp))
    for _ in range(draws):
        acc += np.abs(draw_channel(profile, rng).taps) ** 2
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
    for prof in (tdl_a_profile(), exp_pdp_profile(), flat_profile()):
        assert abs(prof.pdp.sum() - 1.0) < 1e-12
    # 300 ns at 30.72 MHz puts the last table tap at sample 89
    assert len(tdl_a_profile().pdp) == 90


def test_tdl_a_allocates_only_kept_taps():
    # 1e9 ns spreads the table over ~3e8 samples; only max_taps of them are built
    tracemalloc.start()
    try:
        prof = tdl_a_profile(1.0, FS, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prof.pdp) == 128 and prof.pdp[0] == 1.0
    assert peak < 1 << 20


def test_unknown_profile_kind_rejected():
    with pytest.raises(ValueError):
        ChannelProfile("garbage", RMS, FS, 16)


def test_flat_profile_single_tap(rng):
    prof = flat_profile()
    h = draw_channel(prof, rng)
    assert h.taps.shape == (1,)
    power = np.mean(
        [np.abs(draw_channel(prof, rng).taps[0]) ** 2 for _ in range(20_000)]
    )
    assert abs(power - 1.0) < 0.02


def test_normalized_draws_have_exactly_unit_energy(rng):
    prof = tdl_a_profile()
    for _ in range(50):
        h = draw_channel(prof, rng)
        assert abs(np.linalg.norm(h.taps) ** 2 - 1.0) < 1e-12


def test_unnormalized_energy_is_one_on_average(rng):
    prof = tdl_a_profile(normalize_each_draw=False)
    energies = [np.linalg.norm(draw_channel(prof, rng).taps) ** 2 for _ in range(10_000)]
    assert abs(np.mean(energies) - 1.0) < 0.02


def test_exp_profile_decay_constant():
    prof = exp_pdp_profile(RMS, FS)
    beta = RMS * FS  # 9.216 samples
    ratios = prof.pdp[1:] / prof.pdp[:-1]
    assert np.abs(ratios - np.exp(-1.0 / beta)).max() < 1e-12


# The delay-spread moment checks validate the embedded table, its delay
# scaling and sample-grid quantization, so they run on the raw fading
# statistics (per-draw normalization intentionally reweights the ensemble
# PDP and is exercised separately above).

def test_exp_profile_rms_delay_spread(rng):
    prof = exp_pdp_profile(RMS, FS, normalize_each_draw=False)
    pdp = ensemble_pdp(prof, rng, 100_000)
    got = rms_delay_spread_ns(pdp, FS)
    assert abs(got - 300.0) / 300.0 < 0.05


def test_tdl_a_rms_delay_spread(rng):
    prof = tdl_a_profile(RMS, FS, normalize_each_draw=False)
    pdp = ensemble_pdp(prof, rng, 100_000)
    got = rms_delay_spread_ns(pdp, FS)
    assert abs(got - 300.0) / 300.0 < 0.05


def test_draw_is_deterministic_given_stream():
    prof = tdl_a_profile()
    a = draw_channel(prof, np.random.default_rng(42)).taps
    b = draw_channel(prof, np.random.default_rng(42)).taps
    assert np.array_equal(a, b)


def test_identity_channel():
    x = np.arange(10.0) + 1j
    h = ChannelRealization(taps=np.array([1.0 + 0j]))
    assert np.allclose(apply_channel(x, h), x)


def test_cp_makes_convolution_circular():
    # with cp >= taps-1, removing the CP leaves exactly the circular convolution
    rng = np.random.default_rng(9)
    n, cp = 64, 16
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / 4
    h = ChannelRealization(taps=taps)
    received = apply_channel(add_cp(x, cp), h)
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
    prof = tdl_a_profile()
    acc = 0.0
    frames = 10_000
    for _ in range(frames):
        bits = [1] + [int(b) for b in rng.choice([-1, 1], k_bits)]
        body = build_message(basis, assign, bits, amp)
        rx = apply_channel(add_cp(body, 72), draw_channel(prof, rng))
        acc += np.mean(np.abs(remove_cp(rx, 72)) ** 2)
    measured = acc / frames / noise_var
    assert abs(measured / 10 ** (snr_db / 10) - 1.0) < 0.02
