import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_despread

from cpdsss.channel import ChannelConfig, NoiseSpec, apply_channel, draw_channel, superpose
from cpdsss.rx import (
    DespreadSet,
    despread_full,
    detect,
    direct_mul_count,
    estimate_noise_power,
    extract_user,
    fft_mul_count,
    pairwise_stats,
    recover_bits,
)
from cpdsss.tx import CodeAssignment, add_cp, allocate_codes, build_message, remove_cp
from cpdsss.zc import cyclic_shift, generate_zc


@pytest.mark.parametrize("n_len", [16, 64, 256])
def test_despread_matches_dense_oracle(n_len):
    basis = generate_zc(n_len, 1)
    rng = np.random.default_rng(n_len)
    y = rng.standard_normal(n_len) + 1j * rng.standard_normal(n_len)
    assert np.abs(despread_full(basis, y) - dense_despread(basis, y)).max() < 1e-9


def test_despread_of_single_code_is_delta(basis1024):
    y = cyclic_shift(basis1024, 137)
    out = despread_full(basis1024, y)
    assert abs(out[137] - 1.0) < 1e-9
    mask = np.ones(1024, dtype=bool)
    mask[137] = False
    assert np.abs(out[mask]).max() < 1e-9


def test_despread_length_check(basis1024):
    with pytest.raises(ValueError):
        despread_full(basis1024, np.zeros(512, dtype=complex))


def test_operation_counts():
    assert fft_mul_count(1024) == 11264
    assert direct_mul_count(1024) == 1024 * 1024
    ratio = fft_mul_count(1024) / direct_mul_count(1024)
    assert ratio < 0.011  # the documented ~99% complexity reduction


def test_extract_user_flat_loopback(basis1024):
    assign = allocate_codes(1, 0, 40, 1024)[0]
    body = build_message(basis1024, assign, [1], 0.7)
    ds = extract_user(despread_full(basis1024, body), assign)
    expected = np.zeros(40, dtype=complex)
    expected[0] = 0.7
    assert np.abs(ds.vectors[0] - expected).max() < 1e-9


def test_extract_user_reproduces_channel_taps(basis1024):
    # noise-free loopback: window k holds amplitude * b_k * h
    rng = np.random.default_rng(21)
    assign = allocate_codes(1, 2, 40, 1024)[0]
    bits = [1, -1, 1]
    amp = 1.3
    body = build_message(basis1024, assign, bits, amp)
    taps = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 8
    rx_samples = apply_channel(add_cp(body, 72), taps)
    ds = extract_user(despread_full(basis1024, remove_cp(rx_samples, 72)), assign)
    for k, b in enumerate(bits):
        assert np.abs(ds.vectors[k] - amp * b * taps).max() < 1e-9


def test_extract_user_wraps_cyclically(basis1024):
    rng = np.random.default_rng(4)
    yprime = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    assign = CodeAssignment(0, (1020,), 0, 40, 1024)
    ds = extract_user(yprime, assign)
    manual = np.array([yprime[(1020 + m) % 1024] for m in range(40)])
    assert np.array_equal(ds.vectors[0], manual)


def test_decision_stats_noise_free_value():
    # vectors b_k * h with ||h||^2 = 2 -> every pairwise statistic equals 2
    h = np.array([1.0 + 0j, 1.0 + 0j])
    c, _, _ = pairwise_stats(np.stack([h, -h, h]))
    assert c.shape == (3,)
    assert np.abs(c - 2.0).max() < 1e-12


def test_decision_stats_zero_input():
    c, _, _ = pairwise_stats(np.zeros((3, 8), dtype=complex))
    assert np.array_equal(c, np.zeros(3))


def test_decision_stats_rejects_k0():
    # a lone reference vector (K = 0) has no pairs, so no M-of-n decision exists
    c, _, _ = pairwise_stats(np.zeros((1, 8), dtype=complex))
    assert c.shape == (0,)
    with pytest.raises(ValueError):
        detect(c, 1, 0.5)


def test_decision_stats_pair_count_k3(rng):
    vectors = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    c, i_idx, j_idx = pairwise_stats(vectors)
    pairs = list(zip(i_idx.tolist(), j_idx.tolist()))
    assert pairs == [(i, j) for i in range(4) for j in range(4) if i < j]
    for value, (i, j) in zip(c, pairs):
        assert value == pytest.approx(abs(np.vdot(vectors[i], vectors[j]).real), rel=1e-12)


def test_detect_basic_rules():
    assert not detect(np.array([0.0]), 1, 0.5)
    assert detect(np.array([0.5 + 1e-9]), 1, 0.5)


def test_detect_tie_at_threshold_does_not_count():
    assert not detect(np.array([0.5]), 1, 0.5)
    assert not detect(np.array([0.5, 0.7]), 2, 0.5)


def test_detect_m_out_of_range():
    c = np.array([1.0])
    with pytest.raises(ValueError):
        detect(c, 2, 0.5)
    with pytest.raises(ValueError):
        detect(c, 0, 0.5)


def test_detect_threshold_shapes():
    c = np.array([[0.1, 0.9, 0.5], [0.6, 0.7, 0.2]])  # 2nd largest: 0.5, 0.6
    assert detect(c, 2, 0.55).tolist() == [False, True]
    assert detect(c, 2, np.array([0.4, 0.65])).tolist() == [True, False]  # one per row
    grid = np.array([[0.4, 0.55], [0.4, 0.65]])  # rows x grid
    assert detect(c, 2, grid).tolist() == [[True, False], [True, False]]
    assert detect(c[0], 2, np.array([0.4, 0.55])).tolist() == [True, False]  # one set, a grid


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_detect_count_rule_property(data):
    # statistics and thresholds share a coarse lattice, so ties at eta are common
    n = data.draw(st.integers(1, 12))
    rows = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    c = np.array(data.draw(st.lists(rows, min_size=1, max_size=6)), dtype=float) / 2
    eta = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5)), dtype=float) / 2
    m = data.draw(st.integers(1, n))
    counted = (c[:, :, None] > eta).sum(axis=1) >= m
    assert np.array_equal(detect(c, m, np.tile(eta, (len(c), 1))), counted)
    for g, threshold in enumerate(eta):
        assert np.array_equal(detect(c, m, threshold), counted[:, g])


def test_recover_bits_sign_and_scale():
    h = np.array([0.4 - 0.3j, 0.1j, 0.0, 0.2])
    amp = 1.7
    vectors = np.stack([amp * h, -amp * h])
    hard, soft = recover_bits(DespreadSet(0, vectors))
    assert hard == [-1]
    assert abs(soft[0] + amp**2 * np.linalg.norm(h) ** 2) < 1e-12


def test_recover_bits_multiple():
    h = np.array([1.0 + 0j])
    vectors = np.stack([h, h, -h])
    hard, _ = recover_bits(DespreadSet(0, vectors))
    assert hard == [1, -1]


def test_recover_bits_zero_ties_to_plus_one():
    vectors = np.zeros((2, 4), dtype=complex)
    hard, soft = recover_bits(DespreadSet(0, vectors))
    assert hard == [1] and soft == [0.0]


def test_estimate_noise_power_basics(rng):
    assert estimate_noise_power(np.zeros(16, dtype=complex)) == 0.0
    with pytest.raises(ValueError):
        estimate_noise_power(np.array([]))
    y = superpose([], NoiseSpec(1.0), rng, n_samples=1024)
    assert 0.9 < estimate_noise_power(y) < 1.1


def test_estimate_noise_power_bias_with_buried_signal(basis1024, rng):
    # message 15 dB below the noise biases the estimate by ~0.135 dB
    assign = allocate_codes(1, 1, 40, 1024)[0]
    amp = np.sqrt(10 ** (-1.5) * 1024 / 2)
    prof = ChannelConfig()
    acc = 0.0
    frames = 2000
    for _ in range(frames):
        body = build_message(basis1024, assign, [1, -1], amp)
        rx = apply_channel(add_cp(body, 72), draw_channel(prof, rng))
        y = superpose([remove_cp(rx, 72)], NoiseSpec(1.0), rng)
        acc += estimate_noise_power(y)
    bias_db = 10 * np.log10(acc / frames)
    assert 0.10 < bias_db < 0.15


def test_cross_user_isolation(basis1024):
    # second user's transmission leaks nothing into the first user's windows
    assigns = allocate_codes(2, 1, 40, 1024)
    rng = np.random.default_rng(33)
    taps0 = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 8
    taps1 = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 8
    body0 = build_message(basis1024, assigns[0], [1, -1], 1.0)
    body1 = build_message(basis1024, assigns[1], [1, 1], 2.0)
    rx0 = apply_channel(add_cp(body0, 72), taps0)
    rx1 = apply_channel(add_cp(body1, 72), taps1)
    alone = extract_user(despread_full(basis1024, remove_cp(rx0, 72)), assigns[0])
    both_samples = superpose([rx0, rx1], NoiseSpec(0.0), rng)
    both = extract_user(despread_full(basis1024, remove_cp(both_samples, 72)), assigns[0])
    assert np.abs(alone.vectors - both.vectors).max() < 1e-9


def test_overloaded_allocation_leaks_measurable_interference(basis1024):
    # beyond orthogonal capacity, neighboring users' windows overlap and a
    # noise-free frame picks up cross-user energy (absent in orthogonal mode)
    assigns = allocate_codes(30, 1, 40, 1024, overloaded=True)
    a0, a1 = assigns[0], assigns[1]
    rng = np.random.default_rng(55)
    taps = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 8
    rx0 = apply_channel(add_cp(build_message(basis1024, a0, [1, -1], 1.0), 72),
                        taps)
    rx1 = apply_channel(add_cp(build_message(basis1024, a1, [1, 1], 1.0), 72),
                        taps)
    alone = extract_user(despread_full(basis1024, remove_cp(rx0, 72)), a0)
    both = superpose([rx0, rx1], NoiseSpec(0.0), rng)
    with_intf = extract_user(despread_full(basis1024, remove_cp(both, 72)), a0)
    leakage = np.abs(with_intf.vectors - alone.vectors).max()
    assert leakage > 1e-3  # orthogonal allocation keeps this below 1e-9


def test_noise_free_end_to_end_recovers_bits(basis1024, rng):
    assign = allocate_codes(1, 10, 40, 1024)[0]
    for _ in range(5):
        bits = [1] + [int(b) for b in rng.choice([-1, 1], 10)]
        body = build_message(basis1024, assign, bits, 0.9)
        h = draw_channel(ChannelConfig(max_taps=40), rng)
        y = remove_cp(apply_channel(add_cp(body, 72), h), 72)
        ds = extract_user(despread_full(basis1024, y), assign)
        hard, _ = recover_bits(ds)
        assert hard == bits[1:]


def test_soft_metric_decomposition_zero_mean(basis1024):
    # soft metric minus b * amp^2 * ||h_trunc||^2 averages to zero over noise;
    # taps are confined to the receive window (a longer channel leaks a
    # deterministic early/late-tap cross term into the sibling window)
    rng = np.random.default_rng(101)
    assign = allocate_codes(1, 1, 40, 1024)[0]
    amp = 4.0
    h = draw_channel(ChannelConfig(max_taps=40), rng)
    h_trunc_energy = float(np.linalg.norm(h[:40]) ** 2)
    body = build_message(basis1024, assign, [1, -1], amp)
    rx = apply_channel(add_cp(body, 72), h)
    trials = 10_000
    offsets = np.empty(trials)
    for t in range(trials):
        y = superpose([rx], NoiseSpec(1.0), rng)
        ds = extract_user(despread_full(basis1024, remove_cp(y, 72)), assign)
        _, soft = recover_bits(ds)
        offsets[t] = soft[0] - (-1) * amp**2 * h_trunc_energy
    stderr = offsets.std(ddof=1) / np.sqrt(trials)
    assert abs(offsets.mean()) < 3 * stderr
