import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ShiftWindow, window_product

from cpdsss.errors import CapacityError
from cpdsss.experiments import amplitude_for_snr
from cpdsss.tx import (
    CodeAssignment,
    add_cp,
    allocate_codes,
    build_message,
    remove_cp,
)
from cpdsss.zc import cyclic_shift, generate_zc


def circ_gap(a, b, n):
    d = abs(a - b) % n
    return min(d, n - d)


def test_greedy_allocation_frozen_example():
    out = allocate_codes(2, 1, 40, 1024)
    assert out[0].shift_indices == (0, 41)
    assert out[1].shift_indices == (82, 123)


def test_single_reference_code():
    out = allocate_codes(1, 0, 40, 1024)
    assert out[0].shift_indices == (0,)


def test_capacity_error_names_maximum():
    with pytest.raises(CapacityError) as err:
        allocate_codes(13, 1, 40, 1024)
    assert "12" in str(err.value)
    # 12 users fit exactly
    out = allocate_codes(12, 1, 40, 1024)
    assert len(out) == 12


@pytest.mark.parametrize("num_users,k_bits,guard,n_len", [
    (12, 1, 40, 1024),
    (2, 10, 40, 1024),
    (5, 3, 7, 256),
    (1, 0, 40, 1024),
])
def test_orthogonal_allocation_spacing(num_users, k_bits, guard, n_len):
    assigns = allocate_codes(num_users, k_bits, guard, n_len)
    all_idx = [i for a in assigns for i in a.shift_indices]
    assert len(set(all_idx)) == len(all_idx)
    for x, a in enumerate(all_idx):
        for b in all_idx[x + 1 :]:
            assert circ_gap(a, b, n_len) >= guard + 1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 12), st.integers(0, 60), st.data())
def test_orthogonal_allocation_spacing_property(k_bits, guard, data):
    block = (k_bits + 1) * (guard + 1)
    n_len = data.draw(st.integers(max(block, 2), 1024))
    num_users = data.draw(st.integers(1, n_len // block))
    idx = np.array([i for a in allocate_codes(num_users, k_bits, guard, n_len)
                    for i in a.shift_indices])
    gap = np.abs(idx[:, None] - idx[None, :]) % n_len
    gap = np.minimum(gap, n_len - gap)
    assert gap[~np.eye(len(idx), dtype=bool)].min(initial=n_len) >= guard + 1


def test_overloaded_mode_violates_cross_user_spacing_only():
    assigns = allocate_codes(20, 1, 40, 1024, overloaded=True)
    assert len(assigns) == 20
    for a in assigns:
        for i, x in enumerate(a.shift_indices):
            for y in a.shift_indices[i + 1 :]:
                assert circ_gap(x, y, 1024) >= 41
    gaps = []
    for u, a in enumerate(assigns):
        for b in assigns[u + 1 :]:
            gaps.extend(circ_gap(x, y, 1024) for x in a.shift_indices for y in b.shift_indices)
    assert min(gaps) < 41  # genuinely overloaded at this load


def test_cross_code_windows_are_zero():
    # the allocator's spacing makes every distinct pair of code windows orthogonal
    basis = generate_zc(256, 1)
    assigns = allocate_codes(2, 1, 20, 256)
    windows = [
        ShiftWindow(i, 20) for a in assigns for i in a.shift_indices
    ]
    for x, w1 in enumerate(windows):
        for w2 in windows[x + 1 :]:
            assert np.abs(window_product(basis, w1, w2)).max() < 1e-10


def test_build_message_single_code():
    basis = generate_zc(1024, 1)
    assign = allocate_codes(1, 0, 40, 1024)[0]
    body = build_message(basis, assign, [1], 1.0)
    assert abs(np.linalg.norm(body) ** 2 - 1.0) < 1e-10
    assert np.allclose(body, basis.seq, atol=1e-15)


def test_build_message_two_codes_orthogonal_sum():
    basis = generate_zc(1024, 1)
    assign = allocate_codes(1, 1, 40, 1024)[0]
    body = build_message(basis, assign, [1, -1], 1.0)
    direct = cyclic_shift(basis, 0) - cyclic_shift(basis, 41)
    assert np.abs(body - direct).max() < 1e-12
    assert abs(np.linalg.norm(body) ** 2 - 2.0) < 1e-10


def test_build_message_validation():
    basis = generate_zc(64, 1)
    assign = allocate_codes(1, 1, 7, 64)[0]
    with pytest.raises(ValueError):
        build_message(basis, assign, [-1, 1], 1.0)  # reference bit must be +1
    with pytest.raises(ValueError):
        build_message(basis, assign, [1], 1.0)  # wrong count
    with pytest.raises(ValueError):
        build_message(basis, assign, [1, 2], 1.0)  # not +/-1


def test_message_power_split_and_per_bit_ratio():
    # a total frame energy of 8 over N=1024 samples at unit noise variance
    total, n_len = 8.0, 1024
    snr_db = 10 * math.log10(total / n_len)
    basis = generate_zc(n_len, 1)
    amps = {}
    for k in (1, 10):
        amps[k] = amplitude_for_snr(snr_db, n_len, 1.0, k)
        assign = allocate_codes(1, k, 40, n_len)[0]
        body = build_message(basis, assign, [1] + [-1] * k, amps[k])
        assert abs(np.linalg.norm(body) ** 2 - total) < 1e-10
    ratio_db = 10 * math.log10(amps[1] ** 2 / amps[10] ** 2)
    assert abs(ratio_db - 10 * math.log10(11 / 2)) < 1e-9  # 7.4037 dB


def test_add_cp_literal():
    out = add_cp(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(out, np.array([3.0, 4.0, 1.0, 2.0, 3.0, 4.0]))


def test_cp_roundtrip_random():
    rng = np.random.default_rng(5)
    body = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    assert np.array_equal(remove_cp(add_cp(body, 72), 72), body)


def test_cp_zero_is_identity():
    body = np.arange(8.0)
    assert np.array_equal(add_cp(body, 0), body)


def test_cp_validation():
    body = np.arange(8.0)
    with pytest.raises(ValueError):
        add_cp(body, 8)
    with pytest.raises(ValueError):
        add_cp(body, -1)
    with pytest.raises(ValueError):
        remove_cp(body, 8)


def test_code_assignment_validation():
    with pytest.raises(ValueError):
        CodeAssignment(0, (0, 30), 1, 40, 1024)  # closer than guard+1
    with pytest.raises(ValueError):
        CodeAssignment(0, (0, 2000), 1, 40, 1024)  # out of range
    with pytest.raises(ValueError):
        CodeAssignment(0, (0,), 1, 40, 1024)  # wrong count
    # wraparound spacing counts circularly: 0 and 1000 are only 24 apart mod 1024
    with pytest.raises(ValueError):
        CodeAssignment(0, (0, 1000), 1, 40, 1024)
