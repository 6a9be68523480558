import cmath
import math

import numpy as np
import pytest

from helpers import ShiftWindow, window_product

from cpdsss.zc import cyclic_shift, generate_zc


def test_generate_n4_root1_matches_direct_evaluation():
    # expected values evaluated independently from the even-N closed form
    expected = np.array([cmath.exp(-1j * cmath.pi * n * n / 4) for n in range(4)]) / 2.0
    basis = generate_zc(4, 1)
    assert np.allclose(basis.seq, expected, atol=1e-15)
    # literal form: [1, e^{-j pi/4}, -1, e^{-j pi/4}] / 2
    assert abs(basis.seq[0] - 0.5) < 1e-15
    assert abs(basis.seq[2] + 0.5) < 1e-15
    assert abs(basis.seq[1] - basis.seq[3]) < 1e-15


@pytest.mark.parametrize("n_len,root", [(16, 1), (64, 1), (1024, 1), (63, 2)])
def test_unit_norm_and_constant_amplitude(n_len, root):
    basis = generate_zc(n_len, root)
    assert abs(np.linalg.norm(basis.seq) - 1.0) < 1e-12
    assert np.abs(np.abs(basis.seq) - 1.0 / math.sqrt(n_len)).max() < 1e-12


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        generate_zc(4, 2)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        generate_zc(9, 3)
    with pytest.raises(ValueError):
        generate_zc(1, 1)
    with pytest.raises(ValueError):
        generate_zc(8, 0)


def test_shift_identity_and_literal_rotation():
    basis = generate_zc(4, 1)
    assert np.array_equal(cyclic_shift(basis, 0), basis.seq)
    shifted = cyclic_shift(basis, 2)
    expected = np.array([basis.seq[2], basis.seq[3], basis.seq[0], basis.seq[1]])
    assert np.allclose(shifted, expected, atol=1e-15)
    # matches the rotated literal [-1, e^{-j pi/4}, 1, e^{-j pi/4}] / 2
    assert abs(shifted[0] + 0.5) < 1e-15 and abs(shifted[2] - 0.5) < 1e-15


def test_shift_matches_modular_indexing(basis64):
    rng = np.random.default_rng(3)
    for i in map(int, rng.integers(0, 64, size=8)):
        shifted = cyclic_shift(basis64, i)
        manual = np.array([basis64.seq[(m - i) % 64] for m in range(64)])
        assert np.array_equal(shifted, manual)


def test_shift_out_of_range(basis64):
    with pytest.raises(ValueError):
        cyclic_shift(basis64, 64)
    with pytest.raises(ValueError):
        cyclic_shift(basis64, -1)


def test_shift_periodicity_via_modulo(basis64):
    # shifting by N wraps to the identity once reduced mod N
    assert np.array_equal(cyclic_shift(basis64, 64 % 64), basis64.seq)


@pytest.mark.parametrize("n_len", [16, 64])
def test_all_pairs_orthonormal_small(n_len):
    basis = generate_zc(n_len, 1)
    shifts = np.stack([cyclic_shift(basis, i) for i in range(n_len)])
    gram = shifts.conj() @ shifts.T
    assert np.abs(gram - np.eye(n_len)).max() < 1e-10


@pytest.mark.parametrize("n_len", [16, 64, 1024])
def test_random_pair_orthogonality(n_len):
    basis = generate_zc(n_len, 1)
    rng = np.random.default_rng(11)
    for _ in range(60):
        i, j = map(int, rng.integers(0, n_len, size=2))
        if i == j:
            continue
        ip = np.vdot(cyclic_shift(basis, i), cyclic_shift(basis, j))
        assert abs(ip) < 1e-10


@pytest.mark.parametrize("root", [1, 3, 5, 7])
def test_orthogonality_insensitive_to_root(root):
    basis = generate_zc(64, root)
    shifts = np.stack([cyclic_shift(basis, i) for i in range(64)])
    gram = shifts.conj() @ shifts.T
    assert np.abs(gram - np.eye(64)).max() < 1e-10


@pytest.mark.parametrize("n_len,root", [(16, 1), (64, 1), (1024, 1), (63, 2)])
def test_flat_spectrum(n_len, root):
    basis = generate_zc(n_len, root)
    mags = np.abs(np.fft.fft(basis.seq))
    assert np.abs(mags - 1.0).max() < 1e-9


def test_window_product_identity_and_zero():
    basis = generate_zc(64, 1)
    w = ShiftWindow(5, 8)
    assert np.abs(window_product(basis, w, w) - np.eye(8)).max() < 1e-10
    # separation strictly greater than L
    far = ShiftWindow(5 + 9, 8)
    assert np.abs(window_product(basis, w, far)).max() < 1e-10
    # separation exactly L: windows are already disjoint
    edge = ShiftWindow(5 + 8, 8)
    assert np.abs(window_product(basis, w, edge)).max() < 1e-10


def test_window_product_structure_n16():
    # Kronecker-delta oracle: entry (r, c) of Z_iH Z_j is 1 iff i+r = j+c (mod N)
    basis = generate_zc(16, 1)
    i, j, width = 0, 2, 4
    got = window_product(basis, ShiftWindow(i, width), ShiftWindow(j, width))
    expected = np.zeros((width, width))
    for r in range(width):
        for c in range(width):
            expected[r, c] = 1.0 if (i + r) % 16 == (j + c) % 16 else 0.0
    assert np.abs(got - expected).max() < 1e-10
    # the |i-j| = 2 offset leaves exactly width - 2 unit entries
    assert int(np.round(np.abs(got).sum())) == width - 2


def test_window_product_matches_elementwise_bruteforce():
    basis = generate_zc(16, 1)
    w1, w2 = ShiftWindow(3, 5), ShiftWindow(6, 5)
    got = window_product(basis, w1, w2)
    for r in range(5):
        for c in range(5):
            direct = np.vdot(
                cyclic_shift(basis, (3 + r) % 16), cyclic_shift(basis, (6 + c) % 16)
            )
            assert abs(got[r, c] - direct) < 1e-12


def test_window_product_validation(basis64):
    with pytest.raises(ValueError):
        window_product(basis64, ShiftWindow(0, 4), ShiftWindow(1, 5))
    with pytest.raises(ValueError):
        window_product(basis64, ShiftWindow(-1, 4), ShiftWindow(1, 4))
    with pytest.raises(ValueError):
        window_product(basis64, ShiftWindow(0, 0), ShiftWindow(1, 0))


def test_wraparound_window_product():
    basis = generate_zc(16, 1)
    # window starting near the end wraps; orthogonality must still hold
    w_end = ShiftWindow(14, 4)
    w_far = ShiftWindow(6, 4)
    assert np.abs(window_product(basis, w_end, w_far)).max() < 1e-10
