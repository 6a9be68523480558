"""Zadoff-Chu spreading sequences and their cyclic-shift algebra.

A length-N ZC sequence has constant amplitude and zero periodic
autocorrelation at every nonzero lag, so the N cyclic shifts of one root
sequence form an orthonormal basis of C^N (after unit-norm scaling).
Everything else in this package - spreading, despreading, user code
allocation - leans on that property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ZcBasis", "generate_zc", "cyclic_shift"]


@dataclass(frozen=True)
class ZcBasis:
    """Unit-norm ZC root sequence plus the length/root it was built from.

    ``seq`` is the root (shift-0) sequence; shift ``i`` is ``seq`` circularly
    shifted downwards by ``i`` samples. Instances are immutable and safe to
    share across concurrent workers.
    """

    n_len: int
    root: int
    seq: np.ndarray

    def __post_init__(self):
        self.seq.setflags(write=False)

    @cached_property
    def conj_spectrum(self) -> np.ndarray:
        """Conjugated DFT of the root sequence, cached for the FFT receiver."""
        spec = np.conj(np.fft.fft(self.seq))
        spec.setflags(write=False)
        return spec


def generate_zc(n_len: int, root: int) -> ZcBasis:
    """Generate a unit-norm ZC sequence of length ``n_len`` with root ``root``.

    Element n is exp(-j*pi*root*n^2/N) for even N and
    exp(-j*pi*root*n*(n+1)/N) for odd N, scaled by 1/sqrt(N).

    Raises
    ------
    ValueError
        If ``n_len < 2`` or ``gcd(root, n_len) != 1`` (the shifts would not
        be orthogonal).
    """
    if n_len < 2:
        raise ValueError(f"sequence length must be >= 2, got {n_len}")
    if root < 1:
        raise ValueError(f"root index must be >= 1, got {root}")
    if math.gcd(root, n_len) != 1:
        raise ValueError(f"root {root} is not coprime with length {n_len}")
    n = np.arange(n_len)
    if n_len % 2 == 0:
        phase = n * n
    else:
        phase = n * (n + 1)
    seq = np.exp(-1j * np.pi * root * phase / n_len) / np.sqrt(n_len)
    return ZcBasis(n_len=n_len, root=root, seq=seq)


def cyclic_shift(basis: ZcBasis, i: int) -> np.ndarray:
    """Return shift ``i`` of the root sequence: element m is ``seq[(m - i) mod N]``."""
    if not 0 <= i < basis.n_len:
        raise ValueError(f"shift index {i} out of range [0, {basis.n_len})")
    return np.roll(basis.seq, i)

