"""Base-station receiver: FFT despreading, per-user statistics, detection.

The full despread vector y' (element n equals shift-n conjugated against
the received frame) is computed with one FFT, a pointwise multiply by the
precomputed conjugate spectrum of the root sequence, and one inverse FFT:
N(1 + log2 N) multiplications instead of N^2 for the dense product. Each
user's K+1 length-L vectors are then just consecutive slices of y'
(cyclic), no channel estimate required: the reference-bit vector doubles
as the channel reference for bit recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedConfiguration
from .tx import CodeAssignment
from .zc import ZcBasis

__all__ = [
    "DespreadSet",
    "despread_full",
    "extract_user",
    "pairwise_stats",
    "detect",
    "recover_bits",
    "estimate_noise_power",
    "fft_mul_count",
    "direct_mul_count",
]


@dataclass(frozen=True)
class DespreadSet:
    """The K+1 despread vectors of one user, row k for bit k (length L each)."""

    user_id: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)

    @property
    def k_bits(self) -> int:
        return self.vectors.shape[0] - 1


def despread_full(basis: ZcBasis, y: np.ndarray) -> np.ndarray:
    """Full despreading: element n of the output is shift(n)H y.

    Implemented as IFFT(conj(FFT(z0)) * FFT(y)); matches the dense N^2
    computation to floating-point accuracy.
    """
    if len(y) != basis.n_len:
        raise ValueError(f"expected length {basis.n_len}, got {len(y)}")
    return np.fft.ifft(np.fft.fft(y) * basis.conj_spectrum)


def fft_mul_count(n_len: int) -> int:
    """Multiplications for the FFT despreading path: N(1 + log2 N)."""
    return n_len * (1 + int(round(math.log2(n_len))))


def direct_mul_count(n_len: int) -> int:
    """Multiplications for the dense despreading product: N^2."""
    return n_len * n_len


def extract_user(yprime: np.ndarray, assign: CodeAssignment) -> DespreadSet:
    """Slice the user's K+1 length-L windows out of the despread vector (cyclic)."""
    n = len(yprime)
    width = assign.guard
    offsets = np.arange(width)
    rows = [yprime[(idx + offsets) % n] for idx in assign.shift_indices]
    return DespreadSet(user_id=assign.user_id, vectors=np.stack(rows))


@lru_cache(maxsize=64)
def _pair_indices(count: int) -> tuple[np.ndarray, np.ndarray]:
    i_idx, j_idx = np.triu_indices(count, k=1)
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


def pairwise_stats(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All |Re[y_iH y_j]| for i < j, plus the (i, j) index arrays.

    ``vectors`` is (K+1, L), or a stack (..., K+1, L) of such sets whose
    statistics come back stacked the same way.
    """
    gram = vectors.conj() @ vectors.swapaxes(-1, -2)
    i_idx, j_idx = _pair_indices(vectors.shape[-2])
    return np.abs(gram.real[..., i_idx, j_idx]), i_idx, j_idx


def detect(c: np.ndarray, m: int, eta) -> np.ndarray:
    """M-out-of-n rule over the last axis of ``c``: at least M statistics strictly above eta.

    Compares the M-th largest statistic with ``eta``, so ties at exactly
    eta do not count as exceedances. ``eta`` is a scalar, one threshold
    per set of statistics (shape ``c.shape[:-1]``), or that shape plus
    trailing grid axes, which the decisions then carry too.
    """
    n = c.shape[-1]
    if not 1 <= m <= n:
        raise ValueError(f"M must be in [1, {n}], got {m}")
    mth = np.partition(c, -m, axis=-1)[..., -m]
    return mth.reshape(mth.shape + (1,) * max(np.ndim(eta) - mth.ndim, 0)) > eta


def recover_bits(ds: DespreadSet) -> tuple[list[int], list[float]]:
    """Channel-estimate-free bit recovery against the reference vector.

    Hard bit i is the sign of Re[y_0H y_i]; an exact zero resolves to +1.
    The unsigned real parts are returned as soft metrics for an outer
    decoder.
    """
    if ds.k_bits < 1:
        raise UnsupportedConfiguration("bit recovery needs K >= 1 information bits")
    ref = ds.vectors[0]
    soft = [float(np.vdot(ref, ds.vectors[i]).real) for i in range(1, ds.k_bits + 1)]
    hard = [1 if s >= 0 else -1 for s in soft]
    return hard, soft


def estimate_noise_power(y: np.ndarray) -> float:
    """Mean per-sample power of the frame.

    The wanted signal sits well below the noise floor, so frame power is a
    serviceable noise-variance estimate (bias 10*log10(1 + snr) dB).
    """
    if len(y) < 1:
        raise ValueError("need at least one sample")
    return float(np.mean(np.abs(y) ** 2))
