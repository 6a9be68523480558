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
    "DecisionStats",
    "DetectionOutcome",
    "despread_full",
    "extract_user",
    "pairwise_stats",
    "decision_stats",
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


@dataclass(frozen=True)
class DecisionStats:
    """Pairwise detection statistics |Re[y_iH y_j]| for i < j."""

    user_id: int
    c_values: dict[tuple[int, int], float]

    @property
    def n_pairs(self) -> int:
        return len(self.c_values)


@dataclass(frozen=True)
class DetectionOutcome:
    user_id: int
    detected: bool
    exceed_count: int
    hard_bits: tuple[int, ...] | None = None
    soft_metrics: tuple[float, ...] | None = None


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
    statistics come back stacked the same way. Single arithmetic path
    shared by :func:`decision_stats` and the Monte Carlo engine.
    """
    gram = vectors.conj() @ vectors.swapaxes(-1, -2)
    i_idx, j_idx = _pair_indices(vectors.shape[-2])
    return np.abs(gram.real[..., i_idx, j_idx]), i_idx, j_idx


def decision_stats(ds: DespreadSet) -> DecisionStats:
    """Pairwise statistics over bit indices 0..K; needs K >= 1 (at least one pair)."""
    if ds.k_bits < 1:
        raise UnsupportedConfiguration(
            "decision statistics need K >= 1 information bits (no pairs exist for K = 0)"
        )
    c, i_idx, j_idx = pairwise_stats(ds.vectors)
    values = {(int(i), int(j)): float(v) for i, j, v in zip(i_idx, j_idx, c)}
    return DecisionStats(user_id=ds.user_id, c_values=values)


def detect(stats: DecisionStats, design, despread: DespreadSet | None = None) -> DetectionOutcome:
    """M-out-of-n rule: present iff at least M statistics strictly exceed eta.

    Ties at exactly eta do not count as exceedances. When ``despread`` is
    given, soft metrics are attached and hard bits are attached iff the
    user is declared present.
    """
    n = stats.n_pairs
    if not 1 <= design.m_of_n <= n:
        raise ValueError(f"M must be in [1, {n}], got {design.m_of_n}")
    exceed = sum(1 for v in stats.c_values.values() if v > design.eta)
    detected = exceed >= design.m_of_n
    hard = soft = None
    if despread is not None:
        hard_list, soft_list = recover_bits(despread)
        soft = tuple(soft_list)
        if detected:
            hard = tuple(hard_list)
    return DetectionOutcome(
        user_id=stats.user_id,
        detected=detected,
        exceed_count=exceed,
        hard_bits=hard,
        soft_metrics=soft,
    )


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
