"""Transmitter side: spreading-code allocation, message bodies, cyclic prefix.

A message frame carries one always-+1 reference bit plus K information
bits, each spread onto its own cyclic shift of the ZC root sequence.
Shift indices assigned to one user stay at least L+1 apart (circularly) so
that the L-tap channel responses of different bits land in disjoint
windows of the despread vector. A user with nothing to send transmits
nothing at all (on/off keying): idleness is the absence of a message, not
a frame of zero bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .zc import ZcBasis, cyclic_shift

__all__ = [
    "CodeAssignment",
    "allocate_codes",
    "build_message",
    "add_cp",
    "remove_cp",
]


def _circular_gap(a: int, b: int, n: int) -> int:
    d = abs(a - b) % n
    return min(d, n - d)


@dataclass(frozen=True)
class CodeAssignment:
    """Shift indices for one user: index k spreads bit k (k = 0 is the reference)."""

    user_id: int
    shift_indices: tuple[int, ...]
    k_bits: int
    guard: int
    n_len: int

    def __post_init__(self):
        if len(self.shift_indices) != self.k_bits + 1:
            raise ValueError(
                f"expected {self.k_bits + 1} shift indices, got {len(self.shift_indices)}"
            )
        for idx in self.shift_indices:
            if not 0 <= idx < self.n_len:
                raise ValueError(f"shift index {idx} out of range [0, {self.n_len})")
        for i, a in enumerate(self.shift_indices):
            for b in self.shift_indices[i + 1 :]:
                if _circular_gap(a, b, self.n_len) < self.guard + 1:
                    raise ValueError(
                        f"shift indices {a} and {b} closer than guard+1={self.guard + 1} (mod {self.n_len})"
                    )


def allocate_codes(
    num_users: int,
    k_bits: int,
    guard: int,
    n_len: int,
    overloaded: bool = False,
) -> list[CodeAssignment]:
    """Greedy shift-index allocation for ``num_users`` users of K+1 codes each.

    In the default (orthogonal) mode user u receives indices
    u*(K+1)*(L+1) + k*(L+1), so every pair of codes - within a user and
    across users - is at least L+1 apart and despread windows never
    overlap. Capacity is floor(N / ((K+1)(L+1))) users.

    With ``overloaded=True`` the intra-user spacing is preserved but user
    base offsets are spread evenly over the sequence, allowing more users
    than the orthogonal capacity at the cost of inter-user interference.
    """
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    if k_bits < 0:
        raise ValueError("k_bits must be >= 0")
    if guard < 0:
        raise ValueError("guard must be >= 0")
    block = (k_bits + 1) * (guard + 1)
    if block > n_len:
        raise CapacityError(
            f"one user needs {block} indices of spacing but the sequence length is {n_len}"
        )
    if not overloaded:
        max_users = n_len // block
        if num_users > max_users:
            raise CapacityError(
                f"{num_users} users exceed orthogonal capacity: "
                f"max {max_users} users for K={k_bits}, L={guard}, N={n_len}"
            )
    out = []
    for u in range(num_users):
        if overloaded:
            base = (u * n_len) // num_users
        else:
            base = u * block
        idx = tuple((base + k * (guard + 1)) % n_len for k in range(k_bits + 1))
        out.append(
            CodeAssignment(
                user_id=u, shift_indices=idx, k_bits=k_bits, guard=guard, n_len=n_len
            )
        )
    return out


def build_message(
    basis: ZcBasis, assign: CodeAssignment, bits, amplitude: float
) -> np.ndarray:
    """Sum of amplitude-scaled, bit-signed code shifts: the frame body (no CP).

    Because the shifts are orthonormal, the body's squared norm is
    amplitude^2 * (K+1) regardless of the bit pattern.
    """
    bits = [int(b) for b in bits]
    if len(bits) != assign.k_bits + 1:
        raise ValueError(f"expected {assign.k_bits + 1} bits, got {len(bits)}")
    if bits[0] != 1:
        raise ValueError("reference bit bits[0] must be +1")
    if any(b not in (-1, 1) for b in bits):
        raise ValueError("bits must be +/-1")
    body = np.zeros(basis.n_len, dtype=complex)
    for b, idx in zip(bits, assign.shift_indices):
        body += b * cyclic_shift(basis, idx)
    return amplitude * body


def add_cp(body: np.ndarray, cp_len: int) -> np.ndarray:
    """Prepend the last ``cp_len`` samples of ``body`` to itself."""
    n = len(body)
    if not 0 <= cp_len < n:
        raise ValueError(f"cp_len must be in [0, {n}), got {cp_len}")
    if cp_len == 0:
        return np.array(body, copy=True)
    return np.concatenate([body[-cp_len:], body])


def remove_cp(samples: np.ndarray, cp_len: int) -> np.ndarray:
    """Drop the first ``cp_len`` samples; exact inverse of :func:`add_cp`."""
    if cp_len < 0 or cp_len >= len(samples):
        raise ValueError(f"cp_len must be in [0, {len(samples)}), got {cp_len}")
    return np.array(samples[cp_len:], copy=True)
