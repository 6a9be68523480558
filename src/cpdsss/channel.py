"""Multipath fading channels, user superposition, and receiver noise.

Supported power delay profiles:

* ``TDL_A``  - the 3GPP TDL-A tapped-delay-line table (shipped as a CSV
  data file), delay-scaled to the requested RMS delay spread and
  quantized to the sample grid.
* ``EXP_PDP`` - single-exponential decay whose time constant equals the
  requested RMS delay spread.
* ``FLAT``   - one Rayleigh tap.

Tap coefficients are independent circular complex Gaussians weighted by
the profile powers (Rayleigh magnitudes). By default every realization is
scaled to exactly unit energy, which keeps the per-frame receive power
pinned to the configured signal level while preserving the frequency
selectivity of the profile; set ``normalize_each_draw=False`` to keep the
tap energies fluctuating around a unit mean instead.

Noise is circular complex Gaussian with per-sample variance sigma_n^2
(sigma_n^2/2 per real dimension) and stands in for thermal noise plus any
wideband traffic sharing the spectrum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

__all__ = [
    "ProfileKind",
    "ChannelProfile",
    "ChannelRealization",
    "NoiseSpec",
    "tdl_a_profile",
    "exp_pdp_profile",
    "flat_profile",
    "load_tdl_a_table",
    "draw_taps",
    "draw_channel",
    "apply_channel",
    "superpose",
]


class ProfileKind(Enum):
    TDL_A = "tdl_a"
    EXP_PDP = "exp_pdp"
    FLAT = "flat"


def load_tdl_a_table() -> tuple[np.ndarray, np.ndarray, str]:
    """Read the packaged TDL-A table: (normalized delays, powers in dB, version)."""
    version = ""
    delays, powers = [], []
    path = resources.files("cpdsss.data").joinpath("tdl_a.csv")
    with path.open("r", encoding="utf-8") as fh:
        rows = []
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "version" in line and not version:
                    version = line.lstrip("# ").strip()
                continue
            if line:
                rows.append(line)
    for rec in csv.DictReader(rows):
        delays.append(float(rec["normalized_delay"]))
        powers.append(float(rec["power_db"]))
    return np.asarray(delays), np.asarray(powers), version


@dataclass(frozen=True)
class ChannelProfile:
    """A power delay profile quantized to the sample grid.

    ``pdp`` holds the per-sample tap powers (summing to 1) after delay
    scaling, grid rounding and truncation to ``max_taps``.
    """

    kind: ProfileKind
    rms_delay_spread: float
    sample_rate: float
    max_taps: int
    normalize_each_draw: bool = True
    pdp: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.max_taps < 1:
            raise ValueError("max_taps must be >= 1")
        if self.pdp is None:
            object.__setattr__(self, "pdp", self._build_pdp())
        self.pdp.setflags(write=False)

    def _build_pdp(self) -> np.ndarray:
        if self.kind is ProfileKind.FLAT:
            return np.ones(1)
        if self.kind is ProfileKind.EXP_PDP:
            if self.rms_delay_spread <= 0:
                raise ValueError("rms_delay_spread must be positive")
            beta = self.rms_delay_spread * self.sample_rate
            k = np.arange(self.max_taps)
            pdp = np.exp(-k / beta)
        elif self.kind is ProfileKind.TDL_A:
            if self.rms_delay_spread <= 0:
                raise ValueError("rms_delay_spread must be positive")
            delays, powers_db, _ = load_tdl_a_table()
            idx = np.rint(delays * self.rms_delay_spread * self.sample_rate).astype(int)
            lin = 10.0 ** (powers_db / 10.0)
            # only taps inside max_taps are allocated; minlength keeps trailing empty taps
            keep = idx < self.max_taps
            width = min(int(idx.max()) + 1, self.max_taps)
            pdp = np.bincount(idx[keep], lin[keep], minlength=width)
        else:
            raise ValueError(f"unknown profile kind: {self.kind!r}")
        return pdp / pdp.sum()


def tdl_a_profile(
    rms_delay_spread: float = 300e-9,
    sample_rate: float = 30.72e6,
    max_taps: int = 128,
    normalize_each_draw: bool = True,
) -> ChannelProfile:
    return ChannelProfile(ProfileKind.TDL_A, rms_delay_spread, sample_rate, max_taps,
                          normalize_each_draw)


def exp_pdp_profile(
    rms_delay_spread: float = 300e-9,
    sample_rate: float = 30.72e6,
    max_taps: int = 72,
    normalize_each_draw: bool = True,
) -> ChannelProfile:
    return ChannelProfile(ProfileKind.EXP_PDP, rms_delay_spread, sample_rate, max_taps,
                          normalize_each_draw)


def flat_profile(normalize_each_draw: bool = False) -> ChannelProfile:
    """Single Rayleigh tap (unit mean power; Rayleigh fading unless normalized)."""
    return ChannelProfile(ProfileKind.FLAT, 0.0, 1.0, 1, normalize_each_draw)


@dataclass(frozen=True)
class ChannelRealization:
    """One impulse-response draw (taps on the sample grid)."""

    taps: np.ndarray
    user_id: int = 0

    def __post_init__(self):
        self.taps.setflags(write=False)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-complex-sample noise variance sigma_n^2 (sigma_n^2/2 per real dimension)."""

    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be nonnegative")


def draw_taps(
    profile: ChannelProfile, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Tap vectors of ``size`` independent draws, stacked as rows (one vector if None).

    The real parts of every draw come first, then the imaginary parts, so
    ``size=None`` consumes ``rng`` exactly like :func:`draw_channel`.
    """
    pdp = profile.pdp
    shape = pdp.shape if size is None else (size, len(pdp))
    scale = np.sqrt(pdp / 2.0)
    taps = scale * rng.standard_normal(shape) + 1j * (scale * rng.standard_normal(shape))
    if profile.normalize_each_draw:
        norm = np.sqrt(np.sum(taps.real**2 + taps.imag**2, axis=-1, keepdims=True))
        taps = taps / np.where(norm > 0, norm, 1.0)
    return taps


def draw_channel(
    profile: ChannelProfile, rng: np.random.Generator, user_id: int = 0
) -> ChannelRealization:
    """Draw one channel realization from the profile using ``rng``.

    Deterministic given the generator state, so distinct RNG streams may
    drive independent Monte Carlo workers.
    """
    return ChannelRealization(taps=draw_taps(profile, rng), user_id=user_id)


def apply_channel(frame_samples: np.ndarray, h: ChannelRealization) -> np.ndarray:
    """Linear convolution with the impulse response, truncated to the frame span.

    With a cyclic prefix at least as long as the impulse response, removing
    the CP afterwards yields exactly the circular convolution of the frame
    body with the taps.
    """
    return np.convolve(frame_samples, h.taps)[: len(frame_samples)]


def superpose(
    signals,
    noise: NoiseSpec,
    rng: np.random.Generator,
    n_samples: int | None = None,
) -> np.ndarray:
    """Elementwise sum of the signals plus circular complex Gaussian noise.

    ``n_samples`` sets the output length when ``signals`` is empty
    (noise-only frames).
    """
    signals = list(signals)
    if signals:
        length = len(signals[0])
        for s in signals[1:]:
            if len(s) != length:
                raise ValueError("superposed signals must have equal lengths")
        total = np.sum(signals, axis=0).astype(complex)
    else:
        if n_samples is None:
            raise ValueError("n_samples is required when no signals are given")
        length = int(n_samples)
        total = np.zeros(length, dtype=complex)
    if noise.variance > 0:
        sigma = np.sqrt(noise.variance / 2.0)
        total = total + sigma * rng.standard_normal(length) + 1j * (
            sigma * rng.standard_normal(length)
        )
    return total
