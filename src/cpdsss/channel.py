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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from math import isfinite

import numpy as np

from .errors import ConfigError

__all__ = [
    "ProfileKind",
    "ChannelConfig",
    "NoiseSpec",
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
class ChannelConfig:
    """The multipath channel: profile kind, RMS delay spread, sample rate and tap bound.

    ``pdp`` holds the per-sample tap powers (summing to 1) after delay
    scaling, grid rounding and truncation to ``max_taps``; it is built on
    first use and is read-only.
    """

    kind: str = "tdl_a"
    rms_delay_spread_ns: float = 300.0
    sample_rate_hz: float = 30.72e6
    max_taps: int = 128
    normalize_each_draw: bool = True

    def __post_init__(self):
        if self.kind not in {k.value for k in ProfileKind}:
            raise ConfigError(f"unknown channel kind: {self.kind!r}")
        if not isfinite(self.rms_delay_spread_ns):
            raise ConfigError(
                f"channel.rms_delay_spread_ns must be finite, got {self.rms_delay_spread_ns}"
            )
        if self.kind != ProfileKind.FLAT.value and not self.rms_delay_spread_ns > 0:
            raise ConfigError(
                f"channel.rms_delay_spread_ns must be positive for kind {self.kind!r}, "
                f"got {self.rms_delay_spread_ns}"
            )
        if not (isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ConfigError(
                f"channel.sample_rate_hz must be finite and positive, got {self.sample_rate_hz}"
            )
        # the PDP, the tap draws and _Scenario's frame-head arrays (up to max_taps x (K+1)L
        # values) grow with max_taps after the sidecar is written; 1024 taps span 33 us at
        # 30.72 MHz, over 100 times the default 300 ns rms delay spread
        if not 1 <= self.max_taps <= 1024:
            raise ConfigError(f"channel.max_taps must be in [1, 1024], got {self.max_taps}")

    @cached_property
    def pdp(self) -> np.ndarray:
        rms = self.rms_delay_spread_ns * 1e-9
        if self.kind == ProfileKind.FLAT.value:
            pdp = np.ones(1)
        elif self.kind == ProfileKind.EXP_PDP.value:
            beta = rms * self.sample_rate_hz
            k = np.arange(1, self.max_taps)
            # a spread that rounds to 0 samples is the zero-spread limit: all power in tap 0
            with np.errstate(divide="ignore", over="ignore"):
                pdp = np.concatenate(([1.0], np.exp(-k / beta)))
        else:
            delays, powers_db, _ = load_tdl_a_table()
            with np.errstate(over="ignore"):  # past the float or int64 range is past max_taps
                pos = np.rint(delays * rms * self.sample_rate_hz)
            lin = 10.0 ** (powers_db / 10.0)
            # only taps inside max_taps are cast and allocated; minlength keeps trailing empty taps
            keep = pos < self.max_taps
            width = int(min(pos.max() + 1, self.max_taps))
            pdp = np.bincount(pos[keep].astype(int), lin[keep], minlength=width)
        pdp = pdp / pdp.sum()
        pdp.setflags(write=False)
        return pdp

    def to_profile(self) -> ChannelConfig:
        """The config itself, which carries the profile; kept for older callers."""
        return self


@dataclass(frozen=True)
class NoiseSpec:
    """Per-complex-sample noise variance sigma_n^2 (sigma_n^2/2 per real dimension)."""

    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("noise variance must be nonnegative")


def draw_taps(
    channel: ChannelConfig, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Tap vectors of ``size`` independent draws, stacked as rows (one vector if None).

    The real parts of every draw come first, then the imaginary parts.
    """
    pdp = channel.pdp
    shape = pdp.shape if size is None else (size, len(pdp))
    scale = np.sqrt(pdp / 2.0)
    taps = scale * rng.standard_normal(shape) + 1j * (scale * rng.standard_normal(shape))
    if channel.normalize_each_draw:
        norm = np.sqrt(np.sum(taps.real**2 + taps.imag**2, axis=-1, keepdims=True))
        taps = taps / np.where(norm > 0, norm, 1.0)
    return taps


def draw_channel(channel: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """One impulse response (taps on the sample grid) drawn from ``rng``.

    Deterministic given the generator state, so distinct RNG streams may
    drive independent Monte Carlo workers.
    """
    return draw_taps(channel, rng)


def apply_channel(frame_samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Linear convolution with the impulse response ``taps``, truncated to the frame span.

    With a cyclic prefix at least as long as the impulse response, removing
    the CP afterwards yields exactly the circular convolution of the frame
    body with the taps.
    """
    return np.convolve(frame_samples, taps)[: len(frame_samples)]


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
