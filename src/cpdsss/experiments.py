"""Deterministic Monte Carlo experiments of the link, sampled in the despread domain.

Experiment kinds
----------------
DIST  histograms of the pairwise statistic under both hypotheses
PFA   empirical false-alarm rate of the calibrated detector (noise-only frames)
PMD   miss-detection rate versus SNR
ROC   detection versus false-alarm rate over a threshold sweep
BER   uncoded bit error rate versus SNR

Sampling: a trial draws only what the receiver reads, the (K+1)*L
despread window samples and the frame power, straight from their exact
joint law (see ``_Scenario``), a whole chunk of trials at once. Frames
are not built, convolved or despread; the public tx -> channel -> rx
chain is what the tests check the sampler against.

Determinism contract: the trials of one (curve, SNR point, hypothesis)
are cut into fixed chunks of ``_CHUNK``, and chunk q draws from its own
stream keyed by (master_seed, curve index, SNR index, hypothesis, q), so
results are bit-identical for any worker count. A run submits every chunk
of every point to one pool of worker threads up front, and each point's
partial aggregates are combined in chunk order, which keeps even
floating-point reductions byte-stable.

SNR definition: configured SNR is the per-sample received message power
(averaged over bits and channel realizations, with unit-energy channels)
divided by the per-sample noise variance. The total message power is
shared across the K+1 codes, so the per-code amplitude is
sqrt(snr * N * sigma_n^2 / (K+1)).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property, partial
from math import gcd, inf, isfinite, sqrt
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._version import __version__ as _code_version
from .analysis import DetectorDesign, _atomic_write, design_detector
from .channel import ChannelConfig, draw_taps
from .errors import ConfigError
from .rx import detect
from .tx import allocate_codes
from .zc import generate_zc

__all__ = [
    "ExperimentKind",
    "ThresholdMode",
    "BerGate",
    "CurveConfig",
    "ChannelConfig",
    "ExperimentConfig",
    "ResultRow",
    "ExperimentResult",
    "CSV_COLUMNS",
    "wilson_interval",
    "chunk_rng",
    "trial_rng",
    "amplitude_for_snr",
    "run_experiment",
]

_CHUNK = 256  # fixed chunk size; must not depend on the worker count


class ExperimentKind(Enum):
    DIST = "dist"
    PFA = "pfa"
    PMD = "pmd"
    ROC = "roc"
    BER = "ber"


class ThresholdMode(Enum):
    ANALYTIC_TRUE_SIGMA = "true_sigma"
    ANALYTIC_EST_SIGMA = "est_sigma"


class BerGate(Enum):
    NONE = "none"
    CFAR = "cfar"


@dataclass(frozen=True)
class CurveConfig:
    """One (K, M) detector configuration; experiments may sweep several."""

    k_bits: int = 1
    m_of_n: int = 1


_TYPE_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a number"}
_ONE_CURVE = ("k_bits", "m_of_n")  # top-level shorthand for curves=[{k_bits, m_of_n}]


def _checked(value, tp, label: str):
    """A config value converted to the field type ``tp``; errors name ``label``.

    Config dataclasses are read from objects, ``tuple[X, ...]`` from lists
    (each item labelled by the list's name without its plural "s"), and
    enums from their values, case-insensitively. A string is parsed where
    a number belongs, so ``--set noise_var=nan`` reaches the range checks.
    Any other type, or a fraction where an integer belongs, is a ConfigError.
    """
    if is_dataclass(tp):
        return _from_fields(tp, value, label, f"{label}.")
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label} must be a list, got {value!r}")
        return tuple(_checked(v, get_args(tp)[0], label.removesuffix("s")) for v in value)
    if issubclass(tp, Enum):
        try:
            return tp(str(value).lower())
        except ValueError:
            raise ConfigError(f"unknown {label}: {value!r}") from None
    if tp in (str, bool) and isinstance(value, tp):
        return value
    if tp in (int, float) and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    if tp in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if tp is float:
            try:
                return float(value)
            except OverflowError:  # an integer past the float range; the range checks reject it
                return inf if value > 0 else -inf
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise ConfigError(f"{label} must be {_TYPE_NAMES[tp]}, got {value!r}")


def _from_fields(cls, mapping, label: str, prefix: str):
    """Config dataclass ``cls`` built from ``mapping``, each field through :func:`_checked`."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{label} must be an object, got {mapping!r}")
    types = get_type_hints(cls)
    unknown = set(mapping) - set(types)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in mapping and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{label} needs a {f.name!r}")
    return cls(**{k: _checked(v, types[k], prefix + k) for k, v in mapping.items()})


def _plain(value):
    """JSON-ready data of a config value: objects, lists and enum values."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    kind: ExperimentKind
    name: str = ""
    n_len: int = 1024
    cp_len: int = 72
    l_taps: int = 40
    zc_root: int = 1
    noise_var: float = 1.0
    curves: tuple[CurveConfig, ...] = (CurveConfig(),)
    target_pfa: float = 1e-3
    snr_grid_db: tuple[float, ...] = ()
    num_trials: int = 10_000
    master_seed: int = 0
    threshold_mode: ThresholdMode = ThresholdMode.ANALYTIC_TRUE_SIGMA
    ber_detection_gate: BerGate = BerGate.NONE
    roc_pfa_grid: tuple[float, ...] = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1)
    dist_bins: int = 50
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", self.kind.value)
        # the name names the output files, which must land in the output directory
        if self.name in (".", "..") or set(self.name) & {"/", os.sep, os.altsep, "\0"}:
            raise ConfigError(f"name must be a plain file name, got {self.name!r}")
        # the ZC basis and every array of _Scenario grow with n_len after the sidecar is
        # written; 8192 is eight times the paper's frame of 1024
        if not 2 <= self.n_len <= 8192:
            raise ConfigError(f"n_len must be in [2, 8192], got {self.n_len}")
        if not 0 <= self.cp_len < self.n_len:
            raise ConfigError("cp_len must be in [0, n_len)")
        if self.l_taps < 1:
            raise ConfigError("l_taps must be >= 1")
        if not (self.zc_root >= 1 and gcd(self.zc_root, self.n_len) == 1):
            raise ConfigError(
                f"zc_root must be a positive integer coprime with n_len={self.n_len}, "
                f"got {self.zc_root}"
            )
        if not (isfinite(self.noise_var) and self.noise_var > 0):
            raise ConfigError(f"noise_var must be finite and positive, got {self.noise_var}")
        if not 0.0 < self.target_pfa < 1.0:
            raise ConfigError("target_pfa must be in (0, 1)")
        if self.num_trials < 1:
            raise ConfigError("num_trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a nonnegative integer")
        if not self.curves:
            raise ConfigError("at least one (k_bits, m_of_n) curve is required")
        for c in self.curves:
            if c.k_bits < 1:
                raise ConfigError("k_bits must be >= 1 for detection experiments")
            n_pairs = c.k_bits * (c.k_bits + 1) // 2
            if not 1 <= c.m_of_n <= n_pairs:
                raise ConfigError(
                    f"m_of_n must be in [1, {n_pairs}] for k_bits={c.k_bits}, got {c.m_of_n}"
                )
            shifts = (c.k_bits + 1) * (self.l_taps + 1)
            if shifts > self.n_len:
                raise ConfigError(
                    f"k_bits={c.k_bits} with l_taps={self.l_taps} needs {shifts} code shifts, "
                    f"more than n_len={self.n_len}"
                )
        if _KINDS[self.kind].h1 and not self.snr_grid_db:
            raise ConfigError(f"{self.kind.value} experiments need a non-empty snr_grid_db")
        # a frame's received energy, message plus noise, bounds every window, frame-power and
        # statistic value of a run; at 1e300 their sums over trials stay finite too
        try:
            peak = max((10.0 ** (v / 10.0) for v in self.snr_grid_db), default=0.0)
        except OverflowError:
            peak = inf
        if not (all(isfinite(v) for v in self.snr_grid_db)
                and (1.0 + peak) * self.n_len * self.noise_var <= 1e300):
            raise ConfigError(
                f"snr_grid_db must be finite, and (1 + 10^(snr/10)) * n_len * noise_var <= 1e300; "
                f"got {list(self.snr_grid_db)} at n_len={self.n_len}, noise_var={self.noise_var}")
        roc_without_grid = self.kind is ExperimentKind.ROC and not self.roc_pfa_grid
        if roc_without_grid or not all(0.0 < p < 1.0 for p in self.roc_pfa_grid):
            raise ConfigError(
                f"roc_pfa_grid must hold values in (0, 1), got {list(self.roc_pfa_grid)}"
            )
        for label in ("snr_grid_db", "roc_pfa_grid"):  # rows print these at 6 digits
            grid = getattr(self, label)
            if len({float(format(v, ".6g")) for v in grid}) < len(grid):
                raise ConfigError(f"{label} values must differ at 6 significant digits, as they "
                                  f"label the rows; got {list(grid)}")
        if not 1 <= self.dist_bins <= 10_000:
            raise ConfigError(
                f"dist_bins must be in [1, 10000], as each bin adds two CSV rows and a sidecar "
                f"edge per SNR point and curve; got {self.dist_bins}")

    @classmethod
    def from_mapping(cls, m: dict) -> "ExperimentConfig":
        """A config from JSON data, typed and checked field by field (see ``_checked``)."""
        if isinstance(m, dict) and any(k in m for k in _ONE_CURVE):
            if "curves" in m:
                raise ConfigError("give either 'curves' or top-level k_bits/m_of_n, not both")
            curve = {k: m[k] for k in _ONE_CURVE if k in m}
            m = {k: v for k, v in m.items() if k not in _ONE_CURVE} | {"curves": [curve]}
        return _from_fields(cls, m, "config", "")

    @cached_property
    def designs(self) -> tuple[tuple[DetectorDesign, ...], ...]:
        """Each curve's solved designs, one per PFA its kind designs for; solved on first use."""
        return tuple(tuple(design_detector(pfa, c.k_bits, c.m_of_n, self.l_taps, self.noise_var)
                           for pfa in _KINDS[self.kind].pfas(self)) for c in self.curves)

    def to_mapping(self) -> dict:
        """The resolved config as JSON data; :meth:`from_mapping` reads it back."""
        return _plain(self)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_mapping(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    kind: str
    snr_db: float | None
    k_bits: int
    m_of_n: int
    metric: str
    value: float
    ci_low: float | None
    ci_high: float | None
    trials: int
    seed: int


CSV_COLUMNS = [f.name for f in fields(ResultRow)]  # the CSV header: one column per field


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    derived: dict

    def to_csv_text(self) -> str:
        """The rows as CSV; the columns are the fields of ``ResultRow``, in order."""

        def fmt(column, v):
            if isinstance(v, float):
                return format(v, ".6g" if column == "snr_db" else ".12g")
            return "" if v is None else str(v)

        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(fmt(c, getattr(r, c)) for c in CSV_COLUMNS) for r in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> tuple[str, str]:
        """Write the sidecar then the CSV, both atomically; returns their paths."""
        sidecar = write_sidecar(self.config, self.derived, out_dir)
        csv_path = os.path.join(out_dir, f"{self.config.name}.csv")
        _atomic_write(csv_path, self.to_csv_text())
        return csv_path, sidecar


def write_sidecar(config: ExperimentConfig, derived: dict, out_dir) -> str:
    """Echo the fully resolved config plus derived design values; returns its path.

    The CLI writes it before any trial runs, and :meth:`ExperimentResult.write`
    rewrites it with the derived values of the finished run.
    """
    os.makedirs(out_dir, exist_ok=True)
    sidecar = os.path.join(out_dir, f"{config.name}.config.json")
    payload = {
        "config": config.to_mapping(),
        "config_hash": config.config_hash(),
        "code_version": _code_version,
        "derived": derived,
    }
    _atomic_write(sidecar, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return sidecar


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def chunk_rng(
    master_seed: int, curve_idx: int, snr_idx: int, hypothesis: int, chunk_idx: int
) -> np.random.Generator:
    """Private RNG stream for one chunk of trials of one experiment point.

    Every index is a field of its own in the ``SeedSequence`` entropy, so
    distinct (curve, SNR point, hypothesis, chunk) keys never share a
    stream, however long the SNR grid.
    """
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, curve_idx, snr_idx, hypothesis, chunk_idx))
    )


def trial_rng(master_seed: int, salt: int, index: int) -> np.random.Generator:
    """Private RNG stream for one trial of a per-trial loop over the public chain.

    :func:`run_experiment` draws whole chunks from :func:`chunk_rng` instead.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, salt, index)))


def amplitude_for_snr(snr_db: float, n_len: int, noise_var: float, k_bits: int) -> float:
    """Per-code amplitude that realizes the configured per-sample SNR."""
    total_power = 10.0 ** (snr_db / 10.0) * n_len * noise_var
    return sqrt(total_power / (k_bits + 1))


def _power(x: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over the last axis of a C-contiguous float64 or complex128 array."""
    flat = x.view(np.float64)
    return np.einsum("...i,...i->...", flat, flat)


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a``, as a stack of products of a few rows of ``a`` each.

    OpenBLAS spreads a product of 2^16 or more multiply-adds over helper
    threads, which spin on other cores and contend with the engine's
    own worker threads; each of these smaller products stays on the
    calling thread.
    """
    rows = max(1, ((1 << 16) - 1) // (a.shape[1] * b.shape[1]))
    pad = -len(a) % rows
    blocks = np.pad(a, ((0, pad), (0, 0))).reshape(-1, rows, a.shape[1])
    return np.matmul(blocks, b).reshape(-1, b.shape[1])[: len(a)]


class _Chunk(NamedTuple):
    """What the receiver computes for a chunk of trials, stacked along axis 0."""

    c: np.ndarray  # (B, n) pairwise statistics |Re[y_iH y_j]|, i < j
    soft: np.ndarray  # (B, K) soft bit metrics Re[y_0H y_k]
    bits: np.ndarray | None  # (B, K) information bits sent; None when no message is sent
    est: np.ndarray  # (B,) frame power, the noise-variance estimate of est_sigma


class _Scenario:
    """Precomputed per-(config, curve) state shared read-only by all workers.

    Trials are drawn in the despread domain instead of being simulated
    frame by frame. The cyclic shifts of the ZC root are an orthonormal
    basis, so despreading is unitary: noise stays white CN(0, sigma^2), and
    the receiver's inputs, the (K+1)*L window samples and the frame power,
    can be drawn directly:

    * a message sent through taps h despreads to ``sum_k a_k roll(h, i_k)``
      (the circular convolution), less what the taps beyond the CP would
      have taken from before the frame: the first ``len(h) - 1 - cp``
      received samples miss those terms, and the miss is despread onto the
      windows by a small precomputed product;
    * code k's tap t of h, folded onto the frame, lands on sample
      (i_k + t) mod N, and the windows read the codes' sum there. By
      Parseval the frame power adds to the window power the rest of the
      response's squared norm, which sees one complex noise sample along
      it, and sigma^2 * Gamma(N - W - 1) for the other N - W - 1 noise
      dimensions (W = (K+1)*L);
    * without a message the receiver reads only inner products of the
      windows, the Gram matrix G of K+1 iid CN(0, sigma^2 I_L) vectors.
      Rows of the lower-trapezoidal LQ factor T of the windows (K+1 by
      r = min(K+1, L)) have the same inner products, and T is drawn
      directly by the complex Bartlett decomposition (Goodman 1963, Ann.
      Math. Stat. 34): |T_ii|^2 is sigma^2 * Gamma(L - i) and the entries
      below the diagonal are CN(0, sigma^2), all independent. The frame
      power is then (tr G + sigma^2 * Gamma(N - W)) / N.

    All are exact; the tests hold ``window_signal`` to the tx -> channel
    -> rx chain, and the chunks to it in distribution.
    """

    def __init__(self, config: ExperimentConfig, curve: CurveConfig):
        self.config = config
        self.curve = curve
        n_len, cp_len = config.n_len, config.cp_len
        self.basis = generate_zc(n_len, config.zc_root)
        self.assign = allocate_codes(1, curve.k_bits, config.l_taps, n_len)[0]
        shifts = np.asarray(self.assign.shift_indices)
        self.win = (shifts[:, None] + np.arange(config.l_taps)[None, :]) % n_len
        self._pairs = np.triu_indices(len(shifts), 1)  # (i, j) of the statistics, i < j

        seq, n_taps = self.basis.seq, len(config.channel.pdp)
        # Code k's tap t of the channel folded onto the frame lands on despread sample (i_k + t)
        # mod N. Code k's powered taps (_support) add into response slots _land[k], and window
        # samples read slots _read; a sample where no tap lands reads a zero slot past the last.
        self._support = np.flatnonzero(np.bincount(np.arange(n_taps) % n_len, config.channel.pdp))
        landing = (shifts[:, None] + self._support) % n_len
        lands = np.unique(landing)
        slot = np.full(n_len, len(lands))
        slot[lands] = np.arange(len(lands))
        self._land, self._read, self._n_slots = slot[landing], slot[self.win], len(lands) + 1
        # Frame head: received sample n < head misses taps l > n + cp, which a
        # circular convolution would have taken from the end of the body.
        beyond_cp = max(n_taps - 1 - cp_len, 0)
        head = min(beyond_cp, n_len)
        n = np.arange(head)[:, None]
        u = np.arange(n_taps + head - 1)
        # code k's body samples u - (T-1), so that the reversed taps slide over them
        self._code_seg = seq[(u[None, :] - (n_taps - 1) - shifts[:, None]) % n_len]
        # column j of the reversed taps is tap T-1-j; only the first T-1-cp can be missing
        self._missing = n_taps - 1 - np.arange(beyond_cp)[None, :] > n + cp_len
        self._head_despread = np.conj(seq[(n - self.win.ravel()[None, :]) % n_len])

    def window_signal(self, coef: np.ndarray, taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Noiseless window samples (B, K+1, L) and frame energies (B,).

        Row b sends the code amplitudes ``coef[b]`` (amplitude times bit,
        reference first) through the channel ``taps[b]``.
        """
        n_len = self.config.n_len
        size, n_taps = taps.shape
        circ = taps
        if n_taps > n_len:  # a response longer than the frame wraps around it
            circ = np.zeros((size, -(-n_taps // n_len) * n_len), complex)
            circ[:, :n_taps] = taps
            circ = circ.reshape(size, -1, n_len).sum(axis=1)
        powered = circ[:, self._support]
        response = np.zeros((size, self._n_slots), complex)
        for k, land in enumerate(self._land):  # code k's amplitude times its taps, where they land
            response[:, land] += coef[:, k, None] * powered
        window = np.take(response, self._read, axis=1)
        energy = _power(response)  # Parseval: the frame's circular energy is the response's
        if len(self._missing):
            rows = sliding_window_view(_matmul_rows(coef, self._code_seg), n_taps, axis=1)
            reversed_taps = taps[:, ::-1]
            circ_head = np.einsum("bnj,bj->bn", rows, reversed_taps)
            cols = self._missing.shape[1]
            missing = np.einsum(
                "bnj,nj,bj->bn", rows[:, :, :cols], self._missing, reversed_taps[:, :cols]
            )
            window -= _matmul_rows(missing, self._head_despread).reshape(window.shape)
            energy += _power(circ_head - missing) - _power(circ_head)
        return window, energy

    def chunk(self, rng, hypothesis: int, amplitude: float, size: int) -> _Chunk:
        """``size`` trials of one hypothesis from ``rng``.

        A message chunk draws bits, then channel, then the noise on the
        windows and off them. A noise-only chunk draws the rows of the LQ
        factor of its windows instead (see the class docstring), then the
        noise off the windows.
        """
        n_len, var = self.config.n_len, self.config.noise_var
        width = self.win.size
        sd = sqrt(var / 2.0)
        bits = None
        if hypothesis:
            bits = rng.integers(0, 2, size=(size, self.curve.k_bits)) * 2.0 - 1.0
            coef = amplitude * np.concatenate((np.ones((size, 1)), bits), axis=1)
            signal, energy = self.window_signal(coef, draw_taps(self.config.channel, rng, size))
            outside = np.maximum(energy - _power(signal.reshape(size, width)), 0.0)
            x = rng.standard_normal((size, 2 * width))
            x *= sd  # in place: every fresh chunk-sized temporary costs page faults
            x = x.view(complex).reshape(size, *self.win.shape)
            x += signal
            # noise along the energy outside the windows, then across the other N - W - 1
            # dimensions
            along = sd * rng.standard_normal((size, 2))
            rest = var * rng.standard_gamma(n_len - width - 1, size)
            est = (
                _power(x.reshape(size, width)) + (np.sqrt(outside) + along[:, 0]) ** 2
                + along[:, 1] ** 2 + rest
            ) / n_len
        else:  # rows of the LQ factor of the windows, of rank min(K+1, L)
            k1, l_taps = self.win.shape
            rank = min(k1, l_taps)
            x = np.zeros((size, k1, rank), complex)
            diag = np.arange(rank)
            x[:, diag, diag] = np.sqrt(var * rng.standard_gamma(l_taps - diag, (size, rank)))
            i, j = np.tril_indices(k1, -1, rank)
            x[:, i, j] = sd * rng.standard_normal((size, 2 * len(i))).view(complex)
            rest = var * rng.standard_gamma(n_len - width, size)
            est = (_power(x.reshape(size, -1)) + rest) / n_len
        # Re G_ij = Re[y_iH y_j], one real product over the real and imaginary parts of the rows
        parts = x.view(np.float64)
        gram = parts @ parts.swapaxes(1, 2)
        i, j = self._pairs
        return _Chunk(np.abs(gram[:, i, j]), gram[:, 0, 1:], bits, est)

    def detected(self, ch: _Chunk, eta) -> np.ndarray:
        """M-of-n decisions, shape (B,) + np.shape(eta), for one threshold or a grid.

        est_sigma scales ``eta`` by each frame's power over the configured
        noise variance.
        """
        scale = np.ones_like(ch.est)
        if self.config.threshold_mode is ThresholdMode.ANALYTIC_EST_SIGMA:
            scale = ch.est / self.config.noise_var
        return detect(ch.c, self.curve.m_of_n, np.multiply.outer(scale, eta))


def _point(config: ExperimentConfig, sc: _Scenario, curve_idx: int, snr_idx: int,
           hypothesis: int, amplitude: float, reduce) -> list:
    """The chunk tasks of one experiment point, in chunk order.

    Each task draws its chunk and returns ``reduce`` of it.
    """

    def one(q):
        rng = chunk_rng(config.master_seed, curve_idx, snr_idx, hypothesis, q)
        size = min(_CHUNK, config.num_trials - q * _CHUNK)
        return reduce(sc.chunk(rng, hypothesis, amplitude, size))

    return [partial(one, q) for q in range(-(-config.num_trials // _CHUNK))]


class _Kind(NamedTuple):
    """One experiment kind: its design targets, the points it draws and how it counts them.

    ``reduce(sc, etas, chunk)`` gives a chunk's partial sums. ``rows(config, curve, designs,
    amps, h0, h1, derived)`` turns a curve's summed chunks into result rows and adds its
    sidecar entries to ``derived``; ``h0`` is the noise-only point, ``h1`` one point per SNR.
    """

    pfas: Callable[[ExperimentConfig], tuple[float, ...]]  # the PFAs it designs for
    h0: bool  # draws the noise-only point
    h1: bool  # draws one message point per SNR
    reduce: Callable
    rows: Callable


def _detections(sc: _Scenario, etas: np.ndarray, ch: _Chunk) -> np.ndarray:
    """Detections of a chunk at each threshold of ``etas`` (PFA, PMD, ROC)."""
    return sc.detected(ch, etas).sum(axis=0)


def _bit_errors(sc: _Scenario, etas: np.ndarray, ch: _Chunk) -> tuple[int, int, int]:
    """Bit errors, bits and frames of a chunk over the frames kept by ``etas``, if any (BER)."""
    kept = sc.detected(ch, etas[0]) if len(etas) else np.ones(len(ch.est), dtype=bool)
    hard = np.where(ch.soft >= 0, 1.0, -1.0)
    det = int(kept.sum())
    return int((hard != ch.bits)[kept].sum()), det * sc.curve.k_bits, det


def _samples(sc: _Scenario, etas: np.ndarray, ch: _Chunk) -> np.ndarray:
    """The pairwise statistics of a chunk, flattened (DIST)."""
    return ch.c.ravel()


def _rate_row(config: ExperimentConfig, curve: CurveConfig, snr: float | None, metric: str,
              count: int, trials: int) -> ResultRow:
    """``count`` of ``trials`` as a rate with its Wilson interval; no trials reads 0 in [0, 1]."""
    lo, hi = wilson_interval(count, trials) if trials else (0.0, 1.0)
    return ResultRow(config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n, metric,
                     count / trials if trials else 0.0, lo, hi, trials, config.master_seed)


def _curve_entry(derived: dict, curve: CurveConfig, **values) -> None:
    """Add one curve's design values to the sidecar's ``curves`` list."""
    derived.setdefault("curves", []).append({"k_bits": curve.k_bits, "m_of_n": curve.m_of_n}
                                            | values)


def _pfa_rows(config, curve, ds, amps, h0, h1, derived) -> list[ResultRow]:
    _curve_entry(derived, curve, p0=ds[0].p0, eta=ds[0].eta, target_pfa=config.target_pfa)
    return [_rate_row(config, curve, None, "pfa", int(sum(h0)[0]), config.num_trials)]


def _pmd_rows(config, curve, ds, amps, h0, h1, derived) -> list[ResultRow]:
    snrs, trials = config.snr_grid_db, config.num_trials
    _curve_entry(derived, curve, p0=ds[0].p0, eta=ds[0].eta, amplitude_by_snr_db={
        format(snr, ".6g"): amp for snr, amp in zip(snrs, amps)})
    return [_rate_row(config, curve, snr, "pmd", trials - int(sum(counts)[0]), trials)
            for snr, counts in zip(snrs, h1)]


def _roc_rows(config, curve, ds, amps, h0, h1, derived) -> list[ResultRow]:
    _curve_entry(derived, curve, pfa_grid=list(config.roc_pfa_grid),
                 eta_grid=[d.eta for d in ds])
    rows, trials, h0_counts = [], config.num_trials, sum(h0)
    for snr, counts in zip(config.snr_grid_db, h1):
        for pfa, h1_count, h0_count in zip(config.roc_pfa_grid, sum(counts), h0_counts):
            tag = format(pfa, ".6g")
            rows.append(_rate_row(config, curve, snr, f"pd@pfa={tag}", int(h1_count), trials))
            rows.append(_rate_row(config, curve, snr, f"pfa_emp@pfa={tag}", int(h0_count),
                                  trials))
    return rows


def _ber_rows(config, curve, ds, amps, h0, h1, derived) -> list[ResultRow]:
    _curve_entry(derived, curve, eta=ds[0].eta if ds else None)
    derived["detection_gate"] = config.ber_detection_gate.value
    rows = []
    for snr, counts in zip(config.snr_grid_db, h1):
        errs, nbits, det = np.sum(counts, axis=0)
        rows.append(_rate_row(config, curve, snr, "ber", int(errs), int(nbits)))
        if ds:  # the CFAR gate's design
            rows.append(_rate_row(config, curve, snr, "detect_rate", int(det), config.num_trials))
    return rows


def _dist_rows(config, curve, ds, amps, h0, h1, derived) -> list[ResultRow]:
    from scipy.stats import ks_2samp  # the only kind that needs scipy

    rows, h0_samples = [], np.concatenate(h0)
    for snr, amp, chunks in zip(config.snr_grid_db, amps, h1):
        h1_samples = np.concatenate(chunks)
        top = 1.05 * max(float(np.quantile(h0_samples, 0.999)),
                         float(np.quantile(h1_samples, 0.999)), 1e-12)
        edges = np.linspace(0.0, top, config.dist_bins + 1)
        h0_hist, _ = np.histogram(h0_samples, bins=edges)
        h1_hist, _ = np.histogram(h1_samples, bins=edges)
        values = {
            "h0_c_mean": float(h0_samples.mean()),
            "h1_c_mean": float(h1_samples.mean()),
            "h1_minus_h0_mean": float(h1_samples.mean() - h0_samples.mean()),
            "expected_h1_offset": amp * amp,
            "ks_h0_h1": float(ks_2samp(h0_samples, h1_samples).statistic),
        }
        for b in range(config.dist_bins):
            values[f"h0_hist_{b:03d}"] = float(h0_hist[b])
            values[f"h1_hist_{b:03d}"] = float(h1_hist[b])
        rows.extend(ResultRow(config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                              metric, value, None, None, config.num_trials, config.master_seed)
                    for metric, value in values.items())
        derived.setdefault("points", []).append({"k_bits": curve.k_bits, "snr_db": snr,
                                                 "amplitude": amp, "bin_edges": edges.tolist()})
    return rows


_KINDS = {
    ExperimentKind.DIST: _Kind(lambda c: (), True, True, _samples, _dist_rows),
    ExperimentKind.PFA: _Kind(lambda c: (c.target_pfa,), True, False, _detections, _pfa_rows),
    ExperimentKind.PMD: _Kind(lambda c: (c.target_pfa,), False, True, _detections, _pmd_rows),
    ExperimentKind.ROC: _Kind(lambda c: c.roc_pfa_grid, True, True, _detections, _roc_rows),
    ExperimentKind.BER: _Kind(
        lambda c: (c.target_pfa,) if c.ber_detection_gate is BerGate.CFAR else (),
        False, True, _bit_errors, _ber_rows),
}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Run ``config`` on ``jobs`` worker threads; one loop serves every kind (see ``_KINDS``).

    Every design (``config.designs``) is solved before the first chunk is
    planned, so a design that fails runs no trials. Then the chunks of every
    point of every curve run on one pool, and the kind's row builder turns
    each curve's sums into rows.
    """
    kind = _KINDS[config.kind]
    amps, tasks = [], []
    for ci, (curve, ds) in enumerate(zip(config.curves, config.designs)):
        sc = _Scenario(config, curve)
        # the reducer holds this curve's scenario and thresholds: its chunks run after the loop
        reduce = partial(kind.reduce, sc, np.array([d.eta for d in ds]))
        amps.append([amplitude_for_snr(snr, config.n_len, config.noise_var, curve.k_bits)
                     for snr in (config.snr_grid_db if kind.h1 else ())])
        if kind.h0:
            tasks += _point(config, sc, ci, 0, 0, 0.0, reduce)
        for si, amp in enumerate(amps[-1]):
            tasks += _point(config, sc, ci, si, 1, amp, reduce)

    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        done = list((pool.map if pool else map)(lambda task: task(), tasks))
    chunks = -(-config.num_trials // _CHUNK)
    points = iter([done[i:i + chunks] for i in range(0, len(done), chunks)])

    rows, derived = [], {}
    for curve, ds, curve_amps in zip(config.curves, config.designs, amps):
        h0 = next(points) if kind.h0 else None
        h1 = [next(points) for _ in curve_amps]
        rows += kind.rows(config, curve, ds, curve_amps, h0, h1, derived)
    return ExperimentResult(config, rows, derived)
