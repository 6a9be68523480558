"""Deterministic Monte Carlo experiments over the full transmit/receive chain.

Experiment kinds
----------------
DIST  histograms of the pairwise statistic under both hypotheses
PFA   empirical false-alarm rate of the calibrated detector (noise-only frames)
PMD   miss-detection rate versus SNR
ROC   detection versus false-alarm rate over a threshold sweep
BER   uncoded bit error rate versus SNR

Determinism contract: every trial draws its randomness from a private
stream derived as (master_seed, point salt, trial index), so results are
bit-identical for any worker count. Worker threads process fixed-size
chunks of the trial range and partial aggregates are combined in chunk
order, which keeps even floating-point reductions byte-stable.

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
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite, sqrt

import numpy as np

from ._version import __version__ as _code_version
from .analysis import DetectorDesign, H0Pdf, design_detector, p0_from_pfa, solve_threshold
from .channel import ChannelProfile, NoiseSpec, ProfileKind, draw_channel, apply_channel, superpose
from .errors import ConfigError
from .rx import despread_full, estimate_noise_power, pairwise_stats
from .tx import add_cp, allocate_codes, remove_cp
from .zc import cyclic_shift, generate_zc

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
    "trial_rng",
    "amplitude_for_snr",
    "run_dist",
    "run_pfa",
    "run_pmd",
    "run_roc",
    "run_ber",
    "run_experiment",
]

CSV_COLUMNS = [
    "experiment",
    "kind",
    "snr_db",
    "k_bits",
    "m_of_n",
    "metric",
    "value",
    "ci_low",
    "ci_high",
    "trials",
    "seed",
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


@dataclass(frozen=True)
class ChannelConfig:
    kind: str = "tdl_a"
    rms_delay_spread_ns: float = 300.0
    sample_rate_hz: float = 30.72e6
    max_taps: int = 128
    normalize_each_draw: bool = True

    def __post_init__(self):
        if not isfinite(self.rms_delay_spread_ns):
            raise ConfigError(
                f"channel.rms_delay_spread_ns must be finite, got {self.rms_delay_spread_ns}"
            )
        if not (isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ConfigError(
                f"channel.sample_rate_hz must be finite and positive, got {self.sample_rate_hz}"
            )

    def to_profile(self) -> ChannelProfile:
        try:
            pk = ProfileKind(self.kind)
        except ValueError:
            raise ConfigError(f"unknown channel kind: {self.kind!r}") from None
        return ChannelProfile(
            kind=pk,
            rms_delay_spread=self.rms_delay_spread_ns * 1e-9,
            sample_rate=self.sample_rate_hz,
            max_taps=self.max_taps,
            normalize_each_draw=self.normalize_each_draw,
        )


_CHANNEL_KEYS = {
    "kind",
    "rms_delay_spread_ns",
    "sample_rate_hz",
    "max_taps",
    "normalize_each_draw",
}
_CURVE_KEYS = {"k_bits", "m_of_n"}
_CONFIG_KEYS = {
    "kind",
    "name",
    "n_len",
    "cp_len",
    "l_taps",
    "zc_root",
    "noise_var",
    "k_bits",
    "m_of_n",
    "curves",
    "target_pfa",
    "snr_grid_db",
    "num_trials",
    "master_seed",
    "threshold_mode",
    "ber_detection_gate",
    "roc_pfa_grid",
    "dist_bins",
    "channel",
}


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
        if self.n_len < 2:
            raise ConfigError("n_len must be >= 2")
        if not 0 <= self.cp_len < self.n_len:
            raise ConfigError("cp_len must be in [0, n_len)")
        if self.l_taps < 1:
            raise ConfigError("l_taps must be >= 1")
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
        if self.kind is not ExperimentKind.PFA and not self.snr_grid_db:
            raise ConfigError(f"{self.kind.value} experiments need a non-empty snr_grid_db")

    @classmethod
    def from_mapping(cls, m: dict) -> "ExperimentConfig":
        if not isinstance(m, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(m) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in m:
            raise ConfigError("config needs a 'kind'")
        try:
            kind = ExperimentKind(str(m["kind"]).lower())
        except ValueError:
            raise ConfigError(f"unknown experiment kind: {m['kind']!r}") from None

        if "curves" in m and ("k_bits" in m or "m_of_n" in m):
            raise ConfigError("give either 'curves' or top-level k_bits/m_of_n, not both")
        if "curves" in m:
            curves = []
            for entry in m["curves"]:
                if not isinstance(entry, dict):
                    raise ConfigError("each curve must be an object")
                bad = set(entry) - _CURVE_KEYS
                if bad:
                    raise ConfigError(f"unknown curve keys: {sorted(bad)}")
                curves.append(
                    CurveConfig(
                        k_bits=int(entry.get("k_bits", 1)),
                        m_of_n=int(entry.get("m_of_n", 1)),
                    )
                )
            curves = tuple(curves)
        else:
            curves = (CurveConfig(k_bits=int(m.get("k_bits", 1)), m_of_n=int(m.get("m_of_n", 1))),)

        chan = m.get("channel", {})
        if not isinstance(chan, dict):
            raise ConfigError("'channel' must be an object")
        bad = set(chan) - _CHANNEL_KEYS
        if bad:
            raise ConfigError(f"unknown channel keys: {sorted(bad)}")
        channel = ChannelConfig(
            kind=str(chan.get("kind", "tdl_a")),
            rms_delay_spread_ns=float(chan.get("rms_delay_spread_ns", 300.0)),
            sample_rate_hz=float(chan.get("sample_rate_hz", 30.72e6)),
            max_taps=int(chan.get("max_taps", 128)),
            normalize_each_draw=bool(chan.get("normalize_each_draw", True)),
        )

        def _mode(value, enum, label):
            try:
                return enum(str(value).lower())
            except ValueError:
                raise ConfigError(f"unknown {label}: {value!r}") from None

        return cls(
            kind=kind,
            name=str(m.get("name", "")),
            n_len=int(m.get("n_len", 1024)),
            cp_len=int(m.get("cp_len", 72)),
            l_taps=int(m.get("l_taps", 40)),
            zc_root=int(m.get("zc_root", 1)),
            noise_var=float(m.get("noise_var", 1.0)),
            curves=curves,
            target_pfa=float(m.get("target_pfa", 1e-3)),
            snr_grid_db=tuple(float(v) for v in m.get("snr_grid_db", ())),
            num_trials=int(m.get("num_trials", 10_000)),
            master_seed=int(m.get("master_seed", 0)),
            threshold_mode=_mode(
                m.get("threshold_mode", "true_sigma"), ThresholdMode, "threshold_mode"
            ),
            ber_detection_gate=_mode(
                m.get("ber_detection_gate", "none"), BerGate, "ber_detection_gate"
            ),
            roc_pfa_grid=tuple(float(v) for v in m.get("roc_pfa_grid", cls.roc_pfa_grid)),
            dist_bins=int(m.get("dist_bins", 50)),
            channel=channel,
        )

    def to_mapping(self) -> dict:
        return {
            "kind": self.kind.value,
            "name": self.name,
            "n_len": self.n_len,
            "cp_len": self.cp_len,
            "l_taps": self.l_taps,
            "zc_root": self.zc_root,
            "noise_var": self.noise_var,
            "curves": [{"k_bits": c.k_bits, "m_of_n": c.m_of_n} for c in self.curves],
            "target_pfa": self.target_pfa,
            "snr_grid_db": list(self.snr_grid_db),
            "num_trials": self.num_trials,
            "master_seed": self.master_seed,
            "threshold_mode": self.threshold_mode.value,
            "ber_detection_gate": self.ber_detection_gate.value,
            "roc_pfa_grid": list(self.roc_pfa_grid),
            "dist_bins": self.dist_bins,
            "channel": {
                "kind": self.channel.kind,
                "rms_delay_spread_ns": self.channel.rms_delay_spread_ns,
                "sample_rate_hz": self.channel.sample_rate_hz,
                "max_taps": self.channel.max_taps,
                "normalize_each_draw": self.channel.normalize_each_draw,
            },
        }

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


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    derived: dict
    extras: dict = field(default_factory=dict, repr=False)

    def to_csv_text(self) -> str:
        def fmt(v, spec=".12g"):
            if v is None:
                return ""
            if isinstance(v, float):
                return format(v, spec)
            return str(v)

        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        r.experiment,
                        r.kind,
                        fmt(r.snr_db, ".6g"),
                        str(r.k_bits),
                        str(r.m_of_n),
                        r.metric,
                        fmt(r.value),
                        fmt(r.ci_low),
                        fmt(r.ci_high),
                        str(r.trials),
                        str(r.seed),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def sidecar_mapping(self) -> dict:
        return {
            "config": self.config.to_mapping(),
            "config_hash": self.config.config_hash(),
            "code_version": _code_version,
            "derived": self.derived,
        }

    def write(self, out_dir) -> tuple[str, str]:
        """Write the sidecar then the CSV, both atomically; returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        sidecar = os.path.join(out_dir, f"{self.config.name}.config.json")
        csv_path = os.path.join(out_dir, f"{self.config.name}.csv")
        _atomic_write(sidecar, json.dumps(self.sidecar_mapping(), indent=2, sort_keys=True) + "\n")
        _atomic_write(csv_path, self.to_csv_text())
        return csv_path, sidecar


def write_sidecar(config: ExperimentConfig, derived: dict, out_dir) -> str:
    """Echo the fully resolved config (plus derived design values) before running."""
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


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def trial_rng(master_seed: int, salt: int, index: int) -> np.random.Generator:
    """Private RNG stream for one trial, independent of worker scheduling."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(master_seed, salt, index)))


def amplitude_for_snr(snr_db: float, n_len: int, noise_var: float, k_bits: int) -> float:
    """Per-code amplitude that realizes the configured per-sample SNR."""
    total_power = 10.0 ** (snr_db / 10.0) * n_len * noise_var
    return sqrt(total_power / (k_bits + 1))


def _salt(curve_idx: int, snr_idx: int, hypothesis: int) -> int:
    return (curve_idx * 4096 + snr_idx) * 2 + hypothesis


def _run_chunks(num_trials: int, jobs: int, fn):
    """Apply fn(start, end) over fixed-size chunks; results in chunk order."""
    spans = [(s, min(s + _CHUNK, num_trials)) for s in range(0, num_trials, _CHUNK)]
    if jobs <= 1 or len(spans) <= 1:
        return [fn(s, e) for s, e in spans]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(lambda se: fn(*se), spans))


class _Scenario:
    """Precomputed per-(config, curve) state shared read-only by all workers."""

    def __init__(self, config: ExperimentConfig, curve: CurveConfig, need_design=True):
        self.config = config
        self.curve = curve
        self.basis = generate_zc(config.n_len, config.zc_root)
        self.basis.conj_spectrum  # materialize the cache before threads start
        self.assign = allocate_codes(
            1, curve.k_bits, config.l_taps, config.n_len
        )[0]
        idx = np.asarray(self.assign.shift_indices)
        self.win = (idx[:, None] + np.arange(config.l_taps)[None, :]) % config.n_len
        self.codes = np.stack([cyclic_shift(self.basis, i) for i in self.assign.shift_indices])
        self.profile = config.channel.to_profile()
        self.noise = NoiseSpec(config.noise_var)
        self.design: DetectorDesign | None = None
        if need_design:
            self.design = design_detector(
                config.target_pfa, curve.k_bits, curve.m_of_n, config.l_taps, config.noise_var
            )

    # Per-trial RNG draw order is fixed: bits, then channel, then noise.

    def h0_trial(self, rng) -> tuple[np.ndarray, float]:
        y = superpose([], self.noise, rng, n_samples=self.config.n_len)
        c, _, _ = pairwise_stats(despread_full(self.basis, y)[self.win])
        return c, estimate_noise_power(y)

    def h1_trial(self, rng, amplitude: float):
        k = self.curve.k_bits
        bits = np.concatenate(([1.0], rng.choice([-1.0, 1.0], size=k)))
        body = amplitude * (bits @ self.codes)
        samples = add_cp(body, self.config.cp_len)
        h = draw_channel(self.profile, rng)
        rx = apply_channel(samples, h)
        y_full = superpose([rx], self.noise, rng)
        y = remove_cp(y_full, self.config.cp_len)
        yprime = despread_full(self.basis, y)
        vectors = yprime[self.win]
        c, _, _ = pairwise_stats(vectors)
        soft = (vectors[0].conj() @ vectors[1:].T).real
        return c, soft, bits[1:], estimate_noise_power(y)

    def thresholds(self, est_power: float, base_eta: float) -> float:
        if self.config.threshold_mode is ThresholdMode.ANALYTIC_EST_SIGMA:
            return base_eta * est_power / self.config.noise_var
        return base_eta


def run_pfa(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Noise-only frames through the full receiver; empirical false-alarm rate per curve."""
    if config.kind is not ExperimentKind.PFA:
        raise ConfigError("run_pfa needs kind = 'pfa'")
    rows, derived = [], {"curves": []}
    for ci, curve in enumerate(config.curves):
        sc = _Scenario(config, curve)
        eta = sc.design.eta
        salt = _salt(ci, 0, 0)

        def chunk(start, end):
            det = 0
            for t in range(start, end):
                rng = trial_rng(config.master_seed, salt, t)
                c, est = sc.h0_trial(rng)
                if int((c > sc.thresholds(est, eta)).sum()) >= curve.m_of_n:
                    det += 1
            return det

        detections = sum(_run_chunks(config.num_trials, jobs, chunk))
        pfa = detections / config.num_trials
        lo, hi = wilson_interval(detections, config.num_trials)
        rows.append(
            ResultRow(
                config.name, config.kind.value, None, curve.k_bits, curve.m_of_n,
                "pfa", pfa, lo, hi, config.num_trials, config.master_seed,
            )
        )
        derived["curves"].append(
            {"k_bits": curve.k_bits, "m_of_n": curve.m_of_n,
             "p0": sc.design.p0, "eta": eta, "target_pfa": config.target_pfa}
        )
    return ExperimentResult(config, rows, derived)


def run_pmd(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Miss-detection rate versus SNR for each (K, M) curve."""
    if config.kind is not ExperimentKind.PMD:
        raise ConfigError("run_pmd needs kind = 'pmd'")
    rows, derived = [], {"curves": []}
    for ci, curve in enumerate(config.curves):
        sc = _Scenario(config, curve)
        eta = sc.design.eta
        amps = {}
        for si, snr in enumerate(config.snr_grid_db):
            amp = amplitude_for_snr(snr, config.n_len, config.noise_var, curve.k_bits)
            amps[format(snr, ".6g")] = amp
            salt = _salt(ci, si, 1)

            def chunk(start, end):
                miss = 0
                for t in range(start, end):
                    rng = trial_rng(config.master_seed, salt, t)
                    c, _, _, est = sc.h1_trial(rng, amp)
                    if int((c > sc.thresholds(est, eta)).sum()) < curve.m_of_n:
                        miss += 1
                return miss

            misses = sum(_run_chunks(config.num_trials, jobs, chunk))
            pmd = misses / config.num_trials
            lo, hi = wilson_interval(misses, config.num_trials)
            rows.append(
                ResultRow(
                    config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                    "pmd", pmd, lo, hi, config.num_trials, config.master_seed,
                )
            )
        derived["curves"].append(
            {"k_bits": curve.k_bits, "m_of_n": curve.m_of_n,
             "p0": sc.design.p0, "eta": eta, "amplitude_by_snr_db": amps}
        )
    return ExperimentResult(config, rows, derived)


def run_roc(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """(empirical PFA, PD) pairs over an analytic threshold sweep, per curve and SNR."""
    if config.kind is not ExperimentKind.ROC:
        raise ConfigError("run_roc needs kind = 'roc'")
    rows, derived = [], {"curves": []}
    pdf_cache: dict[tuple, float] = {}
    for ci, curve in enumerate(config.curves):
        sc = _Scenario(config, curve, need_design=False)
        n_pairs = curve.k_bits * (curve.k_bits + 1) // 2
        h0pdf = H0Pdf(config.l_taps, config.noise_var)
        etas = []
        for pfa in config.roc_pfa_grid:
            key = (curve.k_bits, curve.m_of_n, pfa)
            if key not in pdf_cache:
                p0 = p0_from_pfa(pfa, n_pairs, curve.m_of_n)
                pdf_cache[key] = solve_threshold(h0pdf, p0)
            etas.append(pdf_cache[key])
        etas_arr = np.asarray(etas)
        m = curve.m_of_n

        def mth_largest(c):
            return float(np.partition(c, -m)[-m])

        salt_h0 = _salt(ci, 0, 0)

        def chunk_h0(start, end):
            counts = np.zeros(len(etas_arr), dtype=np.int64)
            for t in range(start, end):
                rng = trial_rng(config.master_seed, salt_h0, t)
                c, est = sc.h0_trial(rng)
                scale = (
                    est / config.noise_var
                    if config.threshold_mode is ThresholdMode.ANALYTIC_EST_SIGMA
                    else 1.0
                )
                counts += mth_largest(c) > etas_arr * scale
            return counts

        h0_counts = sum(_run_chunks(config.num_trials, jobs, chunk_h0))

        curve_info = {"k_bits": curve.k_bits, "m_of_n": curve.m_of_n,
                      "pfa_grid": list(config.roc_pfa_grid), "eta_grid": list(map(float, etas_arr))}
        for si, snr in enumerate(config.snr_grid_db):
            amp = amplitude_for_snr(snr, config.n_len, config.noise_var, curve.k_bits)
            salt = _salt(ci, si, 1)

            def chunk_h1(start, end):
                counts = np.zeros(len(etas_arr), dtype=np.int64)
                for t in range(start, end):
                    rng = trial_rng(config.master_seed, salt, t)
                    c, _, _, est = sc.h1_trial(rng, amp)
                    scale = (
                        est / config.noise_var
                        if config.threshold_mode is ThresholdMode.ANALYTIC_EST_SIGMA
                        else 1.0
                    )
                    counts += mth_largest(c) > etas_arr * scale
                return counts

            h1_counts = sum(_run_chunks(config.num_trials, jobs, chunk_h1))
            for gi, pfa in enumerate(config.roc_pfa_grid):
                tag = format(pfa, ".6g")
                lo, hi = wilson_interval(int(h1_counts[gi]), config.num_trials)
                rows.append(
                    ResultRow(
                        config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                        f"pd@pfa={tag}", h1_counts[gi] / config.num_trials, lo, hi,
                        config.num_trials, config.master_seed,
                    )
                )
                lo0, hi0 = wilson_interval(int(h0_counts[gi]), config.num_trials)
                rows.append(
                    ResultRow(
                        config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                        f"pfa_emp@pfa={tag}", h0_counts[gi] / config.num_trials, lo0, hi0,
                        config.num_trials, config.master_seed,
                    )
                )
        derived["curves"].append(curve_info)
    return ExperimentResult(config, rows, derived)


def run_ber(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Uncoded BER versus SNR; optionally only over frames the CFAR detector accepts."""
    if config.kind is not ExperimentKind.BER:
        raise ConfigError("run_ber needs kind = 'ber'")
    gated = config.ber_detection_gate is BerGate.CFAR
    rows, derived = [], {"curves": [], "detection_gate": config.ber_detection_gate.value}
    for ci, curve in enumerate(config.curves):
        sc = _Scenario(config, curve, need_design=gated)
        eta = sc.design.eta if gated else None
        for si, snr in enumerate(config.snr_grid_db):
            amp = amplitude_for_snr(snr, config.n_len, config.noise_var, curve.k_bits)
            salt = _salt(ci, si, 1)

            def chunk(start, end):
                errs = nbits = det = 0
                for t in range(start, end):
                    rng = trial_rng(config.master_seed, salt, t)
                    c, soft, bits, est = sc.h1_trial(rng, amp)
                    if gated:
                        if int((c > sc.thresholds(est, eta)).sum()) < curve.m_of_n:
                            continue
                        det += 1
                    hard = np.where(soft >= 0, 1.0, -1.0)
                    errs += int((hard != bits).sum())
                    nbits += len(bits)
                return errs, nbits, det

            parts = _run_chunks(config.num_trials, jobs, chunk)
            errs = sum(p[0] for p in parts)
            nbits = sum(p[1] for p in parts)
            det = sum(p[2] for p in parts)
            ber = errs / nbits if nbits else 0.0
            lo, hi = wilson_interval(errs, nbits) if nbits else (0.0, 1.0)
            rows.append(
                ResultRow(
                    config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                    "ber", ber, lo, hi, nbits, config.master_seed,
                )
            )
            if gated:
                dlo, dhi = wilson_interval(det, config.num_trials)
                rows.append(
                    ResultRow(
                        config.name, config.kind.value, snr, curve.k_bits, curve.m_of_n,
                        "detect_rate", det / config.num_trials, dlo, dhi,
                        config.num_trials, config.master_seed,
                    )
                )
        derived["curves"].append(
            {"k_bits": curve.k_bits, "m_of_n": curve.m_of_n, "eta": eta}
        )
    return ExperimentResult(config, rows, derived)


def run_dist(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    """Histograms of the pairwise statistic under both hypotheses, per SNR."""
    if config.kind is not ExperimentKind.DIST:
        raise ConfigError("run_dist needs kind = 'dist'")
    from scipy.stats import ks_2samp

    rows, derived = [], {"points": []}
    extras = {}
    for ci, curve in enumerate(config.curves):
        sc = _Scenario(config, curve, need_design=False)

        salt_h0 = _salt(ci, 0, 0)

        def chunk_h0(start, end):
            out = []
            for t in range(start, end):
                rng = trial_rng(config.master_seed, salt_h0, t)
                c, _ = sc.h0_trial(rng)
                out.append(c)
            return np.concatenate(out)

        h0_samples = np.concatenate(_run_chunks(config.num_trials, jobs, chunk_h0))

        for si, snr in enumerate(config.snr_grid_db):
            amp = amplitude_for_snr(snr, config.n_len, config.noise_var, curve.k_bits)
            salt = _salt(ci, si, 1)

            def chunk_h1(start, end):
                out = []
                for t in range(start, end):
                    rng = trial_rng(config.master_seed, salt, t)
                    c, _, _, _ = sc.h1_trial(rng, amp)
                    out.append(c)
                return np.concatenate(out)

            h1_samples = np.concatenate(_run_chunks(config.num_trials, jobs, chunk_h1))
            top = 1.05 * max(
                float(np.quantile(h0_samples, 0.999)), float(np.quantile(h1_samples, 0.999)), 1e-12
            )
            edges = np.linspace(0.0, top, config.dist_bins + 1)
            h0_hist, _ = np.histogram(h0_samples, bins=edges)
            h1_hist, _ = np.histogram(h1_samples, bins=edges)
            ks = float(ks_2samp(h0_samples, h1_samples).statistic)
            base = dict(
                experiment=config.name, kind=config.kind.value, snr_db=snr,
                k_bits=curve.k_bits, m_of_n=curve.m_of_n,
                ci_low=None, ci_high=None, trials=config.num_trials, seed=config.master_seed,
            )
            rows.append(ResultRow(metric="h0_c_mean", value=float(h0_samples.mean()), **base))
            rows.append(ResultRow(metric="h1_c_mean", value=float(h1_samples.mean()), **base))
            rows.append(
                ResultRow(metric="h1_minus_h0_mean",
                          value=float(h1_samples.mean() - h0_samples.mean()), **base)
            )
            rows.append(ResultRow(metric="expected_h1_offset", value=amp * amp, **base))
            rows.append(ResultRow(metric="ks_h0_h1", value=ks, **base))
            for b in range(config.dist_bins):
                rows.append(ResultRow(metric=f"h0_hist_{b:03d}", value=float(h0_hist[b]), **base))
                rows.append(ResultRow(metric=f"h1_hist_{b:03d}", value=float(h1_hist[b]), **base))
            derived["points"].append(
                {"k_bits": curve.k_bits, "snr_db": snr, "amplitude": amp,
                 "bin_edges": [float(e) for e in edges]}
            )
            extras[(curve.k_bits, snr)] = {"h0": h0_samples, "h1": h1_samples}
    return ExperimentResult(config, rows, derived, extras=extras)


_RUNNERS = {
    ExperimentKind.PFA: run_pfa,
    ExperimentKind.PMD: run_pmd,
    ExperimentKind.ROC: run_roc,
    ExperimentKind.BER: run_ber,
    ExperimentKind.DIST: run_dist,
}


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentResult:
    return _RUNNERS[config.kind](config, jobs=jobs)
