"""cpdsss: link-level simulation of spread-spectrum underlay scheduling requests.

The package covers the whole chain: Zadoff-Chu spreading-code algebra
(:mod:`.zc`), message construction and code allocation (:mod:`.tx`),
multipath fading and noise (:mod:`.channel`), the FFT despreading
receiver with pairwise detection statistics (:mod:`.rx`), closed-form
CFAR detector design (:mod:`.analysis`), and deterministic Monte Carlo
experiments plus their CSV/JSON reporting (:mod:`.experiments`). The
``cpdsss`` console command exposes design, simulation, and self-test
entry points.

The public names below are importable from the package itself. Each is
loaded from its submodule on first use (PEP 562), so a process that only
designs detectors never loads the experiment engine, its thread pool,
hashlib or numpy.
"""

from importlib import import_module

from ._version import __version__

_EXPORTS = {
    "zc": ("ZcBasis", "generate_zc", "cyclic_shift"),
    "tx": ("CodeAssignment", "allocate_codes", "build_message", "add_cp", "remove_cp"),
    "channel": (
        "ProfileKind", "ChannelConfig", "NoiseSpec",
        "draw_taps", "draw_channel", "apply_channel", "superpose",
    ),
    "rx": (
        "DespreadSet", "despread_full", "extract_user", "detect", "recover_bits",
        "estimate_noise_power",
    ),
    "analysis": (
        "bessel_k_half", "H0Pdf", "h0_pdf", "h0_cdf", "solve_threshold",
        "pfa_from_p0", "p0_from_pfa", "DetectorDesign",
        "design_detector", "occupancy_fraction", "processing_gain_db", "interference_rise_db",
    ),
    "experiments": (
        "ExperimentKind", "ThresholdMode", "CurveConfig",
        "ExperimentConfig", "ExperimentResult", "run_experiment",
    ),
    "errors": (
        "CapacityError", "UnsupportedConfiguration", "ConfigError", "NumericalError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
