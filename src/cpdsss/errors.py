"""Exception types shared across the package."""

__all__ = ["CapacityError", "UnsupportedConfiguration", "ConfigError", "NumericalError"]


class CapacityError(ValueError):
    """Raised when a code allocation request exceeds what the sequence length supports."""


class UnsupportedConfiguration(ValueError):
    """Raised for parameter combinations the receiver cannot operate with (e.g. K = 0 detection)."""


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment/CLI configuration."""


class NumericalError(RuntimeError):
    """Raised when an iterative numeric routine fails to converge."""
