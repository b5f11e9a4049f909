"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
ContractError / NumericalError -> 3.
"""

__all__ = ["EnetPipeError", "ConfigError", "DataError", "DataFormatError",
           "DimensionError", "InsufficientDataError", "UndefinedMetricError",
           "ContractError", "NumericalError"]


class EnetPipeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EnetPipeError):
    """Invalid parameter or configuration value."""


class DataError(EnetPipeError):
    """Problem with input data (format, dimensions, content)."""


class DataFormatError(DataError):
    """Malformed file contents."""


class DimensionError(DataError):
    """Shapes of paired inputs do not agree."""


class InsufficientDataError(DataError):
    """Too few samples for the requested operation."""


class UndefinedMetricError(DataError):
    """A metric was requested on an empty collection."""


class ContractError(EnetPipeError):
    """A caller violated a documented precondition (e.g. non-standardized input)."""


class NumericalError(EnetPipeError):
    """Numerical failure (divergence, singular system)."""
