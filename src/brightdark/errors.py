"""Exception types shared across the package, and the checks of plain numbers
that turn Python's OverflowError and TypeError into a ValueError."""

import math
import operator


def finite(value) -> bool:
    """Whether a real or complex number is finite.  An int past the float range
    (10**400), which math.isfinite and complex() refuse with OverflowError, is not."""
    try:
        return math.isfinite(value.real) and math.isfinite(value.imag)
    except OverflowError:
        return False


def integer(name: str, value) -> int:
    """``value`` as an int (it may be a numpy integer); ValueError for 2.0 or NaN."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class DimensionMismatchError(ValueError):
    """Two objects disagree on the number of modes."""


class SectorError(ValueError):
    """State lies outside the photon-number sector an operation supports."""


class UnsupportedBasisError(ValueError):
    """Requested collective basis does not exist for this mode count."""


class CutoffError(ValueError):
    """Photon-number cutoff too small for the requested truncation tail."""

    def __init__(self, message: str, required_cutoff: int):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested analysis (vacuum, single mode, ...)."""

    def __init__(self, message: str, vacuum: bool = False):
        super().__init__(message)
        self.vacuum = vacuum


class ResolutionError(ValueError):
    """Sampling grid too coarse to resolve the requested feature."""


class ResourceLimitError(RuntimeError):
    """Exhaustive computation would exceed the configured size bound."""


class ConfigurationError(ValueError):
    """Physical parameters are inconsistent with the requested calculation."""
