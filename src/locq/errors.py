"""Exception hierarchy shared by all locq modules, and the one rule by which
a computed number is refused: require_double."""

import cmath
import math
import sys


def is_normal(value: float | complex) -> bool:
    """Finite, with its larger part at least the least normal double."""
    return cmath.isfinite(value) and max(abs(value.real), abs(value.imag)) >= sys.float_info.min


def require_double(what: str, value, normal: bool = False):
    """value, or a ValueError naming `what` where a part of it is not a finite
    double or, with normal, where it is not normal (is_normal): it lost digits."""
    if not (cmath.isfinite(value) if isinstance(value, complex) else math.isfinite(value)):
        raise ValueError(f"overflow: {what} is not a finite double, got {value!r}")
    if normal and not is_normal(value):
        raise ValueError(f"underflow: {what} is below the normal doubles, got {value!r}")
    return value


class LocqError(Exception):
    """Base class for all locq-specific errors."""


class DegenerateFactorError(LocqError):
    """An infinite product contains a vanishing factor (1 - q^0)."""


class NonConvergentError(LocqError):
    """An infinite product or series is evaluated outside |q| < 1."""


class ToleranceUnreachableError(LocqError):
    """The requested tolerance needs more factors than the configured cap."""


class OddDimensionError(LocqError):
    """Pfaffians are defined for even-dimensional matrices only."""


class NotSkewSymmetricError(LocqError):
    """Matrix deviates from skew symmetry beyond the accepted tolerance."""


class SingularMatrixError(LocqError):
    """Operation requires a nonsingular skew matrix."""


class DegenerateWeightError(LocqError):
    """A sphere factor with zero Hamiltonian weight has no isolated fixed points."""


class PochhammerZeroDivisionError(LocqError, ZeroDivisionError):
    """A negative-index Pochhammer factor vanishes."""


class DegenerateParametersError(LocqError):
    """A denominator Pochhammer factor vanishes inside the summation range."""


class BetaSingularityError(LocqError):
    """The twist point is a zero of the building-block function."""


class ScanInconclusiveError(LocqError):
    """The period scan did not find a sublattice of the expected index."""


class UsageError(LocqError):
    """Invalid command-line input (exit code 2)."""
