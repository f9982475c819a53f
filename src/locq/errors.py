"""Exception hierarchy shared by all locq modules."""


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
