"""Exception hierarchy shared across the package."""

from __future__ import annotations


class DdiError(Exception):
    """Base class for every error raised by this package."""


class InvalidDimensionError(DdiError):
    """A dimension argument is outside the supported range."""


class InvalidInputError(DdiError):
    """An input value fails structural validation."""


class NotNormalizedError(InvalidInputError):
    """An operator that must have unit trace does not."""


class NotPureStateError(DdiError):
    """A vector expected on the pure-state sphere lies off it."""

    def __init__(self, message: str, deviation: float | None = None):
        super().__init__(message)
        self.deviation = deviation


class InvalidRotationError(DdiError):
    """A matrix is not an orthogonal map fixing the all-ones direction."""


class InvalidStateError(DdiError):
    """A vector is not on the state hyperplane."""


class NotAQuasiMeasurementError(DdiError):
    """A matrix fails the quasi-measurement normalization identity."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateRangeError(DdiError):
    """A measurement matrix is rank deficient where full rank is required."""


class DegenerateInputError(DdiError):
    """A point set is too degenerate for the requested operation."""


class NotClosedFormCaseError(DdiError):
    """The closed-form inference path does not apply to this cloud."""


class PreconditionViolatedError(DdiError):
    """A documented precondition of a verification routine is violated."""


class NoConvergenceError(DdiError):
    """The iterative solver hit its iteration cap before reaching the gap.

    ``partial`` is the best iterate found, for callers to inspect or
    persist; its ``optimality_gap`` and ``iterations`` record the solve.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
