"""Exception hierarchy shared across the package.

One class per failure a caller tells apart:

- ``DdiError``: the base of them all; the CLI maps it to exit 3.
- ``InvalidInputError``: a malformed argument or a violated precondition; exit 3.
- ``DegenerateInputError``: a cloud or design too degenerate to solve, not malformed; exit 3.
- ``DegenerateRangeError``: a rank-deficient measurement; the round trip catches it.
- ``NotAQuasiMeasurementError``: the sampler catches it to redraw; carries ``residual``.
- ``NoConvergenceError``: the solver's iteration cap; exit 2, carries ``partial``.
"""

from __future__ import annotations


class DdiError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DdiError):
    """An input value fails structural validation."""


class NotAQuasiMeasurementError(DdiError):
    """A matrix fails the quasi-measurement normalization identity."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DegenerateRangeError(DdiError):
    """A measurement matrix is rank deficient where full rank is required."""


class DegenerateInputError(DdiError):
    """A point set is too degenerate for the requested operation."""


class NoConvergenceError(DdiError):
    """The iterative solver hit its iteration cap before reaching the gap.

    ``partial`` is the best iterate found, for callers to inspect or
    persist; its ``optimality_gap`` and ``iterations`` record the solve.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
