"""Quasi-measurements: real matrices mapping states to outcome statistics.

An ``n``-outcome quasi-measurement on a system of dimension ``l`` is an
``n x l`` real matrix ``M`` acting by the Born rule ``p = M s``.  The
class is carved out by the normalization identity

    M^T u_n = M^+ M u_l,

where ``u_k`` is the all-ones vector and ``M^+`` the pseudoinverse.  For
informationally complete ``M`` (full column rank) the right-hand side is
``u_l``, so each column sums to 1 and outcome vectors of any state sum
to 1.  Rank-deficient members satisfy the identity too; for those the
sum rule holds on states inside the measured row space.  The class is
closed under pseudoinversion: ``(M^+)^T u_l = M M^+ u_n``.

The squared volume of the measurement range is ``det(M^T M)``, the
quantity the inference routines minimize.  It factorizes over
composition with square members: ``det((M L)^T M L) =
det(M^T M) det(L^T L)`` for informationally complete ``M`` (n x l)
and ``L`` (l x l).  The test of informational completeness, the random
samplers and the checks of the closure identity and of this
factorization live in :mod:`ddi.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRangeError,
    InvalidInputError,
    InvalidStateError,
    NotAQuasiMeasurementError,
)
from .geometry import DEFAULT_TOL, pseudoinverse


@dataclass(frozen=True)
class QuasiMeasurement:
    """Immutable wrapper around an ``n x l`` measurement matrix.

    Construct through :func:`validate`, which checks the normalization
    identity; the constructor itself only enforces shape and finiteness.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 2:
            raise InvalidInputError("measurement must be an (n, l) matrix with n >= 1, l >= 2")
        if not np.all(np.isfinite(matrix)):
            raise InvalidInputError("measurement entries must be finite")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def l(self) -> int:
        return int(self.matrix.shape[1])

    def pinv(self, rank_tol: float = DEFAULT_TOL) -> np.ndarray:
        return pseudoinverse(self.matrix, rank_tol)


def validate(matrix: np.ndarray) -> QuasiMeasurement:
    """Check the normalization identity and wrap the matrix.

    Raises :class:`NotAQuasiMeasurementError` carrying the residual
    ``|M^T u_n - M^+ M u_l|`` when it exceeds ``DEFAULT_TOL``.
    """
    meas = QuasiMeasurement(matrix=matrix)
    m = meas.matrix
    lhs = m.T @ np.ones(meas.n)
    rhs = m.T @ pseudoinverse(m.T) @ np.ones(meas.l)
    residual = float(np.linalg.norm(lhs - rhs))
    if residual > DEFAULT_TOL:
        raise NotAQuasiMeasurementError(
            f"normalization identity fails with residual {residual}", residual=residual)
    return meas


def apply(meas: QuasiMeasurement, s: np.ndarray) -> np.ndarray:
    """Born rule: outcome vector ``M s`` of a state on the hyperplane.

    ``s`` must sum to 1 within ``DEFAULT_TOL``.  For informationally
    complete measurements the result sums to 1 for every hyperplane
    state; for rank-deficient ones that holds when ``s`` additionally
    lies in the measured row space.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (meas.l,):
        raise InvalidStateError(f"state must have length {meas.l}, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidStateError("state entries must be finite")
    if abs(float(s.sum()) - 1.0) > DEFAULT_TOL:
        raise InvalidStateError(f"state must sum to 1 within {DEFAULT_TOL}, got {s.sum()}")
    return meas.matrix @ s


def range_volume_sq(meas: QuasiMeasurement) -> float:
    """Squared range volume ``det(M^T M)`` via singular values.

    Raises :class:`DegenerateRangeError` when the matrix is rank
    deficient relative to ``DEFAULT_TOL``.
    """
    sv = np.linalg.svd(meas.matrix, compute_uv=False)
    if meas.n < meas.l or sv[-1] <= DEFAULT_TOL * sv[0]:
        raise DegenerateRangeError("measurement range is rank deficient")
    return float(np.prod(sv * sv))


def measurement_to_dict(meas: QuasiMeasurement) -> dict:
    """Serialize as ``{"n", "l", "matrix"}``; floats round-trip exactly."""
    return {
        "n": meas.n,
        "l": meas.l,
        "matrix": meas.matrix.tolist(),
    }


def measurement_from_dict(obj: dict) -> QuasiMeasurement:
    """Parse and validate the ``{"n", "l", "matrix"}`` layout."""
    try:
        n = int(obj["n"])
        l = int(obj["l"])
        matrix = np.asarray(obj["matrix"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed measurement object: {exc}") from exc
    if matrix.shape != (n, l):
        raise InvalidInputError(f"matrix shape {matrix.shape} does not match n={n}, l={l}")
    return validate(matrix)
