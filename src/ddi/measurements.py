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
sampler and the checks of the closure identity and of this
factorization live in :mod:`ddi.verify`.

Each :class:`QuasiMeasurement` takes at most one thin SVD ``M = U S
V^T`` of its matrix, on first use, and keeps it.  :func:`validate`,
:meth:`QuasiMeasurement.pinv`, :func:`range_volume_sq` and the test of
informational completeness all read that one factorization, and cut
the rank where :func:`~ddi.geometry.pseudoinverse` does: at singular
values of at most ``DEFAULT_TOL`` times the largest (the completeness
test at its own tolerance).  A measurement that none of them reads, such
as the one each inference result carries, is never factorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateRangeError, InvalidInputError, NotAQuasiMeasurementError
from .geometry import DEFAULT_TOL, _array, _read_layout, _shown


@dataclass(frozen=True)
class QuasiMeasurement:
    """Immutable wrapper around an ``n x l`` measurement matrix.

    Construct through :func:`validate`, which checks the normalization
    identity; the constructor itself only enforces shape and finiteness.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = _array(self.matrix, "measurement")
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 2:
            raise InvalidInputError("measurement must be an (n, l) matrix with n >= 1, l >= 2")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def l(self) -> int:
        return int(self.matrix.shape[1])

    @cached_property
    def _svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, s, V^T)`` of the matrix, read-only, taken on first read."""
        factors = np.linalg.svd(self.matrix, full_matrices=False)
        for factor in factors:
            factor.setflags(write=False)
        return factors

    def pinv(self) -> np.ndarray:
        """Pseudoinverse ``V S^+ U^T`` with singular values of at most
        ``DEFAULT_TOL`` times the largest treated as zero, the products
        taken as :func:`numpy.linalg.pinv` takes them."""
        u, sv, vt = self._svd
        inverse = np.zeros_like(sv)
        large = sv > DEFAULT_TOL * sv[0]
        inverse[large] = 1.0 / sv[large]
        return vt.T @ (inverse[:, None] * u.T)


def validate(matrix: np.ndarray) -> QuasiMeasurement:
    """Check the normalization identity and wrap the matrix.

    Raises :class:`NotAQuasiMeasurementError` carrying the residual
    ``|M^T u_n - M^+ M u_l|`` when it exceeds ``DEFAULT_TOL``.  With the
    thin SVD ``M = U S V^T``, ``M^+ M`` projects onto the right singular
    vectors whose singular values pass the ``DEFAULT_TOL`` cutoff, so the
    right-hand side is ``V_r V_r^T u_l``.
    """
    meas = QuasiMeasurement(matrix=matrix)
    _, sv, vt = meas._svd
    kept = vt[sv > DEFAULT_TOL * sv[0]]
    lhs = meas.matrix.sum(axis=0)
    rhs = kept.sum(axis=1) @ kept
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
    s = _array(s, "state")
    if s.shape != (meas.l,):
        raise InvalidInputError(f"state must have length {meas.l}, got shape {s.shape}")
    if abs(float(s.sum()) - 1.0) > DEFAULT_TOL:
        raise InvalidInputError(f"state must sum to 1 within {DEFAULT_TOL}, got {s.sum()}")
    return meas.matrix @ s


def range_volume_sq(meas: QuasiMeasurement) -> float:
    """Squared range volume ``det(M^T M)`` from the measurement's singular values.

    Raises :class:`DegenerateRangeError` when the matrix is rank
    deficient relative to ``DEFAULT_TOL``.
    """
    sv = meas._svd[1]
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
    n, l, matrix = _read_layout(obj, "measurement", ("n", "l"), ("matrix",))
    if matrix.shape != (n, l):
        raise InvalidInputError(
            f"matrix shape {matrix.shape} does not match n={_shown(n)}, l={_shown(l)}")
    return validate(matrix)
