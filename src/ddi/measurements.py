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
and ``L`` (l x l).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRangeError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidStateError,
    NotAQuasiMeasurementError,
)
from .geometry import DEFAULT_TOL, pseudoinverse

_DET_RTOL = 1e-8


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


def is_informationally_complete(meas: QuasiMeasurement, tol: float = DEFAULT_TOL) -> bool:
    """True when ``M^+ M = eye(l)`` within ``tol`` in spectral norm."""
    if meas.n < meas.l:
        return False
    gram = meas.pinv(tol) @ meas.matrix
    return float(np.linalg.norm(gram - np.eye(meas.l), 2)) <= tol


def range_volume_sq(meas: QuasiMeasurement) -> float:
    """Squared range volume ``det(M^T M)`` via singular values.

    Raises :class:`DegenerateRangeError` when the matrix is rank
    deficient relative to ``DEFAULT_TOL``.
    """
    sv = np.linalg.svd(meas.matrix, compute_uv=False)
    if meas.n < meas.l or sv[-1] <= DEFAULT_TOL * sv[0]:
        raise DegenerateRangeError("measurement range is rank deficient")
    return float(np.prod(sv * sv))


def pseudoinverse_closure_check(meas: QuasiMeasurement) -> bool:
    """Verify the closure identity ``(M^+)^T u_l = M M^+ u_n`` within ``DEFAULT_TOL``."""
    pinv = meas.pinv()
    lhs = pinv.T @ np.ones(meas.l)
    rhs = meas.matrix @ (pinv @ np.ones(meas.n))
    return float(np.linalg.norm(lhs - rhs)) <= DEFAULT_TOL


def det_factorization_check(outer: QuasiMeasurement, inner: QuasiMeasurement) -> bool:
    """Verify ``det((M L)^T M L) = det(M^T M) det(L^T L)`` to relative 1e-8.

    The outer factor may be rectangular but the inner one must be
    square (the identity fails for a strictly rectangular inner
    factor); both must be informationally complete and composable.
    """
    if outer.l != inner.n:
        raise InvalidInputError(
            f"inner dimensions do not compose: {outer.l} vs {inner.n}")
    if inner.n != inner.l:
        raise InvalidInputError(
            f"inner factor must be square, got {inner.n} x {inner.l}")
    if not (is_informationally_complete(outer) and is_informationally_complete(inner)):
        raise InvalidInputError("determinant factorization requires informationally complete factors")
    product = QuasiMeasurement(matrix=outer.matrix @ inner.matrix)
    lhs = range_volume_sq(product)
    rhs = range_volume_sq(outer) * range_volume_sq(inner)
    return abs(lhs - rhs) <= _DET_RTOL * abs(rhs)


def random_ic_quasi_measurement(n: int, l: int,
                                seed: int | np.random.Generator = 0) -> QuasiMeasurement:
    """Random informationally complete quasi-measurement with ``n`` outcomes.

    Gaussian tangent block with column sums fixed to 1; redrawn in the
    unlikely event of rank deficiency.  Deterministic for a fixed seed.
    """
    if l < 2 or n < l:
        raise InvalidDimensionError(
            f"need n >= l >= 2 for informational completeness, got n={n}, l={l}")
    rng = np.random.default_rng(seed)
    ones_n = np.ones(n)
    for _ in range(64):
        block = rng.standard_normal((n, l))
        block -= np.outer(ones_n, ones_n @ block) / n
        matrix = np.outer(ones_n, np.ones(l)) / n + block
        sv = np.linalg.svd(matrix, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return validate(matrix)
    raise DegenerateRangeError("failed to draw a full-rank measurement")


def random_quasi_measurement(n: int, l: int, rank: int,
                             seed: int | np.random.Generator = 0) -> QuasiMeasurement:
    """Random quasi-measurement of prescribed rank.

    Builds a matrix whose rows live in a random ``rank``-dimensional
    subspace and whose column sums equal the projection of the all-ones
    vector onto that subspace, which is exactly the normalization
    identity.  With ``rank == l`` this reduces to an informationally
    complete draw.
    """
    if l < 2 or n < 1:
        raise InvalidDimensionError(f"need l >= 2 and n >= 1, got n={n}, l={l}")
    if rank < 1 or rank > min(n, l):
        raise InvalidDimensionError(f"rank must lie in [1, min(n, l)], got {rank}")
    rng = np.random.default_rng(seed)
    ones_n = np.ones(n)
    ones_l = np.ones(l)
    for _ in range(64):
        span = np.linalg.qr(rng.standard_normal((l, rank)))[0]
        projector = span @ span.T
        rows = rng.standard_normal((n, rank)) @ span.T
        matrix = rows + np.outer(ones_n, projector @ ones_l - rows.T @ ones_n) / n
        sv = np.linalg.svd(matrix, compute_uv=False)
        if sv[rank - 1] > 1e-6 * sv[0] and (rank == min(n, l) or sv[rank] < 1e-9 * sv[0]):
            return validate(matrix)
    raise DegenerateRangeError("failed to draw a measurement of the requested rank")


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
