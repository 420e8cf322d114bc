"""Weighted state sets, frame operators, and 2-design certification.

A weighted set of pure states is a (projective) 2-design exactly when
its frame operator, the weighted sum of outer products, equals
``eye(l) / l``.  That is the same operator produced by averaging
``(O s)(O s)^T`` over orthogonal maps ``O`` that fix the all-ones
direction, so designs reproduce degree-2 averages over the whole
sphere-on-the-hyperplane.  The standard basis of R^l, a regular simplex
on that sphere, is the smallest example here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidInputError,
    InvalidRotationError,
    NotPureStateError,
)
from .geometry import DEFAULT_TOL, hyperplane_basis

#: Default certification threshold on the frame-operator deviation.
DESIGN_TOL = 1e-9


@dataclass(frozen=True)
class WeightedStateSet:
    """Finite set of states on the hyperplane with probability weights.

    Attributes
    ----------
    points : ndarray, shape (m, l)
        One state per row, each summing to 1.
    weights : ndarray, shape (m,)
        Nonnegative, summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise InvalidInputError("points must form an (m, l) array with m >= 1, l >= 2")
        if weights.shape != (points.shape[0],):
            raise InvalidInputError("weights must match the number of points")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise InvalidInputError("points and weights must be finite")
        if weights.min() < -1e-12:
            raise InvalidInputError(f"weights must be nonnegative, min is {weights.min()}")
        weights = np.clip(weights, 0.0, None)
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InvalidInputError(f"weights must sum to 1, got {weights.sum()}")
        plane = np.abs(points.sum(axis=1) - 1.0).max()
        if plane > DEFAULT_TOL:
            raise InvalidInputError(
                f"every point must lie on the state hyperplane, worst residual {plane}")
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def l(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of a 2-design check.

    ``frame_deviation`` is the spectral-norm distance of the frame
    operator from ``eye(l) / l`` and ``sphere_deviation`` the largest
    distance of a point norm from 1.  ``is_design`` holds exactly when
    both deviations are within ``tol_used``.
    """

    is_design: bool
    frame_deviation: float
    tol_used: float
    sphere_deviation: float

    def to_dict(self) -> dict:
        return {
            "is_design": bool(self.is_design),
            "frame_deviation": float(self.frame_deviation),
            "tol": float(self.tol_used),
            "sphere_deviation": float(self.sphere_deviation),
        }


def frame_operator(states: WeightedStateSet) -> np.ndarray:
    """Weighted sum of outer products, ``sum_i w_i s_i s_i^T``.

    The result is symmetric with trace ``sum_i w_i |s_i|^2``.
    """
    return _frame(states.points, states.weights)


def _frame(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    f = (points.T * weights) @ points
    return (f + f.T) / 2.0


def _frame_deviation(frame: np.ndarray) -> float:
    """Spectral-norm distance of a symmetric frame operator from ``eye(l) / l``.

    The excess is symmetric, so its spectral norm is its largest
    ``|eigenvalue|``.
    """
    l = frame.shape[0]
    return float(np.abs(np.linalg.eigvalsh(frame - np.eye(l) / l)).max())


def certify_design(states: WeightedStateSet, tol: float = DESIGN_TOL) -> DesignCertificate:
    """2-design certificate of a weighted state set, without raising.

    ``is_design`` holds when the point norms are within ``tol`` of 1 and
    the frame operator is within ``tol`` of ``eye(l) / l``.
    """
    sphere_deviation = float(np.abs(np.linalg.norm(states.points, axis=1) - 1.0).max())
    frame_deviation = _frame_deviation(frame_operator(states))
    return DesignCertificate(
        is_design=max(sphere_deviation, frame_deviation) <= tol,
        frame_deviation=frame_deviation,
        tol_used=float(tol),
        sphere_deviation=sphere_deviation,
    )


def is_two_design(states: WeightedStateSet, tol: float = DESIGN_TOL) -> DesignCertificate:
    """Certify whether a set of pure states is a 2-design.

    Same certificate as :func:`certify_design`, but a point off the unit
    sphere by more than ``tol`` raises :class:`NotPureStateError`.
    """
    certificate = certify_design(states, tol)
    if certificate.sphere_deviation > tol:
        raise NotPureStateError(
            f"point lies off the pure-state sphere by {certificate.sphere_deviation}",
            deviation=certificate.sphere_deviation)
    return certificate


def regular_simplex(l: int) -> WeightedStateSet:
    """The standard basis of R^l with uniform weights.

    Its points are mutually orthogonal unit vectors on the hyperplane,
    forming a regular simplex inscribed in the state ball, and the frame
    operator is exactly ``eye(l) / l``.
    """
    if l < 2:
        raise InvalidDimensionError(f"formalism dimension must be >= 2, got {l}")
    return WeightedStateSet(points=np.eye(l), weights=np.full(l, 1.0 / l))


def _haar_orthogonal_batch(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed elements of O(k) via sign-fixed QR."""
    z = rng.standard_normal((count, k, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(d == 0.0, 1.0, np.sign(d))[:, None, :]


def random_stabilizing_orthogonal(l: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """Haar-random orthogonal matrix fixing the all-ones direction.

    The draw is uniform over the O(l-1) subgroup acting on the
    complement of the all-ones vector, embedded back into R^l.  Such
    maps send the state ball onto itself.
    """
    if l < 2:
        raise InvalidDimensionError(f"formalism dimension must be >= 2, got {l}")
    rng = np.random.default_rng(seed)
    basis = hyperplane_basis(l)
    q = _haar_orthogonal_batch(l - 1, 1, rng)[0]
    return np.ones((l, l)) / l + basis @ q @ basis.T


def rotate_set(states: WeightedStateSet, rotation: np.ndarray) -> WeightedStateSet:
    """Apply a stabilizing orthogonal map to every point of a state set.

    Raises :class:`InvalidRotationError` unless ``rotation`` is
    orthogonal and fixes the all-ones vector, both within ``DEFAULT_TOL``.
    Weights are untouched; norms, pairwise angles, and any design
    property are preserved.
    """
    rotation = np.asarray(rotation, dtype=float)
    l = states.l
    if rotation.shape != (l, l):
        raise InvalidRotationError(f"rotation must be {l} x {l}, got {rotation.shape}")
    ones = np.ones(l)
    if np.abs(rotation @ ones - ones).max() > DEFAULT_TOL:
        raise InvalidRotationError("rotation must fix the all-ones vector")
    if np.abs(rotation.T @ rotation - np.eye(l)).max() > DEFAULT_TOL:
        raise InvalidRotationError("rotation must be orthogonal")
    return WeightedStateSet(points=states.points @ rotation.T, weights=states.weights)


def haar_average_estimate(s: np.ndarray, samples: int,
                          seed: int | np.random.Generator = 0) -> np.ndarray:
    """Monte-Carlo estimate of the orbit average of ``s s^T``.

    Averages ``(O s)(O s)^T`` over Haar-random stabilizing orthogonals.
    For any pure state the exact average is ``eye(l) / l``, the same
    operator a 2-design reproduces; every sample has unit trace, so the
    estimate does too.
    """
    s = np.asarray(s, dtype=float)
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise InvalidInputError(f"samples must be a positive integer, got {samples!r}")
    if s.ndim != 1 or s.size < 2 or not np.all(np.isfinite(s)):
        raise InvalidInputError("state must be a finite vector of length >= 2")
    plane = abs(float(s.sum()) - 1.0)
    radial = abs(float(s @ s) - 1.0)
    if plane > DEFAULT_TOL or radial > DEFAULT_TOL:
        raise NotPureStateError(
            "orbit averaging requires a pure state on the hyperplane",
            deviation=max(plane, radial))
    l = s.size
    rng = np.random.default_rng(seed)
    basis = hyperplane_basis(l)
    x = basis.T @ s
    total = np.zeros((l, l))
    done = 0
    while done < samples:
        batch = min(int(samples) - done, 1 << 16)
        q = _haar_orthogonal_batch(l - 1, batch, rng)
        pts = np.ones((batch, l)) / l + (q @ x) @ basis.T
        total += pts.T @ pts
        done += batch
    return total / samples


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares, ``argmin |a x - b|`` over ``x >= 0``.

    With no more columns than rows, the fit starts from the unconstrained
    minimizer of the normal equations: where that is positive it is the
    optimum, since the KKT conditions hold with no bound active.  Otherwise
    Lawson and Hanson's active-set loop runs from zero (*Solving Least
    Squares Problems*, 1974), with a least-squares solve over the free
    columns at each step.
    """
    n, m = a.shape
    x = np.zeros(m)
    if m <= n:
        try:
            start = np.linalg.solve(a.T @ a, a.T @ b)
        except np.linalg.LinAlgError:  # a singular Gram matrix has no unique minimizer
            start = x
        if start.min() > 0.0:
            return start
    passive = np.zeros(m, dtype=bool)
    tol = 10 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(n, m)
    for _ in range(3 * m):
        grad = np.where(passive, -np.inf, a.T @ (b - a @ x))
        j = int(np.argmax(grad))
        if grad[j] <= tol:
            break
        passive[j] = True
        while passive.any():
            z = np.zeros(m)
            z[passive] = np.linalg.lstsq(a[:, passive], b)[0]
            if z[passive].min() > 0.0:
                x = z
                break
            # step from x toward z until the first passive weight reaches zero
            hit = passive & (z <= 0.0)
            x = x + np.min(x[hit] / np.maximum(x[hit] - z[hit], tol)) * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
    return x


def design_weights(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Search the weight simplex for a design-certifying weighting.

    Solves a nonnegative least-squares fit of the frame condition
    ``sum_i w_i s_i s_i^T = eye(l) / l`` over the given unit-norm
    points.  Returns the normalized weights and the spectral-norm frame
    deviation they achieve.  When no weighting fits, the returned
    deviation simply stays large.

    This is a verification tool, not part of the inference path: an
    inference result already carries its certifying weights, the
    solver's dual weights.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError("points must form an (m, l) array")
    m, l = points.shape
    system = np.einsum("mi,mj->mij", points, points).reshape(m, l * l).T
    weights = _nnls(system, (np.eye(l) / l).ravel())
    total = weights.sum()
    if total <= 1e-12:
        weights = np.full(m, 1.0 / m)
    else:
        weights = weights / total
    return weights, _frame_deviation(_frame(points, weights))


def state_set_to_dict(states: WeightedStateSet) -> dict:
    """Serialize as ``{"l", "points", "weights"}``."""
    return {
        "l": states.l,
        "points": states.points.tolist(),
        "weights": states.weights.tolist(),
    }


def state_set_from_dict(obj: dict) -> WeightedStateSet:
    """Parse the ``{"l", "points", "weights"}`` layout."""
    try:
        l = int(obj["l"])
        points = np.asarray(obj["points"], dtype=float)
        weights = np.asarray(obj["weights"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed state-set object: {exc}") from exc
    if points.ndim != 2 or points.shape[1] != l:
        raise InvalidInputError(f"points must be rows of length {l}")
    return WeightedStateSet(points=points, weights=weights)
