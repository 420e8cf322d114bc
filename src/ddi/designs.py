"""Weighted state sets, frame operators, and 2-design certification.

A weighted set of pure states is a (projective) 2-design exactly when
its frame operator, the weighted sum of outer products, equals
``eye(l) / l``.  That is the same operator produced by averaging
``(O s)(O s)^T`` over orthogonal maps ``O`` that fix the all-ones
direction, so designs reproduce degree-2 averages over the whole
sphere-on-the-hyperplane.  The standard basis of R^l, a regular simplex
on that sphere, is the smallest example.  That simplex
(``regular_simplex``) and the Haar samplers, set rotations, orbit
averages and design-weight fit that check these facts live in
:mod:`ddi.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPureStateError
from .geometry import DEFAULT_TOL

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
    if not certificate.sphere_deviation <= tol:
        raise NotPureStateError(
            f"point lies off the pure-state sphere by {certificate.sphere_deviation}",
            deviation=certificate.sphere_deviation)
    return certificate


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
