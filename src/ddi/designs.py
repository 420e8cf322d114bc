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

from .errors import InvalidInputError
from .geometry import DEFAULT_TOL, _array, _read_layout, _real, _shown

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
        # copies, so that freezing them leaves the caller's arrays writeable
        points = _array(self.points, "points").copy()
        weights = _array(self.weights, "weights").copy()
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise InvalidInputError("points must form an (m, l) array with m >= 1, l >= 2")
        if weights.shape != (points.shape[0],):
            raise InvalidInputError("weights must match the number of points")
        # einsum sums do not warn when finite entries overflow, and the
        # tests below fail closed on the NaN that inf - inf gives
        plane = float(np.abs(np.einsum("ij->i", points) - 1.0).max())
        total = float(np.einsum("i->", weights))
        low = float(weights.min())
        if low < -1e-12:
            raise InvalidInputError(f"weights must be nonnegative, min is {low}")
        if low < 0.0:
            np.maximum(weights, 0.0, out=weights)
            total = float(np.einsum("i->", weights))
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidInputError(f"weights must sum to 1, got {total}")
        if not plane <= DEFAULT_TOL:
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
    """Symmetrized frame operator of ``(..., m, l)`` points with ``(..., m)`` weights."""
    f = (points.swapaxes(-1, -2) * weights[..., None, :]) @ points
    return (f + f.swapaxes(-1, -2)) / 2.0


def _frame_deviation(frame: np.ndarray) -> np.ndarray:
    """Spectral-norm distance of symmetric frame operators from ``eye(l) / l``.

    ``frame`` may carry leading stack axes, each ``l x l`` slice measured
    on its own.  The excess is symmetric, so its spectral norm is its
    largest ``|eigenvalue|``.
    """
    l = frame.shape[-1]
    excess = frame - np.eye(l) / l
    return np.abs(np.linalg.eigvalsh(excess)).max(axis=-1)


def certify_design(states: WeightedStateSet, tol: float = DESIGN_TOL) -> DesignCertificate:
    """2-design certificate of a weighted state set, without raising.

    ``is_design`` holds when the point norms are within ``tol`` of 1 and
    the frame operator is within ``tol`` of ``eye(l) / l``.
    """
    tol = _real(tol, "tol")
    points = states.points
    # the sums of squares norm(points, axis=1) takes, without its wrapper
    norms = np.sqrt((points * points).sum(axis=1))
    sphere_deviation = float(np.abs(norms - 1.0).max())
    frame_deviation = float(_frame_deviation(frame_operator(states)))
    return DesignCertificate(
        is_design=max(sphere_deviation, frame_deviation) <= tol,
        frame_deviation=frame_deviation,
        tol_used=tol,
        sphere_deviation=sphere_deviation,
    )


def is_two_design(states: WeightedStateSet, tol: float = DESIGN_TOL) -> DesignCertificate:
    """Certify whether a set of pure states is a 2-design.

    Same certificate as :func:`certify_design`, but a point off the unit
    sphere by more than ``tol`` raises :class:`InvalidInputError`.
    """
    certificate = certify_design(states, tol)
    if not certificate.sphere_deviation <= certificate.tol_used:
        raise InvalidInputError(
            f"point lies off the pure-state sphere by {certificate.sphere_deviation}")
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
    l, points, weights = _read_layout(obj, "state-set", ("l",), ("points", "weights"))
    if points.ndim != 2 or points.shape[1] != l:
        raise InvalidInputError(f"points must be rows of length {_shown(l)}")
    return WeightedStateSet(points=points, weights=weights)
