"""Verification harness: checks of the theory behind :mod:`ddi.inference`.

Range membership, the volume bound ``det(M^T M) >= 1`` for square
measurements enclosing a design, the consistency bijection under
composition, the generate-infer-compare round trip, and the random
enclosing samplers they draw from.  None of it is on the inference path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateRangeError,
    InvalidInputError,
    PreconditionViolatedError,
)
from .geometry import DEFAULT_TOL, ball_membership, ball_radius, hyperplane_basis
from .designs import DesignCertificate, WeightedStateSet, design_weights, is_two_design
from .inference import ProbabilityCloud, ddi_on_ball
from .measurements import (QuasiMeasurement, det_factorization_check, is_informationally_complete,
                           range_volume_sq, validate)

_PERTURBATION_SCALE = 0.1
_MIN_DESIGN_DEVIATION = 1e-3


def feasibility_check(meas: QuasiMeasurement, cloud: ProbabilityCloud,
                      tol: float = DEFAULT_TOL) -> bool:
    """Is every cloud point inside the range of the measurement?

    Requires informational completeness.  Checks that each distribution
    is reproduced by ``M M^+`` within ``tol`` and that its counter-image
    lies in the state ball within ``tol``.
    """
    if not is_informationally_complete(meas, max(tol, DEFAULT_TOL)):
        raise InvalidInputError("feasibility check requires an informationally complete measurement")
    return _reproduces(meas.matrix, cloud.points @ meas.pinv().T, cloud.points, tol)


def _reproduces(matrix: np.ndarray, counter: np.ndarray, points: np.ndarray,
                tol: float) -> bool:
    """Does ``counter @ matrix.T`` give ``points`` within ``tol``, with every
    row of ``counter`` in the ball within ``tol``?"""
    if float(np.abs(counter @ matrix.T - points).max()) > tol:
        return False
    # ball_membership of every row: on the hyperplane and f(s) <= tol
    sums = counter.sum(axis=1)
    cone = np.einsum("ij,ij->i", counter, counter) - sums * sums
    return bool(np.all(np.abs(sums - 1.0) <= tol) and np.all(cone <= tol))


@dataclass(frozen=True)
class VolumeBoundReport:
    """Outcome of the range-volume lower bound check.

    ``trace_gap`` is the diagnostic ``tr(M^-1 M^-T) - l``, nonpositive
    up to rounding whenever the bound applies.
    """

    satisfied: bool
    gram_det: float
    trace_gap: float

    def __bool__(self) -> bool:
        return self.satisfied


def design_volume_bound_check(meas: QuasiMeasurement,
                              states: WeightedStateSet) -> VolumeBoundReport:
    """Check ``det(M^T M) >= 1`` for a square measurement enclosing a design.

    Preconditions (violations raise :class:`PreconditionViolatedError`):
    ``meas`` is square and invertible, ``states`` certifies as a
    2-design at ``DESIGN_TOL``, and every design point lies in the image
    of the ball, i.e. each counter-image ``M^-1 s`` is in the ball
    within ``DEFAULT_TOL``.
    """
    matrix = meas.matrix
    if meas.n != meas.l or meas.l != states.l:
        raise InvalidInputError(
            f"bound check needs a square {states.l} x {states.l} measurement")
    certificate = is_two_design(states)
    if not certificate.is_design:
        raise PreconditionViolatedError(
            f"state set is not a certified 2-design, deviation {certificate.frame_deviation}")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise PreconditionViolatedError("measurement must be invertible")
    inverse = np.linalg.inv(matrix)
    counter = states.points @ inverse.T
    for s in counter:
        if not ball_membership(s):
            raise PreconditionViolatedError(
                "measurement range does not enclose the design")
    gram_det = float(np.prod(sv * sv))
    trace_gap = float(np.sum(1.0 / (sv * sv)) - meas.l)
    return VolumeBoundReport(
        satisfied=gram_det >= 1.0 - DEFAULT_TOL,
        gram_det=gram_det,
        trace_gap=trace_gap,
    )


def _sample_enclosing(points: np.ndarray, chart: np.ndarray, draw_center,
                      rng: np.random.Generator) -> QuasiMeasurement:
    """Draw loop shared by the enclosing samplers.

    Draws a margin in [0.05, 0.5], then for each try a center from
    ``draw_center()`` and a Gaussian tangent block, skips ill-conditioned
    blocks, and scales the block so the farthest counter-image of
    ``points`` lands at ``1 / (1 + margin)`` of the ball radius.  The
    measurement maps the ball center ``u/l`` to the center and the ball's
    tangent space into ``chart``.
    """
    margin = float(rng.uniform(0.05, 0.5))
    d = chart.shape[1]
    tangent = hyperplane_basis(d + 1)
    radius = ball_radius(d + 1)
    for _ in range(64):
        center = draw_center()
        x = (points - center) @ chart
        block = rng.standard_normal((d, d))
        sv = np.linalg.svd(block, compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            continue
        reach = np.linalg.norm(np.linalg.solve(block, x.T), axis=0).max()
        scale = (1.0 + margin) * max(reach, 1e-12) / radius
        matrix = np.outer(center, np.ones(d + 1)) + chart @ (scale * block) @ tangent.T
        return validate(matrix)
    raise DegenerateInputError("failed to draw a well-conditioned tangent block")


def sample_enclosing_square(points: np.ndarray, rng: np.random.Generator) -> QuasiMeasurement:
    """Random invertible ``l x l`` quasi-measurement enclosing given states.

    Draws a Gaussian tangent block and scales it so every state's
    counter-image lands strictly inside the ball.
    """
    points = np.asarray(points, dtype=float)
    l = points.shape[1]
    center = np.ones(l) / l
    return _sample_enclosing(points, hyperplane_basis(l), lambda: center, rng)


def sample_enclosing_measurement(cloud: ProbabilityCloud,
                                 rng: np.random.Generator) -> QuasiMeasurement:
    """Random ``n x l`` quasi-measurement whose range contains the cloud.

    The center is a random point of the cloud's affine hull near the
    centroid and the tangent block is a scaled Gaussian, so feasibility
    holds by construction.
    """
    d = cloud.span_dim - 1
    chart, base = cloud.chart, cloud.base
    spread = (cloud.points - base) @ chart
    scale0 = max(float(np.linalg.norm(spread, axis=1).max()), 1e-12)
    return _sample_enclosing(
        cloud.points, chart, lambda: base + chart @ (0.3 * scale0 * rng.standard_normal(d)), rng)


def composition_bijection_check(meas: QuasiMeasurement, cloud: ProbabilityCloud,
                                samples: int = 100,
                                seed: int | np.random.Generator = 0) -> bool:
    """Sample both directions of the consistency bijection.

    For an informationally complete ``M`` whose range contains the
    cloud, composition with ``M`` maps measurements consistent with the
    counter-image cloud ``M^+ P`` onto measurements consistent with
    ``P``, and ``M^+`` maps back.  This draws random members on each
    side, checks membership of the image on the other side, and checks
    the determinant factorization (to relative 1e-8) along the way.
    Returns True when all samples pass.
    """
    if not is_informationally_complete(meas):
        raise InvalidInputError("bijection check requires an informationally complete measurement")
    if cloud.span_dim != meas.l:
        raise InvalidInputError(
            f"cloud spans {cloud.span_dim} dimensions but the measurement has l={meas.l}")
    pinv = meas.pinv()
    recon = cloud.points @ (meas.matrix @ pinv).T
    if float(np.abs(recon - cloud.points).max()) > DEFAULT_TOL:
        raise InvalidInputError("cloud must lie in the range of the measurement")
    counter_cloud = ProbabilityCloud(cloud.points @ pinv.T)
    rng = np.random.default_rng(seed)
    for _ in range(int(samples)):
        inner = sample_enclosing_square(counter_cloud.points, rng)
        forward = validate(meas.matrix @ inner.matrix)
        if not feasibility_check(forward, cloud, 1e-8):
            return False
        if not det_factorization_check(meas, inner):
            return False
        outer = sample_enclosing_measurement(cloud, rng)
        backward = validate(pinv @ outer.matrix)
        if not feasibility_check(backward, counter_cloud, 1e-8):
            return False
    return True


def _perturbed_simplex(l: int, rng: np.random.Generator):
    """Pure-state simplex perturbation that fails design certification.

    Moves each standard-basis point along the sphere and keeps drawing
    until the best weighting over the moved points still misses the
    frame condition by at least ``_MIN_DESIGN_DEVIATION``.
    """
    tangent = hyperplane_basis(l)
    radius = ball_radius(l)
    x = (np.eye(l) - np.ones(l) / l) @ tangent
    for _ in range(64):
        moved = x + _PERTURBATION_SCALE * rng.standard_normal(x.shape)
        norms = np.linalg.norm(moved, axis=1)
        if norms.min() < 1e-9:
            continue
        moved *= radius / norms[:, None]
        points = np.ones(l) / l + moved @ tangent.T
        sv = np.linalg.svd(points, compute_uv=False)
        if sv[-1] <= 1e-6 * sv[0]:
            continue
        _, deviation = design_weights(points)
        if deviation >= _MIN_DESIGN_DEVIATION:
            return points, float(deviation)
    raise DegenerateInputError(
        "could not draw a perturbed simplex beyond the requested deviation")


@dataclass(frozen=True)
class RoundTripReport:
    """Empirical record of one generate-infer-compare cycle.

    ``closed_form_gap`` is ``max |O^T O - I|`` for the least-squares ``O``
    with ``M O = M_r``: rounding-level exactly when the recovered ``M_r``
    is the input ``M`` up to the gauge, as the closed form claims.
    """

    expected_volume_sq: float
    recovered_volume_sq: float
    relative_gap: float
    design_certificate: DesignCertificate
    closed_form_gap: float
    feasible: bool
    optimality_gap: float
    iterations: int
    perturbed_excess: tuple[float, ...] = ()
    perturbed_deviation: tuple[float, ...] = ()


def inference_round_trip(meas: QuasiMeasurement, eps: float = 1e-9,
                         max_iter: int = 10 ** 6, perturbations: int = 0,
                         seed: int | np.random.Generator = 0) -> RoundTripReport:
    """Generate data from a known measurement, infer it back, and compare.

    The cloud is the image of the standard-basis simplex, so the true
    minimum of the squared range volume is ``det(M^T M)`` of the input.
    The report records the recovered volume, the counter-image design
    certificate at 1e-7, the distance of the recovered measurement from
    the input one up to the gauge, and an explicit feasibility check of
    the recovered measurement against the cloud: the result's own
    counter-image must lie in the ball and be mapped onto the cloud,
    both within 1e-6.  The input must be informationally complete, by
    the rank test of :func:`range_volume_sq`; otherwise
    :class:`InvalidInputError` is raised.

    With ``perturbations > 0`` the simplex is additionally kicked along
    the sphere into sets that fail design certification by at least
    1e-3; for each the report stores the relative excess of the input
    measurement's volume over the new minimum.  A positive excess means
    consistency through a non-design counter-image costs volume.
    """
    try:
        expected = range_volume_sq(meas)
    except DegenerateRangeError as exc:
        raise InvalidInputError(
            "round trip requires an informationally complete measurement") from exc
    cloud = ProbabilityCloud(meas.matrix.T)
    result = ddi_on_ball(cloud, eps, max_iter)
    relative_gap = abs(result.volume_sq - expected) / expected
    gauge = np.linalg.lstsq(meas.matrix, result.measurement.matrix, rcond=None)[0]
    closed_form_gap = np.abs(gauge.T @ gauge - np.eye(meas.l)).max()
    feasible = _reproduces(result.measurement.matrix, result.counter_image.points,
                           cloud.points, 1e-6)
    rng = np.random.default_rng(seed)
    excesses = []
    deviations = []
    for _ in range(int(perturbations)):
        points, deviation = _perturbed_simplex(meas.l, rng)
        perturbed_cloud = ProbabilityCloud(points @ meas.matrix.T)
        minimum = ddi_on_ball(perturbed_cloud, eps, max_iter).volume_sq
        excesses.append(expected / minimum - 1.0)
        deviations.append(deviation)
    return RoundTripReport(
        expected_volume_sq=expected,
        recovered_volume_sq=result.volume_sq,
        relative_gap=float(relative_gap),
        design_certificate=result.design_certificate,
        closed_form_gap=float(closed_form_gap),
        feasible=feasible,
        optimality_gap=result.optimality_gap,
        iterations=result.iterations,
        perturbed_excess=tuple(excesses),
        perturbed_deviation=tuple(deviations),
    )
