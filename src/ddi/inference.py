"""Minimum-volume inference of quasi-measurements from probability data.

Given a cloud of (quasi-)probability distributions, the inference map
returns the least committal quasi-measurement consistent with it: the
one whose range, the image of the state ball, has minimum volume among
all informationally complete quasi-measurements whose range contains the
cloud.  Because every such range is an ellipsoid on the distribution
hyperplane and the squared range volume is monotone in the ellipsoid
volume, the problem reduces to a minimum-volume enclosing ellipsoid
computed inside an orthonormal chart of the cloud's affine hull.

The solver is a barycentric coordinate ascent on the points lifted to
homogeneous coordinates (the classic Khachiyan iteration, which handles
the free center), sharpened with away and drop steps so the default
duality gap of 1e-9 is reachable at desk scale.  The dual weights double
as an optimality certificate.

The optimum is unique only up to right-composition with an orthogonal
map fixing the all-ones direction.  The returned representative is
gauge-fixed: its tangent block is the symmetric positive square root of
the ellipsoid shape, expressed in deterministic charts.

Optimality has a sharp witness: the counter-image of the cloud under the
optimal measurement, weighted by the solver's dual weights, satisfies
the frame condition sum_j u_j s_j s_j^T = I/l, and its support lies on
the pure-state sphere, so it is a weighted 2-design.  Every result
therefore carries the counter-image with those weights and its design
certificate, and `design_volume_bound_check` verifies the underlying
bound det(M^T M) >= 1 for square measurements enclosing a certified
design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NoConvergenceError,
    NotClosedFormCaseError,
    PreconditionViolatedError,
)
from .geometry import DEFAULT_TOL, ball_membership, ball_radius, hyperplane_basis
from .designs import (
    DESIGN_TOL,
    DesignCertificate,
    WeightedStateSet,
    design_weights,
    frame_operator,
    is_two_design,
    regular_simplex,
    state_set_to_dict,
)
from .measurements import (
    QuasiMeasurement,
    is_informationally_complete,
    measurement_to_dict,
    range_volume_sq,
    validate,
)

GAUGE_NOTE = (
    "optimal up to right-composition with any orthogonal map fixing the "
    "all-ones direction; returned representative has a symmetric positive "
    "tangent block in deterministic charts"
)


class ProbabilityCloud:
    """Finite set of observed (quasi-)probability distributions.

    Parameters
    ----------
    points : array-like, shape (m, n)
        One distribution per row, each summing to 1 within ``sum_tol``.
        Entries may be negative (quasi-probabilities are allowed).
    sum_tol : float
        Absolute tolerance on the row sums.
    rank_tol : float
        Relative singular-value cutoff used to compute ``span_dim``.

    Attributes
    ----------
    span_dim : int
        Rank of the rows as vectors; this is the dimension ``l`` the
        inference routines reconstruct.  Must be at least 2.
    """

    def __init__(self, points, sum_tol: float = DEFAULT_TOL, rank_tol: float = DEFAULT_TOL):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise InvalidInputError("cloud must be an (m, n) array with m >= 1, n >= 2")
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("cloud entries must be finite")
        sums = points.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if worst > sum_tol:
            raise InvalidInputError(
                f"every distribution must sum to 1 within {sum_tol}, worst residual {worst}")
        sv = np.linalg.svd(points, compute_uv=False)
        span = int(np.count_nonzero(sv > rank_tol * sv[0]))
        if span < 2:
            raise DegenerateInputError(
                "cloud must span at least a 2-dimensional subspace")
        points = points.copy()
        points.setflags(write=False)
        self.points = points
        self.span_dim = span

    @property
    def n(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid ``{center + chart @ sqrt(shape) @ x : |x| <= 1}``.

    ``chart`` has orthonormal columns spanning the tangent space of the
    cloud's affine hull; ``shape`` is symmetric positive definite in
    those coordinates, so its eigenvalues are squared semi-axes.
    ``support_weights`` is the dual certificate from the solver.
    """

    center: np.ndarray
    shape: np.ndarray
    chart: np.ndarray
    support_weights: np.ndarray = field(repr=False)
    optimality_gap: float
    iterations: int

    def __post_init__(self):
        shape = np.asarray(self.shape, dtype=float)
        if np.abs(shape - shape.T).max() > 1e-9 * max(1.0, np.abs(shape).max()):
            raise InvalidInputError("ellipsoid shape must be symmetric")


def _sign_fix_columns(w: np.ndarray) -> np.ndarray:
    # Deterministic gauge: flip each column so its largest entry is positive.
    w = w.copy()
    for k in range(w.shape[1]):
        col = w[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0:
            w[:, k] = -col
    return w


def _affine_chart(points: np.ndarray, dim: int, rank_tol: float = DEFAULT_TOL):
    """Orthonormal chart (n, dim) of the affine hull and the base point."""
    base = points.mean(axis=0)
    centered = points - base
    u, sv, _ = np.linalg.svd(centered.T, full_matrices=False)
    rank = int(np.count_nonzero(sv > rank_tol * max(sv[0], 1e-300)))
    if rank != dim:
        raise DegenerateInputError(
            f"cloud affine hull has dimension {rank}, expected {dim}")
    n = points.shape[1]
    if dim == n - 1:
        # the hull fills the hyperplane; use the canonical basis so the
        # ball itself maps to the identity measurement
        return hyperplane_basis(n), base
    return _sign_fix_columns(u[:, :dim]), base


def _khachiyan_weights(x: np.ndarray, eps: float, max_iter: int):
    """Barycentric ascent with away/drop steps on lifted points.

    Maximizes log det of the weighted scatter of ``(x_i, 1)``.  Returns
    ``(weights, gap, iterations, converged)`` where ``gap`` is the
    relative duality gap max(max_j w_j / D - 1, 1 - min_support w_j / D)
    on the leverage values w_j.
    """
    m, d = x.shape
    dim = d + 1
    lifted = np.hstack([x, np.ones((m, 1))])
    u = np.full(m, 1.0 / m)
    gap = np.inf
    for iteration in range(max_iter + 1):
        scatter = lifted.T @ (u[:, None] * lifted)
        try:
            sol = np.linalg.solve(scatter, lifted.T)
        except np.linalg.LinAlgError as exc:
            raise DegenerateInputError(
                "support collapsed during the ellipsoid iteration") from exc
        leverage = np.einsum("ij,ji->i", lifted, sol)
        j_up = int(np.argmax(leverage))
        up = float(leverage[j_up])
        masked = np.where(u > 0.0, leverage, np.inf)
        j_down = int(np.argmin(masked))
        down = float(leverage[j_down])
        gap = max(up / dim - 1.0, 1.0 - down / dim)
        if gap <= eps:
            return u, gap, iteration, True
        if iteration == max_iter:
            break
        if up / dim - 1.0 >= 1.0 - down / dim:
            j, lever = j_up, up
            step = (lever - dim) / (dim * (lever - 1.0))
        else:
            j, lever = j_down, down
            bound = -u[j] / (1.0 - u[j])
            denom = dim * (lever - 1.0)
            step = bound if denom <= 0.0 else max((lever - dim) / denom, bound)
        u = (1.0 - step) * u
        u[j] += step
        np.clip(u, 0.0, None, out=u)
        u /= u.sum()
    return u, gap, max_iter, False


def mvee(cloud: ProbabilityCloud, eps: float = 1e-9, max_iter: int = 10 ** 6) -> Ellipsoid:
    """Minimum-volume enclosing ellipsoid of the cloud, center free.

    The problem is solved in an orthonormal chart of the cloud's affine
    hull, whose dimension is ``span_dim - 1``.  On convergence every
    point is inside within a ``(1 + eps)`` inflation and shrinking any
    semi-axis by more than about ``10 * eps`` ejects at least one point.

    Raises
    ------
    NoConvergenceError
        When ``max_iter`` updates do not reach the gap; the exception
        carries the best ellipsoid found and the achieved gap.
    """
    if eps <= 0.0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be at least 1, got {max_iter}")
    d = cloud.span_dim - 1
    chart, base = _affine_chart(cloud.points, d)
    x = (cloud.points - base) @ chart
    weights, gap, iterations, converged = _khachiyan_weights(x, eps, int(max_iter))
    center_x = weights @ x
    scatter = x.T @ (weights[:, None] * x) - np.outer(center_x, center_x)
    shape = d * (scatter + scatter.T) / 2.0
    ellipsoid = Ellipsoid(
        center=base + chart @ center_x,
        shape=shape,
        chart=chart,
        support_weights=weights,
        optimality_gap=float(gap),
        iterations=int(iterations),
    )
    if not converged:
        raise NoConvergenceError(
            f"gap {gap} after {iterations} iterations (target {eps})",
            partial=ellipsoid, achieved_gap=float(gap), iterations=int(iterations))
    return ellipsoid


def ellipsoid_to_measurement(ellipsoid: Ellipsoid, cloud: ProbabilityCloud,
                             containment_tol: float = 1e-6) -> QuasiMeasurement:
    """Canonical quasi-measurement whose range is the given ellipsoid.

    Maps the ball center ``u/l`` to the ellipsoid center and the tangent
    space of the ball onto the ellipsoid through the symmetric positive
    square root of the shape, divided by the ball radius.  The result is
    informationally complete and satisfies the normalization identity by
    construction; it is the gauge-fixed representative of its orbit.
    """
    l = cloud.span_dim
    chart = ellipsoid.chart
    if chart.shape != (cloud.n, l - 1):
        raise InvalidInputError("ellipsoid chart does not match the cloud")
    # light containment check, tolerant of the solver's eps-level slack
    offsets = (cloud.points - ellipsoid.center) @ chart
    try:
        quad = np.einsum("ij,ji->i", offsets, np.linalg.solve(ellipsoid.shape, offsets.T))
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError("ellipsoid shape is singular") from exc
    if quad.max() > 1.0 + containment_tol:
        raise InvalidInputError(
            f"ellipsoid does not enclose the cloud, worst quadratic {quad.max()}")
    eigvals, eigvecs = np.linalg.eigh(ellipsoid.shape)
    if eigvals[0] <= 0.0:
        raise InvalidInputError("ellipsoid shape must be positive definite")
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    tangent = hyperplane_basis(l)
    matrix = np.outer(ellipsoid.center, np.ones(l)) + (chart @ root @ tangent.T) / ball_radius(l)
    return validate(matrix)


@dataclass(frozen=True)
class DdiResult:
    """Outcome of the inference map on one cloud."""

    measurement: QuasiMeasurement
    volume_sq: float
    counter_image: WeightedStateSet
    design_certificate: DesignCertificate
    gauge_note: str
    optimality_gap: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "measurement": measurement_to_dict(self.measurement),
            "volume_sq": float(self.volume_sq),
            "counter_image": state_set_to_dict(self.counter_image),
            "design_certificate": self.design_certificate.to_dict(),
            "gauge_note": self.gauge_note,
            "optimality_gap": float(self.optimality_gap),
            "iterations": int(self.iterations),
        }


def assemble_result(ellipsoid: Ellipsoid, cloud: ProbabilityCloud,
                    design_tol: float = 1e-7) -> DdiResult:
    """Turn an enclosing ellipsoid into a full inference result.

    The counter-image carries the solver's dual weights
    ``ellipsoid.support_weights`` (zero off the support).  The ellipsoid
    shape is built from those weights, so their frame operator is
    ``eye(l) / l`` up to rounding, converged or not, and the returned
    counter-image re-certifies under :func:`is_two_design` whenever every
    point is on the sphere.  ``is_design`` holds when the frame deviation
    and the sphere deviation over all points are both within
    ``design_tol``, that is, when the optimum is tight.

    Used by :func:`ddi_on_ball` on converged ellipsoids and by callers
    that want to salvage the partial ellipsoid of a
    :class:`NoConvergenceError`.
    """
    # a partial ellipsoid encloses the cloud only up to its duality gap
    # (worst quadratic is below 1 + 2 * gap), so widen the slack with it
    slack = max(1e-6, 4.0 * ellipsoid.optimality_gap)
    meas = ellipsoid_to_measurement(ellipsoid, cloud, containment_tol=slack)
    volume = range_volume_sq(meas)
    counter_points = cloud.points @ meas.pinv().T
    counter = WeightedStateSet(points=counter_points, weights=ellipsoid.support_weights)
    l = cloud.span_dim
    frame_deviation = float(np.linalg.norm(frame_operator(counter) - np.eye(l) / l, 2))
    sphere_deviation = float(np.abs(np.linalg.norm(counter_points, axis=1) - 1.0).max())
    certificate = DesignCertificate(
        is_design=max(sphere_deviation, frame_deviation) <= design_tol,
        frame_deviation=frame_deviation,
        tol_used=float(design_tol),
        sphere_deviation=sphere_deviation,
    )
    return DdiResult(
        measurement=meas,
        volume_sq=volume,
        counter_image=counter,
        design_certificate=certificate,
        gauge_note=GAUGE_NOTE,
        optimality_gap=ellipsoid.optimality_gap,
        iterations=ellipsoid.iterations,
    )


def ddi_on_ball(cloud: ProbabilityCloud, eps: float = 1e-9, max_iter: int = 10 ** 6,
                design_tol: float = 1e-7) -> DdiResult:
    """Infer the minimum-volume consistent quasi-measurement.

    Runs the enclosing-ellipsoid solver over the ball of states and
    gauge-fixes the optimum.  ``volume_sq`` equals
    ``range_volume_sq(measurement)`` and the counter-image of the cloud
    is returned with a design certificate witnessing optimality.
    Convergence failures propagate as :class:`NoConvergenceError` with
    the partial ellipsoid attached.
    """
    return assemble_result(mvee(cloud, eps, max_iter), cloud, design_tol)


def ddi_closed_form(cloud: ProbabilityCloud, design_tol: float = DESIGN_TOL) -> DdiResult:
    """Closed-form inference for clouds of exactly ``l`` independent points.

    The optimal measurement simply has the observed distributions as its
    columns, the counter-image is the standard-basis simplex, and no
    iteration is involved.
    """
    m = len(cloud)
    if m != cloud.span_dim:
        raise NotClosedFormCaseError(
            f"closed form needs exactly span_dim={cloud.span_dim} independent "
            f"distributions, got {m}")
    meas = validate(cloud.points.T.copy())
    counter = regular_simplex(cloud.span_dim)
    return DdiResult(
        measurement=meas,
        volume_sq=range_volume_sq(meas),
        counter_image=counter,
        design_certificate=is_two_design(counter, design_tol),
        gauge_note=GAUGE_NOTE + "; columns follow the input distribution order",
        optimality_gap=0.0,
        iterations=0,
    )


def feasibility_check(meas: QuasiMeasurement, cloud: ProbabilityCloud,
                      tol: float = DEFAULT_TOL) -> bool:
    """Is every cloud point inside the range of the measurement?

    Requires informational completeness.  Checks that each distribution
    is reproduced by ``M M^+`` within ``tol`` and that its counter-image
    lies in the state ball within ``tol``.
    """
    if not is_informationally_complete(meas, max(tol, DEFAULT_TOL)):
        raise InvalidInputError("feasibility check requires an informationally complete measurement")
    pinv = meas.pinv()
    counter = cloud.points @ pinv.T
    recon = counter @ meas.matrix.T
    if float(np.abs(recon - cloud.points).max()) > tol:
        return False
    return all(ball_membership(s, tol) for s in counter)


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


def design_volume_bound_check(meas: QuasiMeasurement, states: WeightedStateSet,
                              tol: float = DEFAULT_TOL,
                              design_tol: float = DESIGN_TOL) -> VolumeBoundReport:
    """Check ``det(M^T M) >= 1`` for a square measurement enclosing a design.

    Preconditions (violations raise :class:`PreconditionViolatedError`):
    ``meas`` is square and invertible, ``states`` certifies as a
    2-design at ``design_tol``, and every design point lies in the image
    of the ball, i.e. each counter-image ``M^-1 s`` is in the ball
    within ``tol``.
    """
    matrix = meas.matrix
    if meas.n != meas.l or meas.l != states.l:
        raise InvalidInputError(
            f"bound check needs a square {states.l} x {states.l} measurement")
    certificate = is_two_design(states, design_tol)
    if not certificate.is_design:
        raise PreconditionViolatedError(
            f"state set is not a certified 2-design, deviation {certificate.frame_deviation}")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise PreconditionViolatedError("measurement must be invertible")
    inverse = np.linalg.inv(matrix)
    counter = states.points @ inverse.T
    for s in counter:
        if not ball_membership(s, tol):
            raise PreconditionViolatedError(
                "measurement range does not enclose the design")
    gram_det = float(np.prod(sv * sv))
    trace_gap = float(np.sum(1.0 / (sv * sv)) - meas.l)
    return VolumeBoundReport(
        satisfied=gram_det >= 1.0 - tol,
        gram_det=gram_det,
        trace_gap=trace_gap,
    )


def _tangent_coordinates(points: np.ndarray, l: int) -> np.ndarray:
    return (points - np.ones(l) / l) @ hyperplane_basis(l)


def _sample_enclosing(points: np.ndarray, chart: np.ndarray, draw_center,
                      margin: float | None, rng: np.random.Generator) -> QuasiMeasurement:
    """Draw loop shared by the enclosing samplers.

    Each try takes a center from ``draw_center()`` and a Gaussian tangent
    block, skips ill-conditioned blocks, and scales the block so the
    farthest counter-image of ``points`` lands at ``1 / (1 + margin)`` of
    the ball radius.  The measurement maps the ball center ``u/l`` to the
    center and the ball's tangent space into ``chart``.
    """
    if margin is None:
        margin = float(rng.uniform(0.05, 0.5))
    if margin < 0.0:
        raise InvalidInputError(f"margin must be nonnegative, got {margin}")
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


def sample_enclosing_square(points: np.ndarray, rng: np.random.Generator,
                            margin: float | None = None) -> QuasiMeasurement:
    """Random invertible ``l x l`` quasi-measurement enclosing given states.

    Draws a Gaussian tangent block and scales it so every state's
    counter-image lands inside the ball, strictly when ``margin > 0``.
    With ``margin = 0`` at least one counter-image touches the sphere.
    """
    points = np.asarray(points, dtype=float)
    l = points.shape[1]
    center = np.ones(l) / l
    return _sample_enclosing(points, hyperplane_basis(l), lambda: center, margin, rng)


def sample_enclosing_measurement(cloud: ProbabilityCloud, rng: np.random.Generator,
                                 margin: float | None = None) -> QuasiMeasurement:
    """Random ``n x l`` quasi-measurement whose range contains the cloud.

    The center is a random point of the cloud's affine hull near the
    centroid and the tangent block is a scaled Gaussian, so feasibility
    holds by construction.
    """
    d = cloud.span_dim - 1
    chart, base = _affine_chart(cloud.points, d)
    spread = (cloud.points - base) @ chart
    scale0 = max(float(np.linalg.norm(spread, axis=1).max()), 1e-12)
    return _sample_enclosing(
        cloud.points, chart,
        lambda: base + chart @ (0.3 * scale0 * rng.standard_normal(d)), margin, rng)


def composition_bijection_check(meas: QuasiMeasurement, cloud: ProbabilityCloud,
                                samples: int = 100, seed: int | np.random.Generator = 0,
                                tol: float = DEFAULT_TOL, det_rtol: float = 1e-8) -> bool:
    """Sample both directions of the consistency bijection.

    For an informationally complete ``M`` whose range contains the
    cloud, composition with ``M`` maps measurements consistent with the
    counter-image cloud ``M^+ P`` onto measurements consistent with
    ``P``, and ``M^+`` maps back.  This draws random members on each
    side, checks membership of the image on the other side, and checks
    the determinant factorization along the way.  Returns True when all
    samples pass.
    """
    if not is_informationally_complete(meas):
        raise InvalidInputError("bijection check requires an informationally complete measurement")
    if cloud.span_dim != meas.l:
        raise InvalidInputError(
            f"cloud spans {cloud.span_dim} dimensions but the measurement has l={meas.l}")
    pinv = meas.pinv()
    recon = cloud.points @ (meas.matrix @ pinv).T
    if float(np.abs(recon - cloud.points).max()) > tol:
        raise InvalidInputError("cloud must lie in the range of the measurement")
    counter_cloud = ProbabilityCloud(cloud.points @ pinv.T)
    rng = np.random.default_rng(seed)
    for _ in range(int(samples)):
        inner = sample_enclosing_square(counter_cloud.points, rng)
        forward = validate(meas.matrix @ inner.matrix)
        if not feasibility_check(forward, cloud, max(tol, 1e-8)):
            return False
        lhs = range_volume_sq(forward)
        rhs = range_volume_sq(meas) * range_volume_sq(inner)
        if abs(lhs - rhs) > det_rtol * abs(rhs):
            return False
        outer = sample_enclosing_measurement(cloud, rng)
        backward = validate(pinv @ outer.matrix)
        if not feasibility_check(backward, counter_cloud, max(tol, 1e-8)):
            return False
    return True


def _perturbed_simplex(l: int, rng: np.random.Generator, scale: float,
                       min_deviation: float, max_tries: int = 64):
    """Pure-state simplex perturbation that fails design certification.

    Moves each standard-basis point along the sphere and keeps drawing
    until the best weighting over the moved points still misses the
    frame condition by at least ``min_deviation``.
    """
    tangent = hyperplane_basis(l)
    radius = ball_radius(l)
    x = _tangent_coordinates(np.eye(l), l)
    for _ in range(max_tries):
        moved = x + scale * rng.standard_normal(x.shape)
        norms = np.linalg.norm(moved, axis=1)
        if norms.min() < 1e-9:
            continue
        moved *= radius / norms[:, None]
        points = np.ones(l) / l + moved @ tangent.T
        sv = np.linalg.svd(points, compute_uv=False)
        if sv[-1] <= 1e-6 * sv[0]:
            continue
        _, deviation = design_weights(points)
        if deviation >= min_deviation:
            return points, float(deviation)
    raise DegenerateInputError(
        "could not draw a perturbed simplex beyond the requested deviation")


@dataclass(frozen=True)
class RoundTripReport:
    """Empirical record of one generate-infer-compare cycle."""

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
                         max_iter: int = 10 ** 6, design_tol: float = 1e-7,
                         perturbations: int = 0, perturbation_scale: float = 0.1,
                         min_design_deviation: float = 1e-3,
                         seed: int | np.random.Generator = 0) -> RoundTripReport:
    """Generate data from a known measurement, infer it back, and compare.

    The cloud is the image of the standard-basis simplex, so the true
    minimum of the squared range volume is ``det(M^T M)`` of the input.
    The report records the recovered volume, the counter-image design
    certificate, the closed-form agreement, and an explicit feasibility
    check of the recovered measurement against the cloud.

    With ``perturbations > 0`` the simplex is additionally kicked along
    the sphere into sets that fail design certification by at least
    ``min_design_deviation``; for each the report stores the relative
    excess of the input measurement's volume over the new minimum.  A
    positive excess means consistency through a non-design counter-image
    costs volume.
    """
    if not is_informationally_complete(meas):
        raise InvalidInputError("round trip requires an informationally complete measurement")
    expected = range_volume_sq(meas)
    cloud = ProbabilityCloud(meas.matrix.T)
    result = ddi_on_ball(cloud, eps, max_iter, design_tol)
    relative_gap = abs(result.volume_sq - expected) / expected
    closed = ddi_closed_form(cloud, design_tol)
    closed_form_gap = abs(closed.volume_sq - expected) / expected
    feasible = feasibility_check(result.measurement, cloud, 1e-6)
    rng = np.random.default_rng(seed)
    excesses = []
    deviations = []
    for _ in range(int(perturbations)):
        points, deviation = _perturbed_simplex(
            meas.l, rng, perturbation_scale, min_design_deviation)
        perturbed_cloud = ProbabilityCloud(points @ meas.matrix.T)
        minimum = ddi_on_ball(perturbed_cloud, eps, max_iter, design_tol).volume_sq
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


def cloud_to_dict(cloud: ProbabilityCloud) -> dict:
    """Serialize as ``{"n", "distributions"}``."""
    return {
        "n": cloud.n,
        "distributions": [[float(x) for x in row] for row in cloud.points],
    }


def cloud_from_dict(obj: dict, sum_tol: float = DEFAULT_TOL) -> ProbabilityCloud:
    """Parse the ``{"n", "distributions"}`` layout."""
    try:
        n = int(obj["n"])
        points = np.asarray(obj["distributions"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed cloud object: {exc}") from exc
    if points.ndim != 2 or points.shape[1] != n:
        raise InvalidInputError(f"distributions must be rows of length {n}")
    return ProbabilityCloud(points, sum_tol=sum_tol)
