"""Minimum-volume inference of quasi-measurements from probability data.

Given a cloud of (quasi-)probability distributions, the inference map
returns the least committal quasi-measurement consistent with it: the
one whose range, the image of the state ball, has minimum volume among
all informationally complete quasi-measurements whose range contains the
cloud.  Because every such range is an ellipsoid on the distribution
hyperplane and the squared range volume is monotone in the ellipsoid
volume, the problem reduces to a minimum-volume enclosing ellipsoid
computed inside an orthonormal chart of the cloud's affine hull, from
which a centered direction thinner than ``DEFAULT_TOL`` times the raw
scale of the points is dropped.

The solver is a barycentric coordinate ascent on the points lifted to
homogeneous coordinates (the classic Khachiyan iteration, which handles
the free center), sharpened with away and drop steps so the default
duality gap of 1e-9 is reachable at desk scale.  Its weights are
affine-invariant, so it runs on chart coordinates whitened by a thin QR,
where the uniform lifted scatter is the identity: a badly scaled cloud
converges like a well scaled one, and uniform weights that are already
optimal (a simplex) are recognized without a solve.  It starts from
uniform weights or from the extreme points of each whitened axis
(Kumar and Yildirim's core set), whichever has the larger log det, and
carries the inverse scatter and all leverages through each step by a
Sherman-Morrison update, O(m d) per step (Todd and Yildirim).  Both are
recomputed from scratch periodically and before the solver stops, so
the reported gap is never a value the iteration carried along.  The
ascent converges only linearly, so once the gap is at most 1e-2 and the
support is small enough for its lifted rank-one terms to be independent
(at most D(D + 1)/2 points in D lifted dimensions), every step starts
from a fresh inverse and weight moves within the support by damped
Newton steps of log det on the support's face (Sun and Freund's active
set); a point still joins the support by a toward step.  The dual
weights double as an optimality certificate.

The optimum is unique only up to right-composition with an orthogonal
map fixing the all-ones direction.  The returned representative is
gauge-fixed: its tangent block is the symmetric positive square root of
the ellipsoid shape in deterministic charts.  The ellipsoid carries that
root, from an SVD of its weighted support, and derives the shape from it.
The measurement's volume and the cloud's counter-image come from that
root through an ``l x l`` block triangular factor ``K`` of the
measurement, with no decomposition of the measurement itself;
:func:`~ddi.measurements.validate`,
:func:`~ddi.measurements.range_volume_sq` and
:func:`~ddi.geometry.pseudoinverse` are the independent oracles the
tests compare them with.

Optimality has a sharp witness: the counter-image of the cloud under the
optimal measurement, weighted by the solver's dual weights, satisfies
the frame condition sum_j u_j s_j s_j^T = I/l, and its support lies on
the pure-state sphere, so it is a weighted 2-design.  Every result
therefore carries the counter-image with those weights and its design
certificate from :func:`ddi.designs.certify_design`.  The closed form
for clouds of exactly ``l`` points and the checks of the theory behind
the map (volume bound, consistency bijection, round trip) live in
:mod:`ddi.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateRangeError,
    InvalidInputError,
    NoConvergenceError,
    NotAQuasiMeasurementError,
)
from .geometry import DEFAULT_TOL, ball_radius, hyperplane_basis
from .designs import (
    DesignCertificate,
    WeightedStateSet,
    certify_design,
    state_set_to_dict,
)
from .measurements import QuasiMeasurement, measurement_to_dict

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
        Absolute tolerance on the row sums; a NaN tolerance accepts no row.

    Attributes
    ----------
    span_dim : int
        Rank of the rows as vectors; this is the dimension ``l`` the
        inference routines reconstruct.  Must be at least 2.
    chart, base : ndarray
        Orthonormal ``(n, span_dim - 1)`` chart of the affine hull and its
        origin, the centroid; computed once here for every solve and draw.
        A centered direction thinner than ``DEFAULT_TOL`` times the raw
        scale ``sqrt(s_1^2 + m |base|^2)`` is dropped from the chart.
    """

    def __init__(self, points, sum_tol: float = DEFAULT_TOL):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise InvalidInputError("cloud must be an (m, n) array with m >= 1, n >= 2")
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("cloud entries must be finite")
        sums = points.sum(axis=1)
        worst = float(np.abs(sums - 1.0).max())
        if not worst <= sum_tol:
            raise InvalidInputError(
                f"every distribution must sum to 1 within {sum_tol}, worst residual {worst}")
        self.points = points.copy()
        self.chart, self.base = _affine_chart(self.points)
        self.span_dim = self.chart.shape[1] + 1
        if self.span_dim < 2:
            raise DegenerateInputError(
                "cloud must span at least a 2-dimensional subspace")
        for array in (self.points, self.chart, self.base):
            array.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.points.shape[1])

    def __len__(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid ``{center + chart @ root @ x : |x| <= 1}``.

    ``chart`` has orthonormal columns spanning the tangent space of the
    cloud's affine hull; ``root`` is symmetric positive definite in those
    coordinates, so its eigenvalues are the semi-axes.  The ellipsoid
    carries ``root``, and ``shape = root @ root`` is derived from it.
    ``support_weights`` is the dual certificate from the solver.
    """

    center: np.ndarray
    root: np.ndarray
    chart: np.ndarray
    support_weights: np.ndarray = field(repr=False)
    optimality_gap: float
    iterations: int

    def __post_init__(self):
        root = np.asarray(self.root, dtype=float)
        if np.abs(root - root.T).max() > 1e-9 * max(1.0, np.abs(root).max()):
            raise InvalidInputError("ellipsoid root must be symmetric")
        try:
            np.linalg.cholesky(root)
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("ellipsoid root must be positive definite") from exc
        # the measurement's volume and counter-image are read off root
        # through this chart, which holds only for orthonormal columns
        chart = np.asarray(self.chart, dtype=float)
        if np.abs(chart.T @ chart - np.eye(chart.shape[1])).max() > DEFAULT_TOL:
            raise InvalidInputError("ellipsoid chart must have orthonormal columns")

    @property
    def shape(self) -> np.ndarray:
        return self.root @ self.root


def _sign_fix_columns(w: np.ndarray) -> np.ndarray:
    # Deterministic gauge: flip each column so its largest entry is positive.
    pivots = w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])]
    return np.where(pivots < 0, -w, w)


def _affine_chart(points: np.ndarray):
    """Orthonormal chart (n, rank) of the affine hull and the base point."""
    base = points.mean(axis=0)
    u, sv, _ = np.linalg.svd((points - base).T, full_matrices=False)
    scale = np.sqrt(sv[0] ** 2 + len(points) * (base @ base))
    n = points.shape[1]
    # centered rows sum to 0 within the row-sum tolerance: at most n - 1 axes
    rank = min(int(np.count_nonzero(sv > DEFAULT_TOL * scale)), n - 1)
    if rank == n - 1:
        # the hull fills the hyperplane; use the canonical basis so the
        # ball itself maps to the identity measurement
        return hyperplane_basis(n), base
    return _sign_fix_columns(u[:, :rank]), base


# Leverages carried by rank-one updates drift by rounding; rebuild them
# from a fresh inverse this often, and whenever an update would divide by
# less than _MIN_DENOMINATOR (a drop step of an almost essential point).
_REFRESH_STEPS = 64
_MIN_DENOMINATOR = 1e-2
# Below this gap, a support small enough for independent rank-one lifts
# is finished by Newton steps on its face.
_FACE_GAP = 1e-2
# Slack of the containment check on a converged ellipsoid's worst quadratic.
_CONTAINMENT_TOL = 1e-6


def _face_newton(lifted: np.ndarray, inverse: np.ndarray, u: np.ndarray, support: np.ndarray):
    """Damped Newton step of log det on the face ``{u_S >= 0, sum u_S = 1}``.

    With ``G = A_S inverse A_S^T`` the gradient on the face is ``diag(G)``
    and the Hessian is ``-(G o G)``, positive definite only when the lifts
    ``a a^T`` of the support are independent.  One multiplier keeps the
    sum, the step is cut where a weight reaches 0 (that point drops out),
    and it is returned only when the face's log det rises: the new
    weights, or None.
    """
    a = lifted[support]
    g = a @ inverse @ a.T
    try:
        factor_inv = np.linalg.inv(np.linalg.cholesky(g * g))
    except np.linalg.LinAlgError:
        return None
    # whitened by the Cholesky factor, the multiplier is one projection
    grad, ones = factor_inv @ np.diagonal(g), factor_inv.sum(axis=1)
    direction = factor_inv.T @ (grad - (grad @ ones) / (ones @ ones) * ones)
    weights = u[support]
    step, drop = 1.0, None
    shrinking = np.flatnonzero(direction < 0.0)
    if shrinking.size:
        cuts = -weights[shrinking] / direction[shrinking]
        first = int(cuts.argmin())
        if cuts[first] < 1.0:
            step, drop = float(cuts[first]), shrinking[first]
    weights = np.maximum(weights + step * direction, 0.0)
    if drop is not None:
        weights[drop] = 0.0
    # log det M(new) - log det M(u) is log det(inverse @ M(new)); a rise lost to
    # rounding reads <= 0 and is refused, leaving the move to the ordinary step
    sign, rise = np.linalg.slogdet(inverse @ (a.T @ (weights[:, None] * a)))
    if sign <= 0.0 or rise <= 0.0:
        return None
    new = np.zeros_like(u)
    new[support] = weights
    return new


def _khachiyan_weights(x: np.ndarray, eps: float, max_iter: int):
    """Barycentric ascent with away/drop steps on lifted points.

    Maximizes log det of the weighted scatter of ``(x_i, 1)``.  Returns
    ``(weights, gap, iterations, converged)`` where ``gap`` is the
    relative duality gap max(max_j w_j / D - 1, 1 - min_support w_j / D)
    on the leverage values w_j, computed from a fresh inverse, never one
    carried through the updates.

    The weights are affine-invariant, so the iteration runs on whitened
    points, whose uniform lifted scatter is the identity; a thin QR keeps
    that map as well conditioned as the points allow.  Uniform weights
    are returned at once when they are optimal.  Otherwise the iteration
    starts from them or from the extreme points of each whitened axis,
    whichever has the larger log det, and carries the inverse scatter and
    the leverages through each step by a rank-one update.

    The ascent converges only linearly.  Once the gap is at most
    ``_FACE_GAP`` and the support has at most ``D (D + 1) / 2`` points,
    the most whose lifts ``a a^T`` can be independent, every step starts
    from a fresh inverse.  Unless the step due is a toward step to a
    point off the support, the damped Newton step on the support's face
    (:func:`_face_newton`) is tried first and taken when it raises the
    log det; otherwise the toward, away or drop step is taken as before.
    Newton steps count as iterations and against ``max_iter``.
    """
    m, d = x.shape
    dim = d + 1
    u = np.full(m, 1.0 / m)
    if m == dim:
        # d + 1 points spanning d dimensions, a simplex: the lifted points
        # form an invertible square matrix, so every uniform leverage is
        # exactly dim
        return u, 0.0, 0, True
    # constant column first, so the other columns of q are the centered,
    # whitened axes
    q = np.linalg.qr(np.hstack([np.ones((m, 1)), x]))[0]
    lifted = np.sqrt(m) * q
    # uniform weights: the inverse scatter is the identity, no solve needed
    leverage = np.einsum("ij,ij->i", lifted, lifted)
    gap = max(leverage.max() / dim - 1.0, 1.0 - leverage.min() / dim)
    if gap <= eps:
        return u, gap, 0, True
    core = np.zeros(m)
    core[q[:, 1:].argmax(axis=0)] = 1.0
    core[q[:, 1:].argmin(axis=0)] = 1.0
    core /= core.sum()
    sign, logdet = np.linalg.slogdet(lifted.T @ (core[:, None] * lifted))
    if sign > 0 and logdet > 0.0:  # uniform weights have log det 0 here
        u = core
    off_support = np.where(u > 0.0, 0.0, np.inf)
    size = int(np.count_nonzero(u))
    face_size = dim * (dim + 1) // 2
    iteration = 0
    stale = _REFRESH_STEPS
    while True:
        if stale >= _REFRESH_STEPS:
            u /= u.sum()
            try:
                inverse = np.linalg.inv(lifted.T @ (u[:, None] * lifted))
            except np.linalg.LinAlgError as exc:
                raise DegenerateInputError(
                    "support collapsed during the ellipsoid iteration") from exc
            leverage = np.einsum("ij,ij->i", lifted @ inverse, lifted)
            stale = 0
        j_up = int(leverage.argmax())
        up = float(leverage[j_up])
        j_down = int((leverage + off_support).argmin())
        down = float(leverage[j_down])
        gap = max(up / dim - 1.0, 1.0 - down / dim)
        face = gap <= _FACE_GAP and size <= face_size
        toward = up / dim - 1.0 >= 1.0 - down / dim
        if gap <= eps or iteration == max_iter or face:
            if stale:
                stale = _REFRESH_STEPS
                continue
            if gap <= eps or iteration == max_iter:
                return u, gap, iteration, gap <= eps
            # a point joins the support only by a toward step; weight moves
            # within the support by Newton steps
            if not (toward and off_support[j_up]):
                newton = _face_newton(lifted, inverse, u, np.flatnonzero(u))
                if newton is not None:
                    u = newton
                    off_support = np.where(u > 0.0, 0.0, np.inf)
                    size = int(np.count_nonzero(u))
                    iteration += 1
                    stale = _REFRESH_STEPS
                    continue
        if toward:
            j, lever = j_up, up
            step = (lever - dim) / (dim * (lever - 1.0))
        else:
            j, lever = j_down, down
            bound = -u[j] / (1.0 - u[j])
            denom = dim * (lever - 1.0)
            step = bound if denom <= 0.0 else max((lever - dim) / denom, bound)
        # only u[j] can change sign; the sum stays 1 up to rounding, which
        # each refresh removes
        was_in = u[j] > 0.0
        u *= 1.0 - step
        u[j] = max(u[j] + step, 0.0)
        off_support[j] = 0.0 if u[j] > 0.0 else np.inf
        size += int(u[j] > 0.0) - int(was_in)
        iteration += 1
        stale += 1
        # Sherman-Morrison for (1 - step) M + step a_j a_j^T
        ratio = step / (1.0 - step)
        denominator = 1.0 + ratio * lever
        if not face and stale < _REFRESH_STEPS and denominator >= _MIN_DENOMINATOR:
            column = inverse @ lifted[j]
            cross = lifted @ column
            coef = ratio / denominator
            inverse -= (coef * column)[:, None] * column
            inverse /= 1.0 - step
            cross *= cross
            cross *= coef
            leverage -= cross
            leverage /= 1.0 - step
        else:
            stale = _REFRESH_STEPS


def mvee(cloud: ProbabilityCloud, eps: float = 1e-9, max_iter: int = 10 ** 6) -> Ellipsoid:
    """Minimum-volume enclosing ellipsoid of the cloud, center free.

    The problem is solved in an orthonormal chart of the cloud's affine
    hull, whose dimension is ``span_dim - 1``.  The solver works on
    whitened chart coordinates, starts from uniform weights or a core set
    of extreme points, whichever has the larger log det, and updates its
    leverages by rank one.  Once the gap is at most 1e-2 on a support of
    at most ``D (D + 1) / 2`` points, ``D = span_dim``, it finishes with
    Newton steps on the support's face, each from a fresh inverse and
    each counted in ``iterations`` and against ``max_iter``.  ``root``
    and ``center`` are built from the returned weights in the original
    chart.  ``optimality_gap`` is computed from a fresh inverse at those
    weights, converged or not.  On convergence every point is inside
    within a ``(1 + eps)`` inflation and shrinking any semi-axis by more
    than about ``10 * eps`` ejects at least one point.

    Raises
    ------
    NoConvergenceError
        When ``max_iter`` steps do not reach the gap; the exception
        carries the best ellipsoid found and the achieved gap.
    """
    if not 0.0 < eps < math.inf:
        raise InvalidInputError(f"eps must be positive and finite, got {eps}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be at least 1, got {max_iter}")
    d = cloud.span_dim - 1
    chart, base = cloud.chart, cloud.base
    x = (cloud.points - base) @ chart
    weights, gap, iterations, converged = _khachiyan_weights(x, eps, int(max_iter))
    center_x = weights @ x
    # root = V S V^T from the thin SVD A = U S V^T; shape = A^T A is never formed
    support = weights > 0.0
    factor = np.sqrt(d * weights[support])[:, None] * (x[support] - center_x)
    _, sv, vt = np.linalg.svd(factor, full_matrices=False)
    ellipsoid = Ellipsoid(
        center=base + chart @ center_x,
        root=(vt.T * sv) @ vt,
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

    The measurement is the canonical quasi-measurement whose range is the
    ellipsoid: it maps the ball center ``u/l`` to the ellipsoid center and
    the tangent space of the ball onto the ellipsoid through its symmetric
    positive ``root``, divided by the ball radius.  It is informationally
    complete, satisfies the normalization identity by construction and is
    the gauge-fixed representative of its orbit.

    With ``c`` the center, ``C`` the chart, ``T = hyperplane_basis(l)``,
    ``r`` the ball radius, ``c_par = C^T c`` and ``c_perp = c - C c_par``,
    the measurement is ``M = c u^T + C root T^T / r``.  For the orthogonal
    ``Q = [u / sqrt(l), T]``, ``M Q = [c_perp / |c_perp|, C] K`` with

        K = [[sqrt(l) |c_perp|, 0], [sqrt(l) c_par, root / r]],

    an ``l x l`` block lower triangular matrix behind a factor with
    orthonormal columns.  So ``M`` shares its singular values with ``K``,
    which give the rank test and ``volume_sq``, and ``M^+ p = Q K^-1
    [c_perp / |c_perp|, C]^T p`` is read off the whitened offsets
    ``w = root^-1 C^T (p - c)`` that the containment check solves for:
    with ``t = c_perp . (p - c) / |c_perp|^2``,

        M^+ p = (1 + t) u / l + r T (w - t root^-1 c_par),

    which never forms the large entries of ``M^+`` of an almost flat
    cloud.  No decomposition of ``M`` is taken; :func:`validate`,
    :func:`range_volume_sq` and :func:`pseudoinverse` are the independent
    oracles the tests compare these with.

    The counter-image carries the solver's dual weights
    ``ellipsoid.support_weights`` (zero off the support).  The ellipsoid
    root is built from those weights, so their frame operator is
    ``eye(l) / l`` up to rounding, converged or not.  The certificate is
    :func:`certify_design` of that counter-image, so ``is_design`` holds
    when every point is also on the sphere, that is, when the optimum is
    tight.

    Used by :func:`ddi_on_ball` on converged ellipsoids and by callers
    that want to salvage the partial ellipsoid of a
    :class:`NoConvergenceError`.

    Raises :class:`InvalidInputError` when the ellipsoid does not enclose
    the cloud (a quadratic above ``1 + 1e-6``, or ``1 + 4 * gap`` when the
    ellipsoid's duality gap is larger), :class:`DegenerateRangeError` when
    the measurement is rank deficient relative to ``DEFAULT_TOL`` and
    :class:`NotAQuasiMeasurementError` when a column sum misses 1.
    """
    # a partial ellipsoid encloses the cloud only up to its duality gap
    # (worst quadratic is below 1 + 2 * gap), so widen the slack with it
    slack = max(_CONTAINMENT_TOL, 4.0 * ellipsoid.optimality_gap)
    l = cloud.span_dim
    chart, center, root = ellipsoid.chart, ellipsoid.center, ellipsoid.root
    if chart.shape != (cloud.n, l - 1):
        raise InvalidInputError("ellipsoid chart does not match the cloud")
    offsets = cloud.points - center
    along = chart.T @ center
    normal = center - chart @ along
    # one solve for the whitened offsets and root^-1 c_par
    solved = np.linalg.solve(root, np.column_stack([(offsets @ chart).T, along]))
    white, lift = solved[:, :-1], solved[:, -1]
    # light containment check, tolerant of the solver's eps-level slack
    quad = np.einsum("ij,ij->j", white, white)
    if quad.max() > 1.0 + slack:
        raise InvalidInputError(
            f"ellipsoid does not enclose the cloud, worst quadratic {quad.max()}")
    radius = ball_radius(l)
    normal_sq = float(normal @ normal)
    k = np.zeros((l, l))
    k[0, 0] = np.sqrt(l * normal_sq)
    k[1:, 0] = np.sqrt(l) * along
    k[1:, 1:] = root / radius
    sv = np.linalg.svd(k, compute_uv=False)
    if sv[-1] <= DEFAULT_TOL * sv[0]:
        raise DegenerateRangeError("measurement range is rank deficient")
    basis = hyperplane_basis(l)
    matrix = np.outer(center, np.ones(l)) + chart @ root @ basis.T / radius
    # full rank, so the normalization identity says every column sums to 1
    residual = float(np.linalg.norm(matrix.sum(axis=0) - 1.0))
    if residual > DEFAULT_TOL:
        raise NotAQuasiMeasurementError(
            f"normalization identity fails with residual {residual}", residual=residual)
    t = offsets @ normal / normal_sq
    counter = ((1.0 + t) / l)[:, None] + radius * (white.T - t[:, None] * lift) @ basis.T
    counter_image = WeightedStateSet(points=counter, weights=ellipsoid.support_weights)
    return DdiResult(
        measurement=QuasiMeasurement(matrix=matrix),
        volume_sq=float(np.prod(sv * sv)),
        counter_image=counter_image,
        design_certificate=certify_design(counter_image, design_tol),
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


def cloud_to_dict(cloud: ProbabilityCloud) -> dict:
    """Serialize as ``{"n", "distributions"}``."""
    return {
        "n": cloud.n,
        "distributions": cloud.points.tolist(),
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
