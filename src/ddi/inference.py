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
the free center), sharpened with away and drop steps, carried by
rank-one updates (Todd and Yildirim) and finished by damped Newton steps
on the support's face (Sun and Freund's active set);
:func:`_khachiyan_weights` tells the iteration in full.  Every reported
gap is computed from a fresh inverse.  The dual weights double as an
optimality certificate.

The optimum is unique only up to right-composition with an orthogonal
map fixing the all-ones direction.  The returned representative is
gauge-fixed: its tangent block is the symmetric positive square root of
the ellipsoid shape in deterministic charts.  The ellipsoid carries its
principal axes and semi-axes, the right singular vectors and singular
values of an SVD of its weighted support (for a simplex, the chart's
own), and derives that root, the shape and the root's inverse from
them, with no further factorization.
The measurement's volume and the cloud's counter-image come from the
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
therefore carries the counter-image with those weights; its design
certificate, from :func:`ddi.designs.certify_design`, is computed on
first read and covers every row.  :meth:`DdiResult.to_dict` writes only
the support, the rows with weight > 0 in cloud order: a dropped row
certifies nothing and is ``pinv(M) p`` of its cloud row ``p``, and a
written point ``s`` maps back onto its cloud row as ``M s``.
:func:`mvee` answers a simplex, a cloud of exactly ``l`` points, itself,
from its chart's SVD; :func:`ddi.verify.ddi_closed_form`
is the ungauged closed form that tests compare it with.  The checks of
the theory behind the map (volume bound, consistency bijection, round
trip) live in :mod:`ddi.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateRangeError,
    InvalidInputError,
    NoConvergenceError,
    NotAQuasiMeasurementError,
)
from .geometry import (DEFAULT_TOL, _array, _read_layout, _real, _shown, _size, ball_radius,
                       hyperplane_basis)
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
    points : ndarray
        The admitted rows, each moved onto the distribution hyperplane
        along the all-ones direction, ``p + (1 - sum p) / n``, so they
        sum to 1 up to rounding and every later check reads them at
        ``DEFAULT_TOL`` whatever ``sum_tol`` admitted.  A row whose sum
        is exactly 1 keeps its bits.
    span_dim : int
        Rank of the rows as vectors; this is the dimension ``l`` the
        inference routines reconstruct.  Must be at least 2.
    chart, base : ndarray
        Orthonormal ``(n, span_dim - 1)`` chart of the affine hull and its
        origin, the centroid; computed once here for every solve and draw.
        It is read off an SVD of the centered rows, which lie in the
        hyperplane, and drops a direction thinner than ``DEFAULT_TOL`` times
        the raw scale ``sqrt(s_1^2 + m |base|^2)``; the kept singular values
        and right vectors stay, private and read-only, for :func:`mvee` to
        read a simplex's ellipsoid off.
    """

    def __init__(self, points, sum_tol: float = DEFAULT_TOL):
        points = _array(points, "cloud")
        sum_tol = _real(sum_tol, "sum_tol")
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise InvalidInputError("cloud must be an (m, n) array with m >= 1, n >= 2")
        # einsum row sums do not warn when finite entries overflow
        residue = 1.0 - np.einsum("ij->i", points)
        worst = float(np.abs(residue).max())
        if not worst <= sum_tol:
            raise InvalidInputError(
                f"every distribution must sum to 1 within {sum_tol}, worst residual {worst}")
        self.points = points + (residue / points.shape[1])[:, None]
        self.chart, self.base, self._sv, self._right = _affine_chart(self.points)
        self.span_dim = self.chart.shape[1] + 1
        if self.span_dim < 2:
            raise DegenerateInputError(
                "cloud must span at least a 2-dimensional subspace")
        for array in (self.points, self.chart, self.base, self._sv, self._right):
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
    cloud's affine hull.  In those coordinates the ellipsoid is carried by
    its principal axes, the orthonormal columns of ``axes``, and its
    positive ``semi_axes``, both read off the SVD of the solver's weighted
    support; ``root = axes @ diag(semi_axes) @ axes.T`` and ``shape = root
    @ root`` are derived from them, and so is ``root^-1``, with no
    factorization.  ``support_weights`` is the dual certificate from the
    solver.

    With ``k`` the chart's columns, the center must have shape ``(n,)``,
    the chart ``(n, k)``, the axes ``(k, k)`` and the semi-axes ``(k,)``,
    all finite, the support weights a finite vector, the gap a finite,
    nonnegative real number and the iterations a whole number >= 0;
    anything else is an :class:`InvalidInputError`.
    """

    center: np.ndarray
    axes: np.ndarray
    semi_axes: np.ndarray
    chart: np.ndarray
    support_weights: np.ndarray = field(repr=False)
    optimality_gap: float
    iterations: int

    def __post_init__(self):
        for name in ("center", "axes", "semi_axes", "chart", "support_weights"):
            object.__setattr__(self, name, _array(getattr(self, name), f"ellipsoid {name}"))
        object.__setattr__(self, "optimality_gap", _real(self.optimality_gap, "ellipsoid gap"))
        object.__setattr__(self, "iterations", _size(self.iterations, "ellipsoid iterations", 0))
        center, axes, semi_axes, chart = self.center, self.axes, self.semi_axes, self.chart
        if self.support_weights.ndim != 1:
            raise InvalidInputError("ellipsoid support_weights must be a vector")
        if chart.ndim != 2 or chart.shape[1] < 1:
            raise InvalidInputError("ellipsoid chart must be an (n, k) array with k >= 1")
        n, k = chart.shape
        if center.shape != (n,) or axes.shape != (k, k) or semi_axes.shape != (k,):
            raise InvalidInputError(
                f"ellipsoid center, axes and semi-axes must have shapes ({n},), "
                f"({k}, {k}) and ({k},) for a ({n}, {k}) chart")
        # every test below fails closed on NaN
        if not 0.0 <= self.optimality_gap < math.inf:
            raise InvalidInputError(
                f"ellipsoid gap must be finite and >= 0, got {self.optimality_gap}")
        if not semi_axes.min() > 0.0:
            raise InvalidInputError("ellipsoid semi-axes must be positive")
        # the inverse root is read off the axes, and the measurement's volume
        # and counter-image through the chart, which needs orthonormal columns
        identity = np.eye(k)
        for name, columns in (("axes", axes), ("chart", chart)):
            if not np.abs(columns.T @ columns - identity).max() <= DEFAULT_TOL:
                raise InvalidInputError(f"ellipsoid {name} must have orthonormal columns")

    @property
    def root(self) -> np.ndarray:
        return (self.axes * self.semi_axes) @ self.axes.T

    @property
    def shape(self) -> np.ndarray:
        root = self.root
        return root @ root


def _sign_fix_columns(w: np.ndarray) -> np.ndarray:
    # Deterministic gauge: flip each column so its largest entry is positive.
    pivots = w[np.abs(w).argmax(axis=0), np.arange(w.shape[1])]
    return w * np.where(pivots < 0.0, -1.0, 1.0)


def _affine_chart(points: np.ndarray):
    """Chart (n, rank), base point, and the kept singular values and vectors.

    The rows lie on the hyperplane, where :class:`ProbabilityCloud` puts
    them, so the chart of the centered rows lies in it too.
    """
    base = points.sum(axis=0) / len(points)
    n = points.shape[1]
    _, sv, vt = np.linalg.svd(points - base, full_matrices=False)
    scale = np.sqrt(sv[0] ** 2 + len(points) * (base @ base))
    # centered rows sum to 0 up to rounding, so at most n - 1 axes are kept
    rank = int(np.count_nonzero(sv > DEFAULT_TOL * scale))
    right = vt[:rank].T
    if rank == n - 1:
        # the hull fills the hyperplane; use the canonical basis so the
        # ball itself maps to the identity measurement
        return hyperplane_basis(n), base, sv[:rank], right
    return _sign_fix_columns(right), base, sv[:rank], right


# Leverages carried by rank-one updates drift by rounding; a solver pass
# rebuilds them from a fresh inverse after at most this many steps, or
# sooner when an update would divide by less than _MIN_DENOMINATOR (a
# drop step of an almost essential point).
_REFRESH_STEPS = 64
_MIN_DENOMINATOR = 1e-2
# Below this gap, a support small enough for independent rank-one lifts
# is finished by Newton steps on its face.
_FACE_GAP = 1e-1
# Slack of the containment check on a converged ellipsoid's worst quadratic.
_CONTAINMENT_TOL = 1e-6


def _face_newton(lifted: np.ndarray, inverse: np.ndarray, u: np.ndarray, support: np.ndarray):
    """Damped Newton step of log det on the face ``{u_S >= 0, sum u_S = 1}``.

    With ``G = A_S inverse A_S^T`` the gradient on the face is ``diag(G)``
    and the Hessian is ``-(G o G)``, positive definite only when the lifts
    ``a a^T`` of the support are independent.  The step ``d`` solves the
    equality-constrained Newton system (KKT form)

        [[G o G, 1], [1^T, 0]] [d; lam] = [diag(G); 0],

    read off one solve ``(G o G) [y, z] = [diag(G), 1]`` as ``d = y - (sum
    y / sum z) z``.  One ratio test over the support weights, all positive,
    cuts it: with ``rate = d / u_S``, the step is 1 when ``min rate >= -1``
    and ``-1 / min rate`` otherwise, where the weight at the minimum is set
    to 0 (that point drops out).  The step is returned only when the face's
    log det rises: the new weights, or None.
    """
    a = lifted[support]
    g = a @ inverse @ a.T
    rhs = np.stack([np.diagonal(g), np.ones(support.size)], axis=1)
    try:
        y, z = np.linalg.solve(g * g, rhs).T
    except np.linalg.LinAlgError:
        return None
    direction = y - (y.sum() / z.sum()) * z
    weights = u[support]
    rate = direction / weights
    first = int(rate.argmin())
    step = 1.0 if rate[first] >= -1.0 else -1.0 / rate[first]
    weights = np.maximum(weights + step * direction, 0.0)
    if step < 1.0:
        weights[first] = 0.0
    # log det M(new) - log det M(u) is log det(inverse @ M(new)); a rise lost to
    # rounding reads <= 0 and is refused, leaving the move to the ordinary step;
    # a NaN sign or rise fails closed
    sign, rise = np.linalg.slogdet(inverse @ (a.T @ (weights[:, None] * a)))
    if not (sign > 0.0 and rise > 0.0):
        return None
    new = np.zeros_like(u)
    new[support] = weights
    return new


def _khachiyan_weights(x: np.ndarray, eps: float, max_iter: int):
    """Barycentric ascent with away/drop steps on lifted points.

    Maximizes log det of the weighted scatter of ``(x_i, 1)``.  Returns
    ``(weights, gap, iterations)`` where ``gap`` is the relative duality
    gap max(max_j w_j / D - 1, 1 - min_support w_j / D) on the leverage
    values w_j, computed from a fresh inverse, never one carried through
    the updates.  The caller reads convergence as ``gap <= eps``.

    The weights are affine-invariant, so the iteration runs on whitened
    points, whose uniform lifted scatter is the identity; a thin QR keeps
    that map as well conditioned as the points allow, so a badly scaled
    cloud converges like a well scaled one.  The iteration starts from
    uniform weights or from the extreme points of each whitened axis
    (Kumar and Yildirim's core set), whichever has the larger log det,
    and runs in passes.

    Each pass normalizes the weights and builds the inverse scatter, the
    leverages and the support from them afresh.  The decisions to stop,
    to switch to the face and to try a Newton step are made only on a
    pass's first step, so they always read a fresh gap; a later step that
    would need one of them ends the pass.  Within a pass at most
    ``_REFRESH_STEPS`` toward, away or drop steps carry the inverse
    scatter and the leverages by a Sherman-Morrison update, O(m d) per
    step (Todd and Yildirim).  All three are held up to one factor: the
    true weights are ``scale * u``, the inverse scatter ``inverse / scale``
    and the leverages ``leverage / scale``, so a step moves ``scale`` and
    ``u[j]`` and rescales no array; the next pass's normalization folds
    the factor back.  A pass also ends when an update would divide by less
    than ``_MIN_DENOMINATOR`` (a drop step of an almost essential point).

    The ascent converges only linearly.  Once the gap is at most
    ``_FACE_GAP`` and the support has at most ``D (D + 1) / 2`` points,
    the most whose lifts ``a a^T`` can be independent, every pass is one
    step long.  Unless the step due is a toward step to a point off the
    support, the damped Newton step on the support's face
    (:func:`_face_newton`) is tried first and taken when it raises the
    log det; otherwise the toward, away or drop step is taken.  A point
    thus joins the support only by a toward step.  Newton steps count as
    iterations and against ``max_iter``.
    """
    m, d = x.shape
    dim = d + 1
    u = np.full(m, 1.0 / m)
    # constant column first, so the other columns of q are the centered,
    # whitened axes
    q = np.linalg.qr(np.hstack([np.ones((m, 1)), x]))[0]
    lifted = np.sqrt(m) * q
    core = np.zeros(m)
    core[q[:, 1:].argmax(axis=0)] = 1.0
    core[q[:, 1:].argmin(axis=0)] = 1.0
    core /= core.sum()
    sign, logdet = np.linalg.slogdet(lifted.T @ (core[:, None] * lifted))
    if sign > 0 and logdet > 0.0:  # uniform weights have log det 0 here
        u = core
    face_size = dim * (dim + 1) // 2
    # the step product reads the points column by column
    columns = np.asfortranarray(lifted)
    iteration = 0
    while True:
        # normalizing folds the held factor back into the weights
        u /= u.sum()
        scale = 1.0
        support = np.flatnonzero(u)
        rows = lifted[support]
        try:
            inverse = np.linalg.inv(rows.T @ (u[support, None] * rows))
        except np.linalg.LinAlgError as exc:
            raise DegenerateInputError(
                "support collapsed during the ellipsoid iteration") from exc
        leverage = np.einsum("ij,ij->i", lifted @ inverse, lifted)
        off_support = np.where(u > 0.0, 0.0, np.inf)
        size = support.size
        for step_index in range(_REFRESH_STEPS):
            j_up = int(leverage.argmax())
            up = float(leverage[j_up]) / scale
            j_down = int((leverage + off_support).argmin())
            down = float(leverage[j_down]) / scale
            gap = max(up / dim - 1.0, 1.0 - down / dim)
            face = gap <= _FACE_GAP and size <= face_size
            toward = up / dim - 1.0 >= 1.0 - down / dim
            if gap <= eps or iteration == max_iter or face:
                if step_index:
                    break
                if gap <= eps or iteration == max_iter:
                    return u, gap, iteration
                # a point joins the support only by a toward step; weight
                # moves within the support by Newton steps
                if not (toward and off_support[j_up]):
                    newton = _face_newton(lifted, inverse, u, support)
                    if newton is not None:
                        u = newton
                        iteration += 1
                        break
            if toward:
                j, lever = j_up, up
                step = (lever - dim) / (dim * (lever - 1.0))
            else:
                j, lever = j_down, down
                weight = scale * u[j]
                bound = -weight / (1.0 - weight)
                denom = dim * (lever - 1.0)
                step = bound if denom <= 0.0 else max((lever - dim) / denom, bound)
            # the weights become (1 - step) u + step e_j: the factor takes
            # the 1 - step and only u[j] moves, the one weight that can
            # change sign; the sum stays 1 up to rounding, which the next
            # pass removes
            was_in = u[j] > 0.0
            scale *= 1.0 - step
            ratio = step / scale
            u[j] = max(u[j] + ratio, 0.0)
            off_support[j] = 0.0 if u[j] > 0.0 else np.inf
            size += int(u[j] > 0.0) - int(was_in)
            iteration += 1
            # Sherman-Morrison for the held scatter plus ratio a_j a_j^T;
            # the pass's last step skips it, as the next pass starts afresh
            denominator = 1.0 + ratio * float(leverage[j])
            if face or step_index == _REFRESH_STEPS - 1 or denominator < _MIN_DENOMINATOR:
                break
            column = inverse @ lifted[j]
            cross = columns @ column
            coef = ratio / denominator
            inverse -= (coef * column)[:, None] * column
            cross *= cross
            cross *= coef
            leverage -= cross


def mvee(cloud: ProbabilityCloud, eps: float = 1e-9, max_iter: int = 10 ** 6) -> Ellipsoid:
    """Minimum-volume enclosing ellipsoid of the cloud, center free.

    The problem is solved in an orthonormal chart of the cloud's affine
    hull, whose dimension is ``span_dim - 1``, by :func:`_khachiyan_weights`.
    ``center`` is built from the returned weights in the original chart,
    and the principal ``axes`` and ``semi_axes`` are the right singular
    vectors and singular values of the weighted, centered support.
    ``optimality_gap`` is the relative duality gap computed from a fresh
    inverse at those weights, converged or not.
    ``iterations`` counts the steps that moved the weights: toward, away
    and drop steps and Newton steps on the support's face, each against
    ``max_iter``.  A simplex, ``span_dim`` points lifted to an invertible
    square matrix, is optimal at uniform weights (gap 0, no iteration),
    so its support is the centered cloud, whose SVD ``U S V^T`` the chart
    took: the semi-axes are ``sqrt(d / m) S`` and the axes ``chart^T V``.
    On convergence every point is inside within a ``(1 + eps)`` inflation
    and shrinking any semi-axis by more than about ``10 * eps`` ejects at
    least one point.

    Raises
    ------
    InvalidInputError
        When ``eps`` is not a positive, finite real number (a bool or a
        string is none), or ``max_iter`` is not a whole number >= 1
        (``3.0`` and NumPy integers read as whole; ``True``, ``2.5``, NaN
        and infinity do not).
    NoConvergenceError
        When ``max_iter`` steps do not reach the gap; the exception's
        ``partial`` is the ellipsoid at the last weights, with their gap.
        A NaN gap builds no ellipsoid, so no partial: the constructor
        refuses it with :class:`InvalidInputError`.
    """
    rule = "a positive, finite real number"
    eps = _real(eps, "eps", rule)
    if not 0.0 < eps < math.inf:
        raise InvalidInputError(f"eps must be {rule}, got {eps}")
    cap = _size(max_iter, "max_iter", 1)
    m, d = len(cloud), cloud.span_dim - 1
    chart, base = cloud.chart, cloud.base
    x = (cloud.points - base) @ chart
    if m == d + 1:
        weights, gap, iterations = np.full(m, 1.0 / m), 0.0, 0
        center_x = weights @ x
        semi_axes, vt = math.sqrt(d / m) * cloud._sv, cloud._right.T @ chart
    else:
        weights, gap, iterations = _khachiyan_weights(x, eps, cap)
        center_x = weights @ x
        # the thin SVD A = U S V^T gives the principal axes V and semi-axes
        # S, so root = V S V^T; shape = A^T A is never formed
        support = weights > 0.0
        factor = np.sqrt(d * weights[support])[:, None] * (x[support] - center_x)
        _, semi_axes, vt = np.linalg.svd(factor, full_matrices=False)
    ellipsoid = Ellipsoid(
        center=base + chart @ center_x,
        axes=vt.T,
        semi_axes=semi_axes,
        chart=chart,
        support_weights=weights,
        optimality_gap=float(gap),
        iterations=int(iterations),
    )
    if gap > eps:
        raise NoConvergenceError(
            f"gap {gap} after {iterations} iterations (target {eps})", partial=ellipsoid)
    return ellipsoid


@dataclass(frozen=True)
class DdiResult:
    """Outcome of the inference map on one cloud.

    ``design_certificate`` is :func:`~ddi.designs.certify_design` of the
    counter-image at ``design_tol``, computed on first read and then kept;
    a result whose certificate is never read never computes it.
    """

    measurement: QuasiMeasurement
    volume_sq: float
    counter_image: WeightedStateSet
    design_tol: float
    gauge_note: str
    optimality_gap: float
    iterations: int

    @cached_property
    def design_certificate(self) -> DesignCertificate:
        return certify_design(self.counter_image, self.design_tol)

    def to_dict(self) -> dict:
        """Serialize the result, with the counter-image cut to its support.

        ``counter_image`` holds the rows with weight > 0, in cloud order,
        in the ``{"l", "points", "weights"}`` layout.  A support point lies
        within about half the gap of the sphere, so at the default ``eps``
        the object passes :func:`~ddi.designs.is_two_design` as written on
        every converged result.  A dropped row has weight 0 and is
        ``pinv(M) p`` of its cloud row ``p``, so a reader regenerates it
        from the matrix, and matches a written point ``s`` to its cloud
        row as ``M s``.
        ``design_certificate`` still covers every row, written or not.
        """
        counter = self.counter_image
        support = counter.weights > 0.0
        return {
            "measurement": measurement_to_dict(self.measurement),
            "volume_sq": float(self.volume_sq),
            "counter_image": state_set_to_dict(WeightedStateSet(
                points=counter.points[support], weights=counter.weights[support])),
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
    positive ``root = V diag(s) V^T`` (``V`` the ellipsoid's ``axes``, ``s``
    its ``semi_axes``), divided by the ball radius.  It is informationally
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
    ``w = root^-1 C^T (p - c)`` that the containment check measures, with
    the inverse ``root^-1 = V diag(1 / s) V^T`` read off the axes rather
    than solved for: with ``t = c_perp . (p - c) / |c_perp|^2``,

        M^+ p = (1 + t) u / l + r T (w - t root^-1 c_par),

    which never forms the large entries of ``M^+`` of an almost flat
    cloud.  One SVD, of ``K`` for its singular values, is the only
    factorization taken; :func:`validate`,
    :func:`range_volume_sq` and :func:`pseudoinverse` are the independent
    oracles the tests compare these with.

    The counter-image carries the solver's dual weights
    ``ellipsoid.support_weights`` (zero off the support).  The ellipsoid's
    axes are built from those weights, so their frame operator is
    ``eye(l) / l`` up to rounding, converged or not.  The certificate,
    computed on first read, is :func:`certify_design` of that
    counter-image at ``design_tol``, so ``is_design`` holds when every
    point is also on the sphere, that is, when the optimum is tight.

    Used by :func:`ddi_on_ball` on converged ellipsoids and by callers
    that want to salvage the partial ellipsoid of a
    :class:`NoConvergenceError`.

    Raises :class:`InvalidInputError` when the ellipsoid does not enclose
    the cloud (a quadratic above ``1 + 1e-6``, or ``1 + 4 * gap`` when the
    ellipsoid's duality gap is larger), :class:`DegenerateRangeError` when
    the measurement is rank deficient relative to ``DEFAULT_TOL``,
    :class:`NotAQuasiMeasurementError` when a column sum misses 1 and
    :class:`DegenerateInputError` when a point lies more than
    ``DEFAULT_TOL`` off the hull along a direction the chart dropped.
    """
    design_tol = _real(design_tol, "design_tol")
    # a partial ellipsoid encloses the cloud only up to its duality gap
    # (worst quadratic is below 1 + 2 * gap), so widen the slack with it
    slack = max(_CONTAINMENT_TOL, 4.0 * ellipsoid.optimality_gap)
    l = cloud.span_dim
    chart, center, axes = ellipsoid.chart, ellipsoid.center, ellipsoid.axes
    if chart.shape != (cloud.n, l - 1):
        raise InvalidInputError("ellipsoid chart does not match the cloud")
    offsets = cloud.points - center
    along = chart.T @ center
    normal = center - chart @ along
    # the whitened offsets and root^-1 c_par, read off the axes as
    # V S^-1 V^T applied to a right-hand side written row by row
    rhs = np.empty((len(cloud) + 1, l - 1))
    np.matmul(offsets, chart, out=rhs[:-1])
    rhs[-1] = along
    solved = axes @ ((rhs @ axes).T / ellipsoid.semi_axes[:, None])
    white, lift = solved[:, :-1], solved[:, -1]
    # light containment check, tolerant of the solver's eps-level slack
    worst = float(np.einsum("ij,ij->j", white, white).max())
    if not worst <= 1.0 + slack:
        raise InvalidInputError(
            f"ellipsoid does not enclose the cloud, worst quadratic {worst}")
    radius = ball_radius(l)
    normal_sq = float(normal @ normal)
    root = ellipsoid.root
    k = np.zeros((l, l))
    k[0, 0] = math.sqrt(l * normal_sq)
    k[1:, 0] = np.sqrt(l) * along
    k[1:, 1:] = root / radius
    sv = np.linalg.svd(k, compute_uv=False)
    if not sv[-1] > DEFAULT_TOL * sv[0]:
        raise DegenerateRangeError("measurement range is rank deficient")
    basis = hyperplane_basis(l)
    matrix = center[:, None] + chart @ root @ basis.T / radius
    # full rank, so the normalization identity says every column sums to 1
    column_error = matrix.sum(axis=0) - 1.0
    residual = math.sqrt(column_error @ column_error)
    if not residual <= DEFAULT_TOL:
        raise NotAQuasiMeasurementError(
            f"normalization identity fails with residual {residual}", residual=residual)
    t = offsets @ normal / normal_sq
    j = int(np.abs(t).argmax())
    if not abs(t[j]) <= DEFAULT_TOL:
        raise DegenerateInputError(
            f"point {j} lies off the cloud's hull along a direction the chart "
            f"dropped: its counter-image would sum to 1 + t, t = {t[j]:.3g}")
    counter = ((1.0 + t) / l)[:, None] + radius * (white.T - t[:, None] * lift) @ basis.T
    counter_image = WeightedStateSet(points=counter, weights=ellipsoid.support_weights)
    return DdiResult(
        measurement=QuasiMeasurement(matrix=matrix),
        volume_sq=float(np.prod(sv * sv)),
        counter_image=counter_image,
        design_tol=design_tol,
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
    n, points = _read_layout(obj, "cloud", ("n",), ("distributions",))
    if points.ndim != 2 or points.shape[1] != n:
        raise InvalidInputError(f"distributions must be rows of length {_shown(n)}")
    return ProbabilityCloud(points, sum_tol=sum_tol)
