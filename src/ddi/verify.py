"""Verification harness: samplers and checks of the theory behind :mod:`ddi.inference`.

The cone functional and the ball-membership test of the state ball; the
regular simplex, Haar-random stabilizing orthogonals, rotations of state
sets, orbit averages and the design-weight fit; the test of
informational completeness, the quasi-measurement samplers and the
closure and determinant-factorization checks; the closed form for
clouds of exactly ``l`` points; range membership, the volume bound
``det(M^T M) >= 1`` for square measurements enclosing a design, the
consistency bijection under composition, the generate-infer-compare
round trip, which checks that every cloud it solves is a simplex and
draws its perturbed simplices in one stacked pass, each judged by the
design certificate at uniform weights, and the random enclosing
samplers.  None of it is on the inference path, and ``ddi infer`` never
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateRangeError,
    InvalidInputError,
    NotAQuasiMeasurementError,
)
from .geometry import DEFAULT_TOL, _array, _real, _size, ball_radius, hyperplane_basis
from .designs import (
    DESIGN_TOL,
    DesignCertificate,
    WeightedStateSet,
    _frame,
    _frame_deviation,
    is_two_design,
)
from .inference import GAUGE_NOTE, DdiResult, ProbabilityCloud, ddi_on_ball
from .measurements import QuasiMeasurement, range_volume_sq, validate

_DET_RTOL = 1e-8
_PERTURBATION_SCALE = 0.1
_MIN_DESIGN_DEVIATION = 1e-3


def cone_functional(v: np.ndarray) -> float:
    """Evaluate ``f(v) = |v|^2 - (u . v)^2``.

    Nonpositive values mark the cone whose hyperplane section is the
    state ball.  On the hyperplane ``u . v = 1`` this reduces to
    ``|v|^2 - 1``.
    """
    v = _array(v, "vector")
    total = float(v.sum())
    return float(v @ v) - total * total


def ball_membership(s: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``s`` lies on the state hyperplane and inside the ball.

    Both conditions are tested with absolute tolerance ``tol``:
    ``|u . s - 1| <= tol`` and ``f(s) <= tol``.
    """
    s = _array(s, "state")
    if s.ndim != 1 or s.size < 2:
        raise InvalidInputError("state must be a finite vector of length >= 2")
    return _rows_in_ball(s[None], _real(tol, "tol"))


def _rows_in_ball(rows: np.ndarray, tol: float) -> bool:
    """:func:`ball_membership` of every row of ``rows``, without the input checks."""
    sums = rows.sum(axis=1)
    cone = np.einsum("ij,ij->i", rows, rows) - sums * sums
    return bool(np.all(np.abs(sums - 1.0) <= tol) and np.all(cone <= tol))


def regular_simplex(l: int) -> WeightedStateSet:
    """The standard basis of R^l with uniform weights.

    Its points are mutually orthogonal unit vectors on the hyperplane,
    forming a regular simplex inscribed in the state ball, and the frame
    operator is exactly ``eye(l) / l``.
    """
    l = _size(l, "formalism dimension", 2)
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
    basis = hyperplane_basis(l)  # refuses l < 2
    rng = np.random.default_rng(seed)
    q = _haar_orthogonal_batch(l - 1, 1, rng)[0]
    return np.ones((l, l)) / l + basis @ q @ basis.T


def rotate_set(states: WeightedStateSet, rotation: np.ndarray) -> WeightedStateSet:
    """Apply a stabilizing orthogonal map to every point of a state set.

    Raises :class:`InvalidInputError` unless ``rotation`` is
    orthogonal and fixes the all-ones vector, both within ``DEFAULT_TOL``.
    Weights are untouched; norms, pairwise angles, and any design
    property are preserved.
    """
    rotation = _array(rotation, "rotation")
    l = states.l
    if rotation.shape != (l, l):
        raise InvalidInputError(f"rotation must be {l} x {l}, got {rotation.shape}")
    ones = np.ones(l)
    if np.abs(rotation @ ones - ones).max() > DEFAULT_TOL:
        raise InvalidInputError("rotation must fix the all-ones vector")
    if np.abs(rotation.T @ rotation - np.eye(l)).max() > DEFAULT_TOL:
        raise InvalidInputError("rotation must be orthogonal")
    return WeightedStateSet(points=states.points @ rotation.T, weights=states.weights)


def haar_average_estimate(s: np.ndarray, samples: int,
                          seed: int | np.random.Generator = 0) -> np.ndarray:
    """Monte-Carlo estimate of the orbit average of ``s s^T``.

    Averages ``(O s)(O s)^T`` over Haar-random stabilizing orthogonals.
    For any pure state the exact average is ``eye(l) / l``, the same
    operator a 2-design reproduces; every sample has unit trace, so the
    estimate does too.
    """
    s = _array(s, "state")
    samples = _size(samples, "samples", 1)
    if s.ndim != 1 or s.size < 2:
        raise InvalidInputError("state must be a finite vector of length >= 2")
    plane = abs(float(s.sum()) - 1.0)
    radial = abs(float(s @ s) - 1.0)
    if plane > DEFAULT_TOL or radial > DEFAULT_TOL:
        raise InvalidInputError("orbit averaging requires a pure state on the hyperplane")
    l = s.size
    rng = np.random.default_rng(seed)
    basis = hyperplane_basis(l)
    x = basis.T @ s
    total = np.zeros((l, l))
    done = 0
    while done < samples:
        batch = min(samples - done, 1 << 16)
        q = _haar_orthogonal_batch(l - 1, batch, rng)
        pts = np.ones((batch, l)) / l + (q @ x) @ basis.T
        total += pts.T @ pts
        done += batch
    return total / samples


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares, ``argmin |a x - b|`` over ``x >= 0``.

    Lawson and Hanson's active-set loop from zero: each step adds the free
    column of largest gradient and takes a least-squares solve over the
    free columns (*Solving Least Squares Problems*, 1974).
    """
    n, m = a.shape
    x = np.zeros(m)
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
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
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
    deviation they achieve; a fit that finds no weight at all falls back
    to uniform weights.  When no weighting fits, the returned deviation
    simply stays large.

    This is a verification tool, not part of the inference path: an
    inference result already carries its certifying weights, the
    solver's dual weights.
    """
    points = _array(points, "points")
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError("points must form an (m, l) array")
    m, l = points.shape
    system = np.einsum("mi,mj->ijm", points, points).reshape(l * l, m)
    weights = _nnls(system, (np.eye(l) / l).ravel())
    total = weights.sum()
    weights = weights / total if total > 1e-12 else np.full(m, 1.0 / m)
    return weights, float(_frame_deviation(_frame(points, weights)))


def is_informationally_complete(meas: QuasiMeasurement, tol: float = DEFAULT_TOL) -> bool:
    """True when ``M`` has full column rank relative to ``tol``.

    Read off the measurement's SVD: with singular values of at most
    ``tol`` times the largest cut, ``M^+ M`` projects onto the kept
    right singular vectors.  That is the identity when all ``l`` are
    kept, and otherwise a projector at spectral distance 1 from it, so
    for ``tol < 1`` this is ``M^+ M = eye(l)`` within ``tol`` in spectral
    norm.  A ``tol`` of 1 or more cuts every measurement and refuses it.
    """
    tol = _real(tol, "tol")
    sv = meas._svd[1]
    return meas.n >= meas.l and bool(sv[-1] > tol * sv[0])


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
    n, l = _size(n, "n", 1), _size(l, "l", 2)
    if n < l:
        raise InvalidInputError(
            f"need n >= l >= 2 for informational completeness, got n={n}, l={l}")
    rng = np.random.default_rng(seed)
    ones_n = np.ones(n)
    for _ in range(64):
        block = rng.standard_normal((n, l))
        block -= np.outer(ones_n, ones_n @ block) / n
        matrix = np.outer(ones_n, np.ones(l)) / n + block
        try:
            meas = validate(matrix)
        except NotAQuasiMeasurementError:
            # validate's rank cut found the draw deficient: redraw, as the
            # rank test below would
            continue
        sv = meas._svd[1]
        if sv[-1] > 1e-6 * sv[0]:
            return meas
    raise DegenerateRangeError("failed to draw a full-rank measurement")


def random_quasi_measurement(n: int, l: int, rank: int,
                             seed: int | np.random.Generator = 0) -> QuasiMeasurement:
    """Random quasi-measurement of prescribed rank.

    Builds a matrix whose rows live in a random ``rank``-dimensional
    subspace and whose column sums equal the projection of the all-ones
    vector onto that subspace, which is exactly the normalization
    identity.  The rank test reads the validated measurement's SVD, and
    a draw that fails either is redrawn.  With ``rank == l`` this
    reduces to an informationally complete draw.
    """
    n, l, rank = _size(n, "n", 1), _size(l, "l", 2), _size(rank, "rank", 1)
    if rank > min(n, l):
        raise InvalidInputError(f"rank must lie in [1, min(n, l)], got {rank}")
    rng = np.random.default_rng(seed)
    ones_n = np.ones(n)
    ones_l = np.ones(l)
    for _ in range(64):
        span = np.linalg.qr(rng.standard_normal((l, rank)))[0]
        projector = span @ span.T
        rows = rng.standard_normal((n, rank)) @ span.T
        matrix = rows + np.outer(ones_n, projector @ ones_l - rows.T @ ones_n) / n
        try:
            meas = validate(matrix)
        except NotAQuasiMeasurementError:
            continue  # validate's rank cut breaks the identity: redraw
        sv = meas._svd[1]
        if sv[rank - 1] > 1e-6 * sv[0] and (rank == min(n, l) or sv[rank] < 1e-9 * sv[0]):
            return meas
    raise DegenerateRangeError("failed to draw a measurement of the requested rank")


def ddi_closed_form(cloud: ProbabilityCloud) -> DdiResult:
    """Closed-form inference for clouds of exactly ``l`` independent points.

    The optimal measurement simply has the observed distributions as its
    columns, the counter-image is the standard-basis simplex, certified
    at ``DESIGN_TOL``, and no iteration is involved.
    """
    m = len(cloud)
    if m != cloud.span_dim:
        raise InvalidInputError(
            f"closed form needs exactly span_dim={cloud.span_dim} independent "
            f"distributions, got {m}")
    meas = validate(cloud.points.T.copy())
    counter = regular_simplex(cloud.span_dim)
    return DdiResult(
        measurement=meas,
        volume_sq=range_volume_sq(meas),
        counter_image=counter,
        design_tol=DESIGN_TOL,
        gauge_note=GAUGE_NOTE + "; columns follow the input distribution order",
        optimality_gap=0.0,
        iterations=0,
    )


def feasibility_check(meas: QuasiMeasurement, cloud: ProbabilityCloud,
                      tol: float = DEFAULT_TOL) -> bool:
    """Is every cloud point inside the range of the measurement?

    Requires informational completeness at ``DEFAULT_TOL``, the cut that
    :meth:`~ddi.measurements.QuasiMeasurement.pinv` applies.  Checks that
    each distribution is reproduced by ``M M^+`` within ``tol`` and that
    its counter-image lies in the state ball within ``tol``.
    """
    tol = _real(tol, "tol")
    if not is_informationally_complete(meas):
        raise InvalidInputError("feasibility check requires an informationally complete measurement")
    return _reproduces(meas.matrix, cloud.points @ meas.pinv().T, cloud.points, tol)


def _reproduces(matrix: np.ndarray, counter: np.ndarray, points: np.ndarray,
                tol: float) -> bool:
    """Does ``counter @ matrix.T`` give ``points`` within ``tol``, with every
    row of ``counter`` in the ball within ``tol``?"""
    if not float(np.abs(counter @ matrix.T - points).max()) <= tol:
        return False
    return _rows_in_ball(counter, tol)


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

    Preconditions (violations raise :class:`InvalidInputError`):
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
        raise InvalidInputError(
            f"state set is not a certified 2-design, deviation {certificate.frame_deviation}")
    sv = meas._svd[1]
    if sv[-1] <= 1e-12 * sv[0]:
        raise InvalidInputError("measurement must be invertible")
    inverse = np.linalg.inv(matrix)
    if not _rows_in_ball(states.points @ inverse.T, DEFAULT_TOL):
        raise InvalidInputError("measurement range does not enclose the design")
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
    points = _array(points, "points")
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
    samples = _size(samples, "samples", 1)
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
    for _ in range(samples):
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


def _perturbed_simplices(l: int, count: int, rng: np.random.Generator):
    """``count`` pure-state simplex perturbations that fail design certification.

    Moves each standard-basis point along the sphere, all ``count``
    simplices in one stacked draw, and redraws together every simplex with
    a point too near the ball's center, with nearly dependent points, or
    that meets the frame condition at uniform weights within
    ``_MIN_DESIGN_DEVIATION``, for at most 64 rounds.  Independent unit
    points form a weighted 2-design only when orthonormal, and then only
    at uniform weights, so a simplex is judged at those.  One stacked
    ``eigvalsh`` of the uniform-weight frames less ``eye(l) / l`` serves
    both tests: its largest ``|eigenvalue|`` is the ``frame_deviation``
    of :func:`~ddi.designs.certify_design`, bit for bit, and the
    eigenvalues plus ``1 / l`` are the points' squared singular values
    over ``l``.  Returns the ``(count, l, l)`` points and the ``(count,)``
    design deviations.  At ``l = 2`` the pure states are two points, so no
    perturbation can miss the design and :class:`DegenerateInputError` is
    raised before any draw.
    """
    if count and l == 2:
        raise DegenerateInputError(
            "at l = 2 the pure states are two points, so no perturbed simplex "
            "can miss the design")
    tangent = hyperplane_basis(l)
    radius = ball_radius(l)
    x = (np.eye(l) - np.ones(l) / l) @ tangent
    uniform = np.full(l, 1.0 / l)
    points = np.empty((count, l, l))
    deviations = np.empty(count)
    done = np.zeros(count, dtype=bool)
    for _ in range(64):
        if done.all():
            break
        pending = np.flatnonzero(~done)
        moved = x + _PERTURBATION_SCALE * rng.standard_normal((pending.size, l, l - 1))
        norms = np.sqrt((moved * moved).sum(axis=-1))
        kept = norms.min(axis=-1) >= 1e-9
        moved, norms, slots = moved[kept], norms[kept], pending[kept]
        moved *= radius / norms[..., None]
        candidates = np.ones(l) / l + moved @ tangent.T
        # the eigenvalues _frame_deviation takes for certify_design, ascending
        excess = np.linalg.eigvalsh(_frame(candidates, uniform) - np.eye(l) / l)
        deviation = np.abs(excess).max(axis=-1)
        # sv_min > 1e-6 sv_max of the points, squared
        independent = excess[:, 0] + 1.0 / l > 1e-12 * (excess[:, -1] + 1.0 / l)
        kept = independent & (deviation >= _MIN_DESIGN_DEVIATION)
        slots = slots[kept]
        points[slots] = candidates[kept]
        deviations[slots] = deviation[kept]
        done[slots] = True
    if not done.all():
        raise DegenerateInputError(
            "could not draw a perturbed simplex beyond the requested deviation")
    return points, deviations


@dataclass(frozen=True)
class RoundTripReport:
    """Empirical record of one generate-infer-compare cycle.

    ``closed_form_gap`` is ``max |O^T O - I|`` for the least-squares ``O``
    with ``M O = M_r``: rounding-level exactly when the recovered ``M_r``
    is the input ``M`` up to the gauge, as the closed form claims.  Each
    ``perturbed_deviation`` is the ``frame_deviation`` of
    :func:`~ddi.designs.certify_design` for that perturbed simplex at
    uniform weights, the only weights that could certify it.
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


def inference_round_trip(meas: QuasiMeasurement, perturbations: int = 0,
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
    the rank test of :func:`range_volume_sq`, and every cloud solved
    must span all ``l`` dimensions, by its chart's rank cut; otherwise
    :class:`InvalidInputError` is raised.  Each cloud is then a simplex,
    which :func:`mvee` answers in closed form, at gap 0 and without
    iterating, from its chart's SVD: a solve takes that SVD and the
    singular values of the measurement's ``l x l`` factor, no other.

    With ``perturbations > 0`` the simplex is additionally kicked along
    the sphere into sets whose design certificate at uniform weights
    fails by a frame deviation of at least 1e-3, all drawn in one stacked
    pass; for each the report stores that deviation and the relative
    excess of the input measurement's volume over the new minimum.  A
    positive excess means consistency through a non-design counter-image
    costs volume.  Only the volumes of those solves are read, so the
    certificates of their results are never computed.
    ``perturbations`` must be a whole number >= 0 (``2.0`` reads as 2;
    ``True``, ``2.5`` and ``-1`` raise :class:`InvalidInputError`).  At
    ``l = 2`` the pure states are two points and no kick can miss the
    design, so any perturbation raises :class:`DegenerateInputError`
    before a draw is taken.
    """
    count = _size(perturbations, "perturbations", 0)
    try:
        expected = range_volume_sq(meas)
    except DegenerateRangeError as exc:
        raise InvalidInputError(
            "round trip requires an informationally complete measurement") from exc
    rng = np.random.default_rng(seed)
    perturbed, deviations = _perturbed_simplices(meas.l, count, rng)
    cloud = ProbabilityCloud(meas.matrix.T)
    perturbed_clouds = [ProbabilityCloud(points @ meas.matrix.T) for points in perturbed]
    span = min(c.span_dim for c in [cloud, *perturbed_clouds])
    if span != meas.l:
        raise InvalidInputError(
            f"round trip requires clouds spanning all l={meas.l} dimensions, one spans {span}")
    result = ddi_on_ball(cloud)
    relative_gap = abs(result.volume_sq - expected) / expected
    # full column rank, so M^+ M_r is the least-squares solution of M O = M_r
    gauge = meas.pinv() @ result.measurement.matrix
    gram = gauge.T @ gauge
    gram.ravel()[:: meas.l + 1] -= 1.0
    closed_form_gap = np.abs(gram).max()
    feasible = _reproduces(result.measurement.matrix, result.counter_image.points,
                           cloud.points, 1e-6)
    return RoundTripReport(
        expected_volume_sq=expected,
        recovered_volume_sq=result.volume_sq,
        relative_gap=float(relative_gap),
        design_certificate=result.design_certificate,
        closed_form_gap=float(closed_form_gap),
        feasible=feasible,
        optimality_gap=result.optimality_gap,
        iterations=result.iterations,
        perturbed_excess=tuple(expected / ddi_on_ball(c).volume_sq - 1.0
                               for c in perturbed_clouds),
        perturbed_deviation=tuple(map(float, deviations)),
    )
