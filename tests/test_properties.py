"""Property tests of the inference map from the laws the paper implies.

Clouds are Dirichlet samples with n in 3..6 outcomes and m in n..24
points, so their affine hull fills the distribution hyperplane and the
gauge-fixed measurement is canonical.  The solver is checked on a wider
Dirichlet family, n in 3..9, m in n + 1..120 and concentrations 0.3, 1
and 3, against the dense reference iteration and the fresh gap.  A
second family is almost flat: mixtures of three vertices in four
outcomes, one of them lifted off their plane by a tiny step, where
every returned result must still contain the cloud and the only refusal
is a ``DegenerateInputError``; the same holds for Dirichlet clouds with
row sums off by up to the cloud's ``sum_tol``.  An uncut face Newton
step, taken at weights mixed from the optimum toward a random point of
its face, is compared with a dense solve of its KKT system.  The round
trip's perturbed excess is compared with Hadamard's closed form
``1 / det(S)^2 - 1``.  Simplices seen through random
measurements, a badly scaled one included, are solved in closed form
and compared with the SVD of their support.  The volume and
counter-image that the inference map reads off the ellipsoid's root
are compared with SVD oracles on
Dirichlet clouds and on pure qutrit states seen through a random
measurement.  The counter-image a result writes is its support, bit for
bit and in cloud order, on Dirichlet clouds with n in 3..9 and m in
n + 1..199, converged or stopped after 3 iterations; the matrix maps it
back onto its cloud rows, ``pinv(M) p`` regenerates every row, and
every other key is the full-counter-image layout's.
The numpy NNLS behind ``design_weights`` is compared
with SciPy's on unit point sets, where the frame condition may have too
few points to hold, more points than it has entries, or a weight that
must be held at 0.  The quantum embedding's cached map is compared with an
einsum over the operator basis for d = 2..4, for every memory layout a
caller may pass, with entries near 1e300 and at tolerances below
1e-150; it keeps the Born rule, as the einsum does in a randomly turned
gauge, and refuses operators at twice the tolerance from Hermitian or
unit trace as the checks written out do.  The readers of a
measurement's one cached SVD (pseudoinverse, range volume, test of
informational completeness, normalization check) agree with the numpy
routes written out on full-rank and rank-deficient draws.  Examples
are derandomized and no example database is
kept, so runs are repeatable and leave no files in the working tree.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ddi import (
    DEFAULT_TOL,
    DegenerateInputError,
    DegenerateRangeError,
    Ellipsoid,
    InvalidInputError,
    NoConvergenceError,
    NotAQuasiMeasurementError,
    ProbabilityCloud,
    QuasiMeasurement,
    StateEmbedding,
    ddi_on_ball,
    embed_density,
    embed_effect,
    hyperplane_basis,
    inference_round_trip,
    is_informationally_complete,
    mvee,
    pseudoinverse,
    random_ic_quasi_measurement,
    random_quasi_measurement,
    range_volume_sq,
    validate,
)
from ddi import inference
from ddi.designs import state_set_from_dict, state_set_to_dict
from ddi.inference import assemble_result
from ddi.measurements import measurement_to_dict

from ddi.verify import _nnls, _perturbed_simplices, design_weights
from helpers import (
    chart_coordinates,
    embed_density_einsum,
    embed_effect_einsum,
    embedding_rejection,
    flat_cloud,
    mvee_dense,
    random_density,
    random_hermitian,
    random_pure_density,
    simplex_ellipsoid_svd,
    solver_gap,
    turned_gauge,
    whitened_lift,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Even without a database, hypothesis caches the constants of local
# modules under its home directory when it collects these tests (by
# default ./.hypothesis); keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "ddi-hypothesis")


@st.composite
def dirichlet_points(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.integers(n, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).dirichlet(np.ones(n), m)


def assert_same_result(expected, actual):
    assert actual.volume_sq == pytest.approx(expected.volume_sq, rel=1e-10)
    np.testing.assert_allclose(actual.measurement.matrix, expected.measurement.matrix,
                               rtol=0.0, atol=1e-7)


@PROPERTY
@given(data=st.data())
def test_row_permutation_leaves_the_result_unchanged(data):
    points = data.draw(dirichlet_points())
    order = data.draw(st.permutations(range(len(points))))
    assert_same_result(ddi_on_ball(ProbabilityCloud(points)),
                       ddi_on_ball(ProbabilityCloud(points[list(order)])))


@PROPERTY
@given(data=st.data())
def test_row_duplication_leaves_the_result_unchanged(data):
    points = data.draw(dirichlet_points())
    extra = data.draw(st.lists(st.integers(0, len(points) - 1),
                               min_size=1, max_size=len(points)))
    assert_same_result(ddi_on_ball(ProbabilityCloud(points)),
                       ddi_on_ball(ProbabilityCloud(np.vstack([points, points[extra]]))))


@PROPERTY
@given(data=st.data())
def test_composition_scales_the_volume_by_the_gram_determinant(data):
    # volume_sq(DDI(A P)) = det(A^T A) volume_sq(DDI(P)) for an IC quasi-measurement A
    points = data.draw(dirichlet_points())
    n = points.shape[1]
    a = random_ic_quasi_measurement(data.draw(st.integers(n, n + 3)), n,
                                    data.draw(st.integers(0, 2 ** 16))).matrix
    direct = ddi_on_ball(ProbabilityCloud(points)).volume_sq
    composed = ddi_on_ball(ProbabilityCloud(points @ a.T)).volume_sq
    assert composed == pytest.approx(np.linalg.det(a.T @ a) * direct, rel=1e-8)


@PROPERTY
@given(data=st.data())
def test_affine_maps_of_the_chart_carry_the_ellipsoid_along(data):
    # y -> B y + t on the chart coordinates y = H^T (p - u/n), with cond(B) >= 1e4
    points = data.draw(dirichlet_points())
    n = points.shape[1]
    d = n - 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    left = np.linalg.qr(rng.standard_normal((d, d)))[0]
    right = np.linalg.qr(rng.standard_normal((d, d)))[0]
    cond = 10.0 ** data.draw(st.floats(4.0, 5.0))
    b = (left * np.geomspace(1.0, 1.0 / cond, d)) @ right
    shift = rng.standard_normal(d)
    basis, origin = hyperplane_basis(n), np.full(n, 1.0 / n)
    image = origin + ((points - origin) @ basis @ b.T + shift) @ basis.T
    direct = mvee(ProbabilityCloud(points))
    mapped = mvee(ProbabilityCloud(image))
    # pull the image's ellipsoid back and whiten it by the direct one
    b_inv = np.linalg.inv(b)
    white = np.linalg.inv(np.linalg.cholesky(direct.shape))
    back_shape = b_inv @ mapped.shape @ b_inv.T
    back_center = b_inv @ (basis.T @ (mapped.center - origin) - shift)
    # a stored shape of condition k is accurate to about k * 1e-16 in its
    # smallest direction
    tol = 1e-8 + 1e-14 * np.linalg.cond(mapped.shape)
    np.testing.assert_allclose(white @ back_shape @ white.T, np.eye(d), rtol=0.0, atol=tol)
    np.testing.assert_allclose(white @ (back_center - basis.T @ (direct.center - origin)),
                               np.zeros(d), rtol=0.0, atol=tol)


@st.composite
def solver_clouds(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(n + 1, 120))
    concentration = draw(st.sampled_from((0.3, 1.0, 3.0)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).dirichlet(np.full(n, concentration), m)


@PROPERTY
@given(points=solver_clouds(), cap=st.integers(1, 8))
def test_solver_reaches_the_dense_optimum_with_a_fresh_gap(points, cap):
    # the returned gap is the one a fresh inverse gives at the returned
    # weights, bit for bit, whether the solver converged or hit max_iter
    cloud = ProbabilityCloud(points)
    x = chart_coordinates(cloud)
    e = mvee(cloud, eps=1e-12)
    assert e.optimality_gap <= 1e-12
    assert e.optimality_gap == solver_gap(x, e.support_weights)
    center, shape = mvee_dense(cloud, eps=1e-12)
    for actual, expected in ((e.center, center), (e.shape, shape)):
        np.testing.assert_allclose(actual, expected, rtol=0.0,
                                   atol=1e-8 * np.abs(expected).max())
    # the root is built from the principal axes, and so is its inverse
    np.testing.assert_array_equal(e.root, (e.axes * e.semi_axes) @ e.axes.T)
    offsets = (cloud.points - e.center) @ e.chart
    white = e.axes @ ((offsets @ e.axes).T / e.semi_axes[:, None])
    solved = np.linalg.solve(e.root, offsets.T)
    assert np.abs(white - solved).max() <= 1e-12 * np.abs(solved).max()
    try:
        partial = mvee(cloud, eps=1e-12, max_iter=cap)
    except NoConvergenceError as exc:
        partial = exc.partial
    assert partial.optimality_gap == solver_gap(x, partial.support_weights)


@PROPERTY
@given(points=solver_clouds(), mix=st.floats(0.01, 0.3), seed=st.integers(0, 2 ** 32 - 1))
def test_an_uncut_newton_step_solves_the_bordered_system(points, mix, seed):
    # weights mixed from the optimum toward a random point of its face: the
    # support's lifts are independent, G o G is well conditioned and the
    # step is rarely cut; uncut, it is the Newton step of the KKT system
    # [[G o G, 1], [1^T, 0]] [d; lam] = [diag G; 0], solved densely here
    cloud = ProbabilityCloud(points)
    optimum = mvee(cloud).support_weights
    support = np.flatnonzero(optimum)
    lifted = whitened_lift(chart_coordinates(cloud))
    dim = lifted.shape[1]
    assume(support.size <= dim * (dim + 1) // 2)
    u = np.zeros(len(points))
    u[support] = ((1.0 - mix) * optimum[support]
                  + mix * np.random.default_rng(seed).dirichlet(np.ones(support.size)))
    a = lifted[support]
    inverse = np.linalg.inv(a.T @ (u[support, None] * a))
    new = inference._face_newton(lifted, inverse, u, support)
    assume(new is not None and new[support].min() > 0.0)
    g = a @ inverse @ a.T
    ones = np.ones((support.size, 1))
    bordered = np.block([[g * g, ones], [ones.T, np.zeros((1, 1))]])
    step = np.linalg.lstsq(bordered, np.append(np.diagonal(g), 0.0), rcond=None)[0][:-1]
    np.testing.assert_allclose(new[support] - u[support], step, rtol=0.0,
                               atol=1e-8 * np.abs(step).max())


def assert_answered_or_refused(points):
    # a point lifted along the direction the chart dropped is the one refusal
    try:
        matrix = ddi_on_ball(ProbabilityCloud(points)).measurement.matrix
    except DegenerateInputError:
        return
    assert_contains(matrix, points)


def assert_contains(matrix, points):
    # numpy-only oracle: every point has a counter-image in the state ball,
    # within the 1e-6 containment tolerance of the inference map
    states = np.linalg.lstsq(matrix, points.T, rcond=None)[0].T
    residual = np.linalg.norm(states @ matrix.T - points, axis=1)
    assert residual.max() <= 1e-6
    assert (np.einsum("ij,ij->i", states, states) - 1.0).max() <= 1e-6


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), log_e=st.floats(-12.0, -3.0))
def test_almost_flat_clouds_are_contained_or_refused(seed, log_e):
    assert_answered_or_refused(flat_cloud(seed, 10.0 ** log_e))


@PROPERTY
@given(points=dirichlet_points(), log_tol=st.floats(-9.0, -3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rows_within_the_sum_tolerance_are_answered(points, log_tol, seed):
    # entrywise noise below sum_tol / n moves a row sum by less than
    # sum_tol; the cloud puts each row back on the hyperplane, so the
    # later checks at DEFAULT_TOL hold for the moved rows
    sum_tol = 10.0 ** log_tol
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, points.shape)
    cloud = ProbabilityCloud(points + sum_tol / points.shape[1] * noise, sum_tol=sum_tol)
    try:
        matrix = ddi_on_ball(cloud).measurement.matrix
    except DegenerateInputError:
        return
    assert_contains(matrix, cloud.points)


def test_a_point_off_the_dropped_direction_is_refused():
    # row 0's lift is too thin for the chart to keep, yet its offset from the
    # hull, which the counter-image would carry, is above DEFAULT_TOL
    with pytest.raises(DegenerateInputError, match=(
            r"^point 0 lies off the cloud's hull along a direction the chart dropped: "
            r"its counter-image would sum to 1 \+ t, t = -1.45e-09$")):
        ddi_on_ball(ProbabilityCloud(flat_cloud(0, 10 ** -8.75)))


@pytest.mark.parametrize("seed, e", [(3, 10 ** -7.5), (3, 1e-7), (5, 10 ** -6.75)])
def test_almost_flat_clouds_once_answered_wrongly(seed, e):
    # a range built by a solve and eigh of the squared shape misses a point here by 1e-4..5e-4
    assert_answered_or_refused(flat_cloud(seed, e))


@pytest.mark.parametrize("seed, e", [(0, 1e-8), (4, 1e-7), (0, 10 ** -7.5)])
def test_almost_flat_clouds_once_refused_are_answered(seed, e):
    # an SVD pseudoinverse of the nearly singular measurement refused these
    points = flat_cloud(seed, e)
    assert_contains(ddi_on_ball(ProbabilityCloud(points)).measurement.matrix, points)


@st.composite
def simplex_clouds(draw):
    # l points through an IC measurement A: n == l gives the canonical chart,
    # n > l the SVD chart, and the 6 x 6 draw at seed 6 has cond(A) 9.4e4
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.integers(0, 3)) == 0:
        a = random_ic_quasi_measurement(6, 6, 6).matrix
    else:
        l = draw(st.integers(2, 7))
        a = random_ic_quasi_measurement(draw(st.integers(l, l + 4)), l, rng).matrix
    l = a.shape[1]
    # below 1/2 no row-stochastic kick makes the simplex singular
    kick = draw(st.floats(0.0, 0.4))
    simplex = (1.0 - kick) * np.eye(l) + kick * rng.dirichlet(np.ones(l), l)
    return simplex @ a.T


@PROPERTY
@given(points=simplex_clouds())
def test_simplex_ellipsoid_matches_its_support_svd(points):
    # the closed form reads the chart's SVD; the reference takes the support's
    cloud = ProbabilityCloud(points)
    e = mvee(cloud)
    center, axes, semi_axes = simplex_ellipsoid_svd(cloud)
    np.testing.assert_array_equal(e.support_weights, np.full(len(points), 1.0 / len(points)))
    assert e.iterations == 0 and e.optimality_gap == 0.0
    np.testing.assert_allclose(e.root, (axes * semi_axes) @ axes.T,
                               rtol=0.0, atol=1e-12 * semi_axes[0])
    reference = Ellipsoid(center=center, axes=axes, semi_axes=semi_axes, chart=cloud.chart,
                          support_weights=e.support_weights, optimality_gap=0.0, iterations=0)
    # either SVD fixes a semi-axis of relative size 1/k only to about 1e-16 k,
    # and the volume multiplies them all (k is 8.6e4 on the badly scaled draw)
    rel = max(1e-12, 1e-14 * semi_axes[0] / semi_axes[-1])
    assert ddi_on_ball(cloud).volume_sq == pytest.approx(
        assemble_result(reference, cloud).volume_sq, rel=rel)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(((12, 9), (6, 4), (5, 5), (8, 3))))
def test_perturbed_excess_is_the_hadamard_gap(seed, shape):
    # a perturbed simplex S of l unit rows pushed through M has an optimum
    # of squared volume det(S)^2 det(M^T M), so the excess is 1/det(S)^2 - 1:
    # >= 0 by Hadamard's inequality, 0 exactly when S is orthonormal (a design)
    n, l = shape
    report = inference_round_trip(random_ic_quasi_measurement(n, l, seed),
                                  perturbations=3, seed=seed)
    simplices, _ = _perturbed_simplices(l, 3, np.random.default_rng(seed))
    hadamard = 1.0 / np.linalg.det(simplices) ** 2 - 1.0
    assert (hadamard > 0.0).all()
    np.testing.assert_allclose(report.perturbed_excess, hadamard, rtol=1e-9, atol=0.0)


@st.composite
def assembled_clouds(draw):
    # a Dirichlet cloud, a flat cloud whose lifted point the chart drops,
    # or 200 pure qutrit states through a random 12-outcome measurement
    family = draw(st.sampled_from(["dirichlet", "flat", "qutrit"]))
    if family == "dirichlet":
        return draw(dirichlet_points())
    if family == "flat":
        return flat_cloud(draw(st.integers(0, 2 ** 32 - 1)), 10.0 ** draw(st.floats(-12.0, -10.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    embedding = StateEmbedding.for_dimension(3)
    states = np.array([embed_density(random_pure_density(3, rng), embedding)
                       for _ in range(200)])
    return states @ random_ic_quasi_measurement(12, 9, rng).matrix.T


@PROPERTY
@given(points=assembled_clouds())
def test_assembly_from_the_root_matches_the_svd_oracles(points):
    result = ddi_on_ball(ProbabilityCloud(points))
    meas = validate(result.measurement.matrix)
    assert result.volume_sq == pytest.approx(range_volume_sq(meas), rel=1e-12)
    np.testing.assert_allclose(result.counter_image.points,
                               points @ pseudoinverse(meas.matrix).T, rtol=0.0, atol=1e-12)



@st.composite
def written_clouds(draw):
    n = draw(st.integers(3, 9))
    m = draw(st.integers(n + 1, 199))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).dirichlet(np.ones(n), m)


def full_counter_image_layout(result):
    """What ``DdiResult.to_dict`` wrote before it cut the counter-image to its support."""
    return {
        "measurement": measurement_to_dict(result.measurement),
        "volume_sq": float(result.volume_sq),
        "counter_image": state_set_to_dict(result.counter_image),
        "design_certificate": result.design_certificate.to_dict(),
        "gauge_note": result.gauge_note,
        "optimality_gap": float(result.optimality_gap),
        "iterations": int(result.iterations),
    }


@PROPERTY
@given(points=written_clouds(), cap=st.sampled_from((3, 10 ** 6)))
def test_written_support_regenerates_the_whole_counter_image(points, cap):
    cloud = ProbabilityCloud(points)
    try:
        result = ddi_on_ball(cloud, max_iter=cap)
    except NoConvergenceError as exc:
        result = assemble_result(exc.partial, cloud)
    written = json.loads(json.dumps(result.to_dict()))
    counter = result.counter_image
    support = counter.weights > 0.0
    obj = written["counter_image"]
    states = state_set_from_dict(obj)
    # the support rows, bit for bit and in cloud order
    np.testing.assert_array_equal(states.points, counter.points[support])
    np.testing.assert_array_equal(states.weights, counter.weights[support])
    # a reader maps the support onto its cloud rows and regenerates the rest
    matrix = np.array(written["measurement"]["matrix"])
    np.testing.assert_allclose(states.points @ matrix.T, points[support], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(points @ np.linalg.pinv(matrix).T, counter.points,
                               rtol=0.0, atol=1e-12)
    full = json.loads(json.dumps(full_counter_image_layout(result)))
    assert written.keys() == full.keys()
    assert obj["l"] == full["counter_image"]["l"]
    del written["counter_image"], full["counter_image"]
    assert written == full


def test_center_off_the_hyperplane_is_rejected():
    cloud = ProbabilityCloud(np.random.default_rng(0).dirichlet(np.ones(4), 12))
    e = mvee(cloud)
    moved = Ellipsoid(center=e.center + 1e-6, axes=e.axes, semi_axes=e.semi_axes,
                      chart=e.chart, support_weights=e.support_weights,
                      optimality_gap=e.optimality_gap, iterations=e.iterations)
    with pytest.raises(NotAQuasiMeasurementError):
        assemble_result(moved, cloud)


def test_rank_deficient_range_is_rejected():
    cloud = ProbabilityCloud(np.eye(3))
    e = mvee(cloud)
    # a semi-axis 1e10 times the other encloses the cloud but leaves M
    # with singular values 1e-10 apart
    wide = Ellipsoid(center=e.center, axes=e.axes, semi_axes=e.semi_axes * [1e10, 1.0],
                     chart=e.chart, support_weights=e.support_weights,
                     optimality_gap=e.optimality_gap, iterations=e.iterations)
    with pytest.raises(DegenerateRangeError):
        assemble_result(wide, cloud)


@pytest.mark.parametrize("semi_axis", [-1.0, 0.0])
def test_non_positive_semi_axis_is_rejected(semi_axis):
    e = mvee(ProbabilityCloud(np.eye(3)))
    # a semi-axis of -1 squares to a valid shape, but gives no positive root
    with pytest.raises(InvalidInputError, match="semi-axes must be positive"):
        Ellipsoid(center=e.center, axes=np.eye(2), semi_axes=np.array([1.0, semi_axis]),
                  chart=e.chart, support_weights=e.support_weights,
                  optimality_gap=e.optimality_gap, iterations=e.iterations)


@st.composite
def embedded_operators(draw):
    # the embedding, the gauge the einsum references embed in (the package's
    # or a randomly turned one), a unit-trace Hermitian matrix (pure, mixed
    # or a non-positive quasi-state) and a Hermitian effect
    d = draw(st.sampled_from((2, 3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    embedding = gauge = StateEmbedding.for_dimension(d)
    if draw(st.booleans()):
        turn = np.linalg.qr(rng.standard_normal((d * d - 1, d * d - 1)))[0]
        gauge = turned_gauge(embedding, turn)
    kind = draw(st.sampled_from(["pure", "mixed", "quasi"]))
    if kind == "pure":
        rho = random_pure_density(d, rng)
    elif kind == "mixed":
        rho = random_density(d, rng)
    else:
        h = random_hermitian(d, rng)
        rho = h + (1.0 - np.trace(h).real) / d * np.eye(d)
    return embedding, gauge, rho, random_hermitian(d, rng)


def memory_layouts(a):
    # C order, Fortran order, a strided view, and the real part as a real
    # array (still Hermitian, with the same trace)
    big = np.zeros((2 * len(a), 2 * len(a)), dtype=complex)
    big[::2, ::2] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), big[::2, ::2], a.real.copy()]


def exactly_hermitian(op, scale, diagonal):
    # the strict upper triangle of op times scale, mirrored so that X - X^H
    # is exactly 0, on the real ``diagonal``
    upper = scale * np.triu(op, 1)
    return upper + upper.conj().T + np.diag(diagonal)


@PROPERTY
@given(case=embedded_operators())
def test_embedding_matches_the_einsum_reference(case):
    # the drawn operators at the default tolerance; then the same operators
    # made exactly Hermitian (the state on a diagonal of 1/d, so its trace
    # is exactly 1), with entries near 1e300, whose sum of squares
    # overflows, and at a tolerance whose square underflows.  Each must
    # agree with the reference to 1e-14 times the operator's scale.
    embedding, _, rho, effect = case
    d = embedding.d
    cases = [(rho, effect, DEFAULT_TOL, 1.0)]
    for scale, tol in ((1.0, 1e-170), (1e300, DEFAULT_TOL), (1e300, 1e-170)):
        cases.append((exactly_hermitian(rho, scale, np.full(d, 1.0 / d)),
                      exactly_hermitian(effect, scale, scale * effect.diagonal().real),
                      tol, scale))
    for state, op, tol, scale in cases:
        for embed, reference, operator in ((embed_density, embed_density_einsum, state),
                                           (embed_effect, embed_effect_einsum, op)):
            for layout in memory_layouts(operator):
                np.testing.assert_allclose(embed(layout, embedding, tol),
                                           reference(layout, embedding),
                                           rtol=0.0, atol=1e-14 * scale)
            if tol < 1e-150:
                # (X - X^H)[0, 0] = 2i Im X[0, 0]: half the tolerance passes,
                # twice it does not, though its square is 0
                nudged = operator.astype(complex)
                nudged[0, 0] += 0.25j * tol
                np.testing.assert_allclose(embed(nudged, embedding, tol),
                                           reference(nudged, embedding),
                                           rtol=0.0, atol=1e-14 * scale)
                nudged[0, 0] += 0.75j * tol
                with pytest.raises(InvalidInputError, match="Hermitian"):
                    embed(nudged, embedding, tol)


@PROPERTY
@given(case=embedded_operators())
def test_embedding_keeps_the_born_rule(case):
    embedding, gauge, rho, effect = case
    expected = float(np.trace(effect @ rho).real)
    probability = float(embed_effect(effect, embedding) @ embed_density(rho, embedding))
    assert probability == pytest.approx(expected, abs=1e-12)
    turned = float(embed_effect_einsum(effect, gauge) @ embed_density_einsum(rho, gauge))
    assert turned == pytest.approx(expected, abs=1e-12)


def nudged_operator(d, kind, size, rng):
    # a unit-trace Hermitian matrix moved by ``size`` in one checked
    # quantity: an entry of X - X^H off or on the diagonal, or the real or
    # imaginary part of the trace (spread over the diagonal, whose own
    # deviation is then 2 * size / d)
    h = random_hermitian(d, rng)
    op = h + (1.0 - np.trace(h).real) / d * np.eye(d)
    i, j = rng.permutation(d)[:2]
    if kind == "off-diagonal":
        op[i, j] += size * np.exp(2j * np.pi * rng.random())
    elif kind == "diagonal":
        op[i, i] += 0.5j * size  # (X - X^H)[i, i] = 2i Im X[i, i]
    elif kind == "trace-re":
        op[i, i] += size
    else:
        op[np.diag_indices(d)] += 1j * size / d
    return op


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), tol=st.sampled_from((1e-9, 1e-6)))
def test_embedding_checks_agree_with_the_written_out_checks(seed, tol):
    # at 0.9 of the tolerance the squared deviations no longer sum to its
    # quarter, so the moduli are compared one by one
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        embedding = StateEmbedding.for_dimension(d)
        for kind in ("off-diagonal", "diagonal", "trace-re", "trace-im"):
            for factor in (0.5, 0.9, 2.0):
                op = nudged_operator(d, kind, factor * tol, rng)
                for embed, reference, unit_trace in (
                        (embed_density, embed_density_einsum, True),
                        (embed_effect, embed_effect_einsum, False)):
                    expected = embedding_rejection(op, tol, unit_trace)
                    if kind != "trace-im" and (unit_trace or kind != "trace-re"):
                        assert (expected is not None) == (factor > 1.0)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        if expected is None:
                            np.testing.assert_allclose(embed(op, embedding, tol),
                                                       reference(op, embedding),
                                                       rtol=0.0, atol=1e-14)
                        else:
                            with pytest.raises(InvalidInputError, match=expected):
                                embed(op, embedding, tol)


@st.composite
def quasi_measurements(draw):
    # full-rank draws need n >= l; rank-deficient ones keep rank < l
    n, l = draw(st.integers(2, 12)), draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if n >= l and draw(st.booleans()):
        return random_ic_quasi_measurement(n, l, seed)
    return random_quasi_measurement(n, l, draw(st.integers(1, min(n, l - 1))), seed)


def volume_through_numpy(m):
    """``range_volume_sq`` written out on its own SVD; None where it raises."""
    sv = np.linalg.svd(m, compute_uv=False)
    if m.shape[0] < m.shape[1] or sv[-1] <= DEFAULT_TOL * sv[0]:
        return None
    return float(np.prod(sv * sv))


def normalization_through_numpy(m):
    """``validate``'s verdict with the identity's right side from ``numpy.linalg.pinv``."""
    n, l = m.shape
    rhs = m.T @ np.linalg.pinv(m.T, rcond=DEFAULT_TOL) @ np.ones(l)
    return float(np.linalg.norm(m.T @ np.ones(n) - rhs)) <= DEFAULT_TOL


def completeness_through_numpy(m, tol):
    """``M^+ M = eye(l)`` within ``tol`` in spectral norm, from ``numpy.linalg.pinv``."""
    n, l = m.shape
    if n < l:
        return False
    gram = np.linalg.pinv(m, rcond=tol) @ m
    return float(np.linalg.norm(gram - np.eye(l), 2)) <= tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(meas=quasi_measurements(), kick=st.sampled_from((0.0, 1e-6, 1e-2)),
       tol=st.sampled_from((DEFAULT_TOL, 1e-6, 0.5)))
def test_cached_svd_readers_agree_with_the_numpy_routes(meas, kick, tol):
    # each reader runs on a fresh measurement, so no reader sees another's SVD;
    # a completeness tol of 0.5 cuts singular values of full-rank draws too.
    # Below about 1e-12 the written-out completeness test would judge its own
    # rounding on an ill-conditioned full-rank draw, so tol stays above that
    m = meas.matrix
    expected = np.linalg.pinv(m, rcond=DEFAULT_TOL)
    assert (np.linalg.norm(QuasiMeasurement(m).pinv() - expected)
            <= 1e-14 * np.linalg.norm(expected))
    volume = volume_through_numpy(m)
    if volume is None:
        with pytest.raises(DegenerateRangeError):
            range_volume_sq(QuasiMeasurement(m))
    else:
        assert range_volume_sq(QuasiMeasurement(m)) == pytest.approx(volume, rel=1e-13)
    assert (is_informationally_complete(QuasiMeasurement(m), tol)
            is completeness_through_numpy(m, tol))
    kicked = m.copy()
    kicked[0, 0] += kick
    try:
        validate(kicked)
        accepted = True
    except NotAQuasiMeasurementError:
        accepted = False
    assert accepted is normalization_through_numpy(kicked)
    if kick == 0.0 or volume is not None:
        # a full-rank member kicked by k misses the identity by exactly k
        assert accepted is (kick == 0.0)


@pytest.fixture(scope="module")
def scipy_nnls():
    return pytest.importorskip("scipy.optimize").nnls


@st.composite
def unit_point_sets(draw):
    # up to l standard-basis rows give exact designs, where the other rows'
    # weights must be held at 0; m > l^2 leaves the fit underdetermined
    l = draw(st.integers(2, 6))
    m = draw(st.one_of(st.integers(2, l * l), st.integers(l * l + 1, 40)))
    basis_rows = draw(st.integers(0, min(l, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = np.vstack([np.eye(l)[:basis_rows], rng.standard_normal((m - basis_rows, l))])
    return points / np.linalg.norm(points, axis=1)[:, None]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=unit_point_sets())
def test_nnls_fit_matches_scipy(points, scipy_nnls):
    m, l = points.shape
    system = np.einsum("mi,mj->mij", points, points).reshape(m, l * l).T
    target = (np.eye(l) / l).ravel()
    weights = _nnls(system, target)
    assert weights.min() >= 0.0
    assert abs(np.linalg.norm(system @ weights - target)
               - scipy_nnls(system, target)[1]) <= 1e-12
    normalized, deviation = design_weights(points)
    frame = (points.T * normalized) @ points
    assert abs(deviation - np.linalg.norm(frame - np.eye(l) / l, 2)) <= 1e-12
