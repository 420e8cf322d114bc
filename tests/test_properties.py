"""Property tests of the inference map from the laws the paper implies.

Clouds are Dirichlet samples with n in 3..6 outcomes and m in n..24
points, so their affine hull fills the distribution hyperplane and the
gauge-fixed measurement is canonical.  A second family is almost flat:
mixtures of three vertices in four outcomes, one of them lifted off
their plane by a tiny step, where every returned result must still
contain the cloud.  The volume and counter-image that the inference map
reads off the ellipsoid's root are compared with SVD oracles on
Dirichlet clouds and on pure qutrit states seen through a random
measurement.  The numpy NNLS behind ``design_weights`` is compared
with SciPy's on unit point sets, where the frame condition may have too
few points to hold, more points than it has entries, or a weight that
must be held at 0.  The quantum embedding's cached map is compared with an
einsum over the operator basis for d = 2..4, for every memory layout a
caller may pass, with entries near 1e300 and at tolerances below
1e-150; it keeps the Born rule, as the einsum does in a randomly turned
gauge, and refuses operators at twice the tolerance from Hermitian or
unit trace as the checks written out do.  Examples
are derandomized and no example database is
kept, so runs are repeatable and leave no files in the working tree.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ddi import (
    DEFAULT_TOL,
    DdiError,
    DegenerateRangeError,
    Ellipsoid,
    InvalidInputError,
    NotAQuasiMeasurementError,
    ProbabilityCloud,
    StateEmbedding,
    ddi_on_ball,
    embed_density,
    embed_effect,
    hyperplane_basis,
    mvee,
    pseudoinverse,
    random_ic_quasi_measurement,
    range_volume_sq,
    validate,
)
from ddi.inference import assemble_result

from ddi.verify import _nnls, design_weights
from helpers import (
    embed_density_einsum,
    embed_effect_einsum,
    embedding_rejection,
    flat_cloud,
    random_density,
    random_hermitian,
    random_pure_density,
    turned_gauge,
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


def assert_answered_or_refused(points):
    try:
        matrix = ddi_on_ball(ProbabilityCloud(points)).measurement.matrix
    except DdiError:
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


def test_center_off_the_hyperplane_is_rejected():
    cloud = ProbabilityCloud(np.random.default_rng(0).dirichlet(np.ones(4), 12))
    e = mvee(cloud)
    moved = Ellipsoid(center=e.center + 1e-6, root=e.root, chart=e.chart,
                      support_weights=e.support_weights,
                      optimality_gap=e.optimality_gap, iterations=e.iterations)
    with pytest.raises(NotAQuasiMeasurementError):
        assemble_result(moved, cloud)


def test_rank_deficient_range_is_rejected():
    cloud = ProbabilityCloud(np.eye(3))
    e = mvee(cloud)
    # a semi-axis 1e10 times the other encloses the cloud but leaves M
    # with singular values 1e-10 apart
    wide = Ellipsoid(center=e.center, root=e.root * np.diag([1e10, 1.0]), chart=e.chart,
                     support_weights=e.support_weights,
                     optimality_gap=e.optimality_gap, iterations=e.iterations)
    with pytest.raises(DegenerateRangeError):
        assemble_result(wide, cloud)


def test_indefinite_root_is_rejected():
    e = mvee(ProbabilityCloud(np.eye(3)))
    root = np.diag([1.0, -1.0])
    np.linalg.cholesky(root @ root)  # the square alone looks like a valid shape
    with pytest.raises(InvalidInputError):
        Ellipsoid(center=e.center, root=root, chart=e.chart,
                  support_weights=e.support_weights,
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
                            with pytest.raises(DdiError) as info:
                                embed(op, embedding, tol)
                            assert type(info.value) is expected


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
