import dataclasses

import numpy as np
import pytest

from ddi import (
    DEFAULT_TOL,
    DegenerateInputError,
    Ellipsoid,
    InvalidInputError,
    NoConvergenceError,
    NotClosedFormCaseError,
    PreconditionViolatedError,
    ProbabilityCloud,
    QuasiMeasurement,
    StateEmbedding,
    WeightedStateSet,
    ball_membership,
    ball_radius,
    composition_bijection_check,
    ddi_closed_form,
    ddi_on_ball,
    design_volume_bound_check,
    embed_density,
    feasibility_check,
    hyperplane_basis,
    inference_round_trip,
    is_two_design,
    mvee,
    random_ic_quasi_measurement,
    random_stabilizing_orthogonal,
    range_volume_sq,
    regular_simplex,
    rotate_set,
    validate,
)
from ddi import inference, verify
from ddi.inference import (
    _affine_chart,
    assemble_result,
    cloud_from_dict,
    cloud_to_dict,
)
from ddi.verify import sample_enclosing_measurement, sample_enclosing_square

from helpers import (
    chart_coordinates,
    duality_gap_dense,
    enclosing_ellipse_bruteforce,
    flat_cloud,
    mvee_dense,
    random_pure_density,
    solver_gap,
    triangle_area,
)

# 2x2 member stretching the tangent direction by 2; det is 2 by direct
# expansion, so gram_det = 4 and tr(M^-2) - 2 = 1 + 1/4 - 2 = -3/4
STRETCH2 = np.array([[1.5, -0.5], [-0.5, 1.5]])


def random_cloud(m, n, rng, concentration=1.0):
    return ProbabilityCloud(rng.dirichlet(np.full(n, concentration), m))


def dirichlet_cloud(m, n, seed):
    return ProbabilityCloud(np.random.default_rng([7, seed]).dirichlet(np.ones(n), m))


def qutrit_cloud(seed, m=200):
    rng = np.random.default_rng(seed)
    embedding = StateEmbedding.for_dimension(3)
    return ProbabilityCloud(np.array([embed_density(random_pure_density(3, rng), embedding)
                                      for _ in range(m)]))


def count_face_steps(monkeypatch):
    """Record, for each Newton step the solver tries, whether it was taken."""
    taken = []
    face_newton = inference._face_newton

    def counted(*args):
        weights = face_newton(*args)
        taken.append(weights is not None)
        return weights

    monkeypatch.setattr(inference, "_face_newton", counted)
    return taken


def transposed_chart(points):
    """The chart from the SVD of the transposed centered points, and its conditioning.

    Returns the chart's columns before the gauge fix and the ratio of the
    largest to the smallest kept singular value.
    """
    base = points.mean(axis=0)
    u, sv, _ = np.linalg.svd((points - base).T, full_matrices=False)
    scale = np.sqrt(sv[0] ** 2 + len(points) * (base @ base))
    rank = min(int(np.count_nonzero(sv > DEFAULT_TOL * scale)), points.shape[1] - 1)
    return u[:, :rank], sv[0] / sv[rank - 1]


def mixtures(m, n, vertices, e, seed):
    """m mixtures of ``vertices`` Dirichlet points in n outcomes, row 0 moved by e."""
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.ones(vertices), m) @ rng.dirichlet(np.ones(n), vertices)
    points[0] += e * np.resize([1.0, -1.0], n)
    return points


def design_union(l, rng, copies=2):
    points = np.vstack([
        rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng)).points
        for _ in range(copies)])
    return points


class TestProbabilityCloud:
    def test_span_dim_of_simplex(self):
        cloud = ProbabilityCloud(np.eye(4))
        assert cloud.span_dim == 4 and cloud.n == 4 and len(cloud) == 4

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InvalidInputError):
            ProbabilityCloud(np.array([[0.5, 0.6], [0.5, 0.5]]))
        # a NaN tolerance accepts no row, not the row summing to 1.2
        for points in ([[0.6, 0.6], [1.0, 0.0], [0.0, 1.0]], np.eye(3)):
            with pytest.raises(InvalidInputError, match="sum to 1"):
                ProbabilityCloud(np.array(points), sum_tol=float("nan"))

    def test_rejects_rank_one(self):
        with pytest.raises(DegenerateInputError):
            ProbabilityCloud(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_quasi_probabilities_allowed(self):
        cloud = ProbabilityCloud(np.array([[1.2, -0.2], [0.3, 0.7]]))
        assert cloud.span_dim == 2

    def test_points_are_read_only(self):
        cloud = ProbabilityCloud(np.eye(3))
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 0.5

    def test_chart_is_fixed_on_construction(self):
        rng = np.random.default_rng(4)
        points = rng.dirichlet(np.ones(3), 8) @ random_ic_quasi_measurement(5, 3, 2).matrix.T
        cloud = ProbabilityCloud(points)
        assert cloud.chart.shape == (5, 2)
        np.testing.assert_allclose(cloud.chart.T @ cloud.chart, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cloud.base, points.mean(axis=0), atol=1e-15)
        with pytest.raises(ValueError):
            cloud.chart[0, 0] = 0.5
        with pytest.raises(ValueError):
            cloud.base[0] = 0.5
        assert mvee(cloud).chart is cloud.chart
        # a hull that fills the hyperplane gets the canonical basis
        np.testing.assert_array_equal(ProbabilityCloud(np.eye(4)).chart, hyperplane_basis(4))

    def test_chart_matches_the_transposed_svd(self):
        rng = np.random.default_rng(41)
        clouds = [rng.dirichlet(np.ones(n), m)
                  for m, n in ((300, 8), (1000, 12), (8, 8), (12, 12), (5, 12), (9, 12), (2, 5))]
        clouds += [flat_cloud(seed, e) for seed in range(3) for e in np.logspace(-12, -3, 10)]
        clouds += [mixtures(m, n, 3, e, seed) for seed in range(3)
                   for m, n in ((40, 12), (4, 4), (6, 12)) for e in (0.0, 1e-11, 1e-9, 1e-6)]
        for points in clouds:
            chart, _ = _affine_chart(points)
            reference, conditioning = transposed_chart(points)
            assert chart.shape == reference.shape
            # either SVD fixes a kept direction of relative thickness 1/k
            # only to about 1e-16 k, so a thin kept direction widens the bound
            tol = max(1e-12, 1e-14 * conditioning)
            np.testing.assert_allclose(chart @ chart.T, reference @ reference.T,
                                       rtol=0.0, atol=tol)


class TestMvee:
    def test_simplex_gives_centered_ball(self):
        for l in (2, 3, 5, 8):
            e = mvee(ProbabilityCloud(np.eye(l)))
            np.testing.assert_allclose(e.center, np.full(l, 1.0 / l), atol=1e-12)
            np.testing.assert_allclose(
                e.shape, ball_radius(l) ** 2 * np.eye(l - 1), atol=1e-12)
            assert e.iterations == 0 and e.optimality_gap <= 1e-9

    def test_design_union_recovers_ball(self):
        # 12 sphere points plus an interior point: uniform starting weights
        # are no longer optimal, so real update steps run, yet the minimum
        # ellipsoid is still the ball
        rng = np.random.default_rng(14)
        l = 4
        pts = np.vstack([design_union(l, rng, copies=3), np.full((1, l), 1.0 / l)])
        e = mvee(ProbabilityCloud(pts), eps=1e-12)
        assert e.iterations > 0
        assert e.support_weights[-1] == 0.0
        np.testing.assert_allclose(e.center, np.full(l, 1.0 / l), atol=1e-9)
        ambient = e.chart @ e.shape @ e.chart.T
        target = ball_radius(l) ** 2 * (np.eye(l) - np.full((l, l), 1.0 / l))
        np.testing.assert_allclose(ambient, target, atol=1e-9)

    def test_triangle_center_is_centroid(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            pts = rng.standard_normal((3, 3))
            pts += (1.0 - pts.sum(axis=1))[:, None] / 3
            cloud = ProbabilityCloud(pts)
            e = mvee(cloud)
            np.testing.assert_allclose(e.center, pts.mean(axis=0), atol=1e-10)

    def test_triangle_area_is_steiner_circumellipse(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            pts = rng.standard_normal((3, 3))
            pts += (1.0 - pts.sum(axis=1))[:, None] / 3
            e = mvee(ProbabilityCloud(pts))
            area = np.pi * np.sqrt(np.linalg.det(e.shape))
            expected = 4.0 * np.pi / (3.0 * np.sqrt(3.0)) * triangle_area(
                (pts - pts.mean(axis=0)) @ e.chart)
            assert area == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            pts = rng.standard_normal((3, 3))
            pts += (1.0 - pts.sum(axis=1))[:, None] / 3
            e = mvee(ProbabilityCloud(pts))
            chart_pts = (pts - pts.mean(axis=0)) @ e.chart
            center_bf, h_bf = enclosing_ellipse_bruteforce(chart_pts, seed=trial)
            np.testing.assert_allclose(
                (e.center - pts.mean(axis=0)) @ e.chart, center_bf, atol=1e-6)
            area = np.pi * np.sqrt(np.linalg.det(e.shape))
            area_bf = np.pi / np.sqrt(np.linalg.det(h_bf))
            assert area == pytest.approx(area_bf, rel=1e-6)

    def test_contains_all_points(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            cloud = random_cloud(25, 5, rng)
            e = mvee(cloud)
            x = (cloud.points - e.center) @ e.chart
            quad = np.einsum("ij,ji->i", x, np.linalg.solve(e.shape, x.T))
            assert quad.max() <= 1.0 + 1e-7

    def test_shrinking_any_axis_ejects_a_point(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            cloud = random_cloud(12, 4, rng)
            e = mvee(cloud)
            vals, vecs = np.linalg.eigh(e.shape)
            x = (cloud.points - e.center) @ e.chart @ vecs
            for k in range(vals.size):
                shrunk = vals.copy()
                shrunk[k] *= 1.0 - 1e-3
                assert (x * x / shrunk).sum(axis=1).max() > 1.0
            # doubling every axis keeps everything strictly inside
            assert (x * x / (4.0 * vals)).sum(axis=1).max() < 1.0

    def test_equivariant_under_outcome_rotations(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(15, 5, rng, concentration=2.0)
        o = random_stabilizing_orthogonal(5, rng)
        e1 = mvee(cloud)
        e2 = mvee(ProbabilityCloud(cloud.points @ o.T))
        np.testing.assert_allclose(o @ e1.center, e2.center, atol=1e-9)
        np.testing.assert_allclose(o @ e1.chart @ e1.shape @ e1.chart.T @ o.T,
                                   e2.chart @ e2.shape @ e2.chart.T, atol=1e-9)

    def test_support_weights_concentrate_on_hull(self):
        # interior points must end with zero weight
        pts = np.vstack([np.eye(3), np.full((1, 3), 1.0 / 3.0)])
        e = mvee(ProbabilityCloud(pts))
        assert e.support_weights[3] <= 1e-12
        np.testing.assert_allclose(e.support_weights[:3], np.full(3, 1.0 / 3.0),
                                   atol=1e-9)

    def test_no_convergence_carries_partial(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(30, 4, rng)
        with pytest.raises(NoConvergenceError) as info:
            mvee(cloud, eps=1e-9, max_iter=2)
        exc = info.value
        assert exc.iterations == 2
        assert exc.achieved_gap > 1e-9
        assert isinstance(exc.partial, Ellipsoid)
        # the same cloud converges without the cap
        assert mvee(cloud).optimality_gap <= 1e-9

    def test_badly_scaled_chart_converges(self):
        # clouds seen through an IC measurement of condition 9.4e4, where
        # the raw lifted scatter has condition about 4e12: 6 points form a
        # simplex, 12 points need real steps
        a = random_ic_quasi_measurement(6, 6, 6).matrix
        for m in (6, 12):
            for seed in range(3):
                points = np.random.default_rng(seed).dirichlet(np.ones(6), m)
                e = mvee(ProbabilityCloud(points @ a.T), max_iter=20000)
                assert e.optimality_gap <= 1e-9

    def test_gap_is_recomputed_from_scratch(self):
        rng = np.random.default_rng(31)
        for n, m in ((4, 4), (4, 40), (5, 120), (6, 300), (7, 60), (8, 300)):
            cloud = random_cloud(m, n, rng)
            e = mvee(cloud)
            assert e.optimality_gap <= 1e-9
            assert abs(duality_gap_dense(cloud, e.support_weights)
                       - e.optimality_gap) <= 1e-12
        cloud = random_cloud(30, 4, np.random.default_rng(6))
        with pytest.raises(NoConvergenceError) as info:
            mvee(cloud, eps=1e-9, max_iter=2)
        partial = info.value.partial
        assert abs(duality_gap_dense(cloud, partial.support_weights)
                   - partial.optimality_gap) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_returned_gap_is_the_fresh_gap_bit_for_bit(self, seed):
        # about 190 of the 200 points carry weight, more than the 45 whose
        # lifts can be independent: no Newton step is tried, and the last
        # steps are rank-one updates, whose carried gap differs in the last
        # places from the one a fresh inverse gives
        cloud = qutrit_cloud(seed)
        x = chart_coordinates(cloud)
        e = mvee(cloud)
        assert e.optimality_gap == solver_gap(x, e.support_weights)
        with pytest.raises(NoConvergenceError) as info:
            mvee(cloud, max_iter=50)
        partial = info.value.partial
        assert partial.optimality_gap == solver_gap(x, partial.support_weights)

    def test_matches_dense_reference_iteration(self):
        rng = np.random.default_rng(32)
        clouds = [random_cloud(m, n, rng) for m, n in ((20, 4), (60, 5), (150, 6), (300, 8))]
        embedding = StateEmbedding.for_dimension(3)
        states = np.array([embed_density(random_pure_density(3, rng), embedding)
                           for _ in range(200)])
        clouds.append(ProbabilityCloud(states @ random_ic_quasi_measurement(12, 9, 4).matrix.T))
        for cloud in clouds:
            e = mvee(cloud, eps=1e-12)
            center, shape = mvee_dense(cloud, eps=1e-12)
            for actual, expected in ((e.center, center), (e.shape, shape)):
                np.testing.assert_allclose(actual, expected, rtol=0.0,
                                           atol=1e-8 * np.abs(expected).max())

    @pytest.mark.parametrize("cloud, newton", [
        (dirichlet_cloud(300, 8, 1), True),
        (dirichlet_cloud(60, 16, 1), True),
        (dirichlet_cloud(12, 4, 1), True),
        *[(ProbabilityCloud(flat_cloud(0, e)), True) for e in np.logspace(-2, -8, 7)],
        # the optimum rests on 4 points in 3 dimensions, a simplex; the
        # face regime starts at gap 1e-1 on 5 support points, and Newton
        # steps drop the fifth and even out the weights of the other 4
        (ProbabilityCloud(flat_cloud(1, 1e-2)), True),
        # about 190 of the 200 points carry weight: more than 9 * 10 / 2,
        # so their lifts cannot be independent and no Newton step is tried
        (qutrit_cloud(40), False),
    ], ids=["dirichlet-300x8", "dirichlet-60x16", "dirichlet-12x4",
            "flat-1e-2", "flat-1e-3", "flat-1e-4", "flat-1e-5", "flat-1e-6", "flat-1e-7",
            "flat-1e-8", "flat-simplex", "qutrit-200"])
    def test_face_newton_steps_reach_the_dense_optimum(self, cloud, newton, monkeypatch):
        taken = count_face_steps(monkeypatch)
        e = mvee(cloud, eps=1e-12)
        assert any(taken) is newton
        center, shape = mvee_dense(cloud, eps=1e-12)
        for actual, expected in ((e.center, center), (e.shape, shape)):
            np.testing.assert_allclose(actual, expected, rtol=0.0,
                                       atol=1e-8 * np.abs(expected).max())
        assert e.optimality_gap <= 1e-12
        assert abs(duality_gap_dense(cloud, e.support_weights) - e.optimality_gap) <= 1e-12

    @pytest.mark.parametrize("cloud", [dirichlet_cloud(30, 5, 7), dirichlet_cloud(60, 6, 12),
                                       dirichlet_cloud(20, 4, 19)])
    def test_newton_steps_taken_raise_the_log_det(self, cloud, monkeypatch):
        # on these clouds some Newton steps near the optimum measure a rise
        # of at most 0 (rounding), with an invertible Hessian: refused (1, 1
        # and 3 of them); about 1 in 10 random clouds has such a step
        face_newton = inference._face_newton
        rises, refused = [], []

        def spy(lifted, inverse, u, support):
            new = face_newton(lifted, inverse, u, support)
            if new is None:
                refused.append(u)
            else:
                a = lifted[support]
                rises.append(np.linalg.slogdet(inverse @ (a.T @ (new[support, None] * a))))
            return new

        monkeypatch.setattr(inference, "_face_newton", spy)
        assert mvee(cloud).optimality_gap <= 1e-9
        assert refused and rises
        assert all(sign > 0.0 and rise > 0.0 for sign, rise in rises)

    @pytest.mark.parametrize("dim, taken", [(9, True), (12, False)])
    def test_face_newton_on_a_simplex_support(self, dim, taken):
        # on dim affinely independent lifted points A is square, so
        # G = A (A^T W A)^-1 A^T = W^-1 and the Newton step on the face is
        # w -> 2 w - w^2 / sum(w^2).  With w_1 = 0.2 and the other weights
        # equal it keeps every weight positive at dim 9 and is taken; at
        # dim 12 it would make w_1 negative, so it is cut at w_1 = 0, where
        # the other dim - 1 points leave the scatter singular, and refused
        rng = np.random.default_rng(0)
        lifted = np.hstack([rng.standard_normal((dim, dim - 1)), np.ones((dim, 1))])
        u = np.full(dim, 0.8 / (dim - 1))
        u[0] = 0.2
        inverse = np.linalg.inv(lifted.T @ (u[:, None] * lifted))
        closed_form = 2.0 * u - u * u / (u @ u)
        new = inference._face_newton(lifted, inverse, u, np.arange(dim))
        assert bool(closed_form.min() > 0.0) is taken
        if taken:
            np.testing.assert_allclose(new, closed_form, rtol=0.0, atol=1e-14)
        else:
            assert new is None

    def test_max_iter_counts_newton_steps(self, monkeypatch):
        # two rotated simplices on the sphere, one vertex pushed out by 1%:
        # the uniform start is within 1e-2 of the optimum on a support of
        # 10 <= 5 * 6 / 2 points, so every step is a Newton step
        rng = np.random.default_rng(1)
        points = design_union(5, rng)
        points[0] = 0.2 + 1.01 * (points[0] - 0.2)
        cloud = ProbabilityCloud(points)
        taken = count_face_steps(monkeypatch)
        full = mvee(cloud)
        assert taken == [True] * full.iterations
        taken.clear()
        with pytest.raises(NoConvergenceError) as info:
            mvee(cloud, max_iter=3)
        exc = info.value
        assert taken == [True] * 3
        assert exc.iterations == exc.partial.iterations == 3
        assert exc.achieved_gap == exc.partial.optimality_gap > 1e-9
        assert abs(duality_gap_dense(cloud, exc.partial.support_weights)
                   - exc.partial.optimality_gap) <= 1e-12
        result = assemble_result(exc.partial, cloud)
        assert result.iterations == 3
        assert result.optimality_gap == exc.achieved_gap

    def test_newton_steps_keep_the_work_count_low(self):
        # the ascent alone takes about 530 iterations on these clouds, with
        # Newton face steps from gap 1e-1 on about 21; switching at 1e-2
        # takes about 54, so a count above 30 means they start late or stop
        iterations = [mvee(dirichlet_cloud(300, 8, i)).iterations for i in range(1, 21)]
        assert np.mean(iterations) <= 30

    def test_rejects_bad_parameters(self):
        cloud = ProbabilityCloud(np.eye(3))
        with pytest.raises(InvalidInputError):
            mvee(cloud, eps=0.0)
        with pytest.raises(InvalidInputError):
            mvee(cloud, max_iter=0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, eps):
        # a nan target is never met and an infinite one is met before any step
        with pytest.raises(InvalidInputError, match="eps"):
            mvee(dirichlet_cloud(12, 4, 1), eps=eps, max_iter=50)

    def test_asymmetric_shape_rejected(self):
        with pytest.raises(InvalidInputError):
            Ellipsoid(center=np.zeros(3), root=np.array([[1.0, 0.5], [0.0, 1.0]]),
                      chart=np.zeros((3, 2)), support_weights=np.ones(1),
                      optimality_gap=0.0, iterations=0)

    def test_chart_without_orthonormal_columns_rejected(self):
        e = mvee(ProbabilityCloud(np.eye(3)))
        with pytest.raises(InvalidInputError, match="orthonormal"):
            Ellipsoid(center=e.center, root=e.root, chart=2.0 * e.chart,
                      support_weights=e.support_weights,
                      optimality_gap=e.optimality_gap, iterations=e.iterations)


class TestEllipsoidToMeasurement:
    def test_ball_maps_to_identity(self):
        for l in (2, 3, 4, 6):
            cloud = ProbabilityCloud(np.eye(l))
            meas = assemble_result(mvee(cloud), cloud).measurement
            np.testing.assert_allclose(meas.matrix, np.eye(l), atol=1e-12)

    def test_tangent_block_is_symmetric_positive(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            cloud = random_cloud(12, 4, rng)
            e = mvee(cloud)
            meas = assemble_result(e, cloud).measurement
            block = e.chart.T @ meas.matrix @ hyperplane_basis(cloud.span_dim)
            np.testing.assert_allclose(block, block.T, atol=1e-10)
            assert np.linalg.eigvalsh(block)[0] > 0.0

    def test_volume_identity_with_hull_distance(self):
        # det(M^T M) = l * h^2 * det(shape) / r^(2(l-1)) with h the
        # distance from the origin to the cloud's affine hull
        rng = np.random.default_rng(8)
        for trial in range(10):
            n = int(rng.integers(3, 8))
            l = int(rng.integers(2, min(n, 5) + 1))
            m0 = random_ic_quasi_measurement(n, l, rng)
            pts = np.vstack([design_union(l, rng),
                             rng.dirichlet(np.ones(l), 4)]) @ m0.matrix.T
            cloud = ProbabilityCloud(pts)
            e = mvee(cloud)
            meas = assemble_result(e, cloud).measurement
            h_sq = float(e.center @ (e.center - e.chart @ (e.chart.T @ e.center)))
            expected = (cloud.span_dim * h_sq * np.linalg.det(e.shape)
                        / ball_radius(cloud.span_dim) ** (2 * (cloud.span_dim - 1)))
            assert range_volume_sq(meas) == pytest.approx(expected, rel=1e-10)

    def test_rejects_non_enclosing_ellipsoid(self):
        cloud = ProbabilityCloud(np.eye(3))
        e = mvee(cloud)
        small = Ellipsoid(center=e.center, root=0.5 * e.root, chart=e.chart,
                          support_weights=e.support_weights,
                          optimality_gap=e.optimality_gap, iterations=e.iterations)
        with pytest.raises(InvalidInputError):
            assemble_result(small, cloud)


class TestDdiOnBall:
    def test_simplex_cloud_recovers_identity(self):
        result = ddi_on_ball(ProbabilityCloud(np.eye(4)))
        np.testing.assert_allclose(result.measurement.matrix, np.eye(4), atol=1e-12)
        assert result.volume_sq == pytest.approx(1.0, abs=1e-12)
        assert result.design_certificate.is_design
        assert result.iterations == 0

    def test_counter_image_of_design_data_certifies(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            m0 = random_ic_quasi_measurement(6, 4, rng)
            cloud = ProbabilityCloud(design_union(4, rng) @ m0.matrix.T)
            result = ddi_on_ball(cloud)
            assert result.design_certificate.is_design
            assert result.volume_sq == pytest.approx(range_volume_sq(m0), rel=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(result.counter_image.points, axis=1), 1.0, atol=1e-9)

    def test_generic_cloud_is_not_certified(self):
        rng = np.random.default_rng(10)
        result = ddi_on_ball(random_cloud(20, 4, rng))
        assert not result.design_certificate.is_design
        assert result.design_certificate.sphere_deviation > 1e-7
        # the dual-weight frame holds off the sphere too
        assert result.design_certificate.frame_deviation <= 1e-12

    def test_counter_image_recertifies_with_dual_weights(self):
        # pure qubit states through a 6-outcome measurement: a tight
        # optimum whose counter-image is no design under uniform weights
        rng = np.random.default_rng(21)
        embedding = StateEmbedding.for_dimension(2)
        states = np.array([embed_density(random_pure_density(2, rng), embedding)
                           for _ in range(40)])
        cloud = ProbabilityCloud(states @ random_ic_quasi_measurement(6, 4, 3).matrix.T)
        result = ddi_on_ball(cloud)
        assert result.design_certificate.is_design
        points = result.counter_image.points
        uniform = WeightedStateSet(points, np.full(len(points), 1.0 / len(points)))
        assert is_two_design(uniform, 1e-7).frame_deviation > 1e-3
        recheck = is_two_design(result.counter_image, 1e-7)
        assert recheck.is_design
        assert recheck.frame_deviation == pytest.approx(
            result.design_certificate.frame_deviation, abs=1e-12)
        np.testing.assert_array_equal(result.counter_image.weights, mvee(cloud).support_weights)

    def test_result_serializes(self):
        result = ddi_on_ball(ProbabilityCloud(np.eye(3)))
        obj = result.to_dict()
        assert obj["volume_sq"] == pytest.approx(1.0, abs=1e-12)
        assert obj["design_certificate"]["is_design"] is True
        assert obj["measurement"]["n"] == 3
        assert "gauge_note" in obj and "optimality_gap" in obj


class TestClosedForm:
    def test_agrees_with_iterative_route(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            l = int(rng.integers(2, 6))
            pts = rng.dirichlet(np.ones(l), l)
            try:
                cloud = ProbabilityCloud(pts)
            except DegenerateInputError:
                continue
            if cloud.span_dim != l:
                continue
            closed = ddi_closed_form(cloud)
            full = ddi_on_ball(cloud)
            assert closed.volume_sq == pytest.approx(full.volume_sq, rel=1e-10)
            assert closed.iterations == 0 and closed.optimality_gap == 0.0
            assert closed.design_certificate.is_design

    def test_columns_are_the_distributions(self):
        cloud = ProbabilityCloud(np.array([[0.5, 0.5, 0.0],
                                           [0.0, 0.5, 0.5],
                                           [0.5, 0.0, 0.5]]))
        closed = ddi_closed_form(cloud)
        np.testing.assert_array_equal(closed.measurement.matrix, cloud.points.T)
        assert closed.volume_sq == pytest.approx(0.0625, rel=1e-13)

    def test_rejects_wrong_cardinality(self):
        with pytest.raises(NotClosedFormCaseError):
            ddi_closed_form(ProbabilityCloud(np.vstack([np.eye(3),
                                                        np.full((1, 3), 1 / 3)])))


class TestFeasibility:
    def test_enclosing_samples_are_feasible(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(10, 4, rng)
        for trial in range(10):
            meas = sample_enclosing_measurement(cloud, rng)
            assert feasibility_check(meas, cloud, 1e-8)

    def test_too_small_range_is_infeasible(self):
        # identity's range is the ball; points outside cannot be explained
        cloud = ProbabilityCloud(np.array([[1.4, -0.4, 0.0],
                                           [0.0, 1.4, -0.4],
                                           [-0.4, 0.0, 1.4]]))
        assert not feasibility_check(validate(np.eye(3)), cloud, 1e-8)

    def test_requires_informational_completeness(self):
        cloud = ProbabilityCloud(np.eye(2))
        with pytest.raises(InvalidInputError):
            feasibility_check(validate(np.diag([1.0, 0.0])), cloud)

    def test_matches_the_per_point_ball_membership(self):
        # the loop feasibility_check replaced, kept as its reference
        def per_point(meas, cloud, tol):
            counter = cloud.points @ meas.pinv().T
            if np.abs(counter @ meas.matrix.T - cloud.points).max() > tol:
                return False
            return all(ball_membership(s, tol) for s in counter)

        rng = np.random.default_rng(13)
        inside = random_cloud(10, 4, rng)
        outside = ProbabilityCloud(np.array([[1.4, -0.4, 0.0],
                                             [0.0, 1.4, -0.4],
                                             [-0.4, 0.0, 1.4]]))
        # columns summing to 1 + 1e-6 pull every counter-image off the hyperplane by 1e-6
        off_plane = QuasiMeasurement(matrix=np.eye(3) * (1.0 + 1e-6))
        cases = [(sample_enclosing_measurement(inside, rng), inside, 1e-8)
                 for _ in range(5)]
        cases += [(validate(np.eye(3)), outside, 1e-8),
                  (validate(np.eye(3)), ProbabilityCloud(np.eye(3)), 1e-8),
                  (off_plane, ProbabilityCloud(np.eye(3)), 1e-8),
                  (off_plane, ProbabilityCloud(np.eye(3)), 1e-5)]
        verdicts = [feasibility_check(meas, cloud, tol) for meas, cloud, tol in cases]
        assert verdicts == [per_point(meas, cloud, tol) for meas, cloud, tol in cases]
        assert verdicts == [True] * 5 + [False, True, False, True]


class TestVolumeBound:
    def test_stretch_example_matches_hand_computation(self):
        report = design_volume_bound_check(validate(STRETCH2), regular_simplex(2))
        assert report
        assert report.gram_det == pytest.approx(4.0, rel=1e-12)
        assert report.trace_gap == pytest.approx(-0.75, abs=1e-12)

    def test_orthogonal_members_achieve_equality(self):
        for l in (2, 3, 5):
            o = random_stabilizing_orthogonal(l, seed=l)
            report = design_volume_bound_check(validate(o), regular_simplex(l))
            assert report.gram_det == pytest.approx(1.0, abs=1e-12)
            assert report.trace_gap == pytest.approx(0.0, abs=1e-12)

    def test_random_enclosing_squares_satisfy_bound(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            l = int(rng.integers(2, 7))
            design = rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng))
            meas = sample_enclosing_square(design.points, rng)
            report = design_volume_bound_check(meas, design)
            assert report.gram_det >= 1.0 - 1e-9
            assert report.trace_gap <= 1e-9

    def test_rejects_non_design(self):
        off = WeightedStateSet(points=np.eye(3)[:2], weights=np.array([0.5, 0.5]))
        with pytest.raises(PreconditionViolatedError):
            design_volume_bound_check(validate(np.eye(3)), off)

    def test_rejects_non_enclosing(self):
        # shrinking the tangent direction pushes counter-images out of the ball
        shrink = np.array([[0.75, 0.25], [0.25, 0.75]])
        with pytest.raises(PreconditionViolatedError):
            design_volume_bound_check(validate(shrink), regular_simplex(2))

    def test_rejects_rectangular(self):
        meas = random_ic_quasi_measurement(4, 3, seed=0)
        with pytest.raises(InvalidInputError):
            design_volume_bound_check(meas, regular_simplex(3))


class TestCompositionBijection:
    def test_passes_for_enclosing_measurement(self):
        rng = np.random.default_rng(14)
        base = rng.dirichlet(np.ones(3), 8)
        m0 = random_ic_quasi_measurement(5, 3, rng)
        cloud = ProbabilityCloud(base @ m0.matrix.T)
        assert composition_bijection_check(m0, cloud, samples=20, seed=0)

    def test_rejects_cloud_outside_range(self):
        rng = np.random.default_rng(15)
        base = rng.dirichlet(np.ones(3), 8)
        m0 = random_ic_quasi_measurement(5, 3, rng)
        other = random_ic_quasi_measurement(5, 3, rng)
        cloud = ProbabilityCloud(base @ other.matrix.T)
        with pytest.raises(InvalidInputError):
            composition_bijection_check(m0, cloud, samples=5)


class TestRoundTrip:
    def test_recovers_volume_and_design(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            meas = random_ic_quasi_measurement(6, 4, rng)
            report = inference_round_trip(meas)
            assert report.relative_gap <= 1e-9
            assert report.closed_form_gap <= 1e-12
            assert report.design_certificate.is_design
            assert report.feasible

    def test_closed_form_gap_sees_a_volume_preserving_shear(self, monkeypatch):
        # S = I + a b^T / 2 with a, b and u pairwise orthogonal: det S = 1 and
        # u^T S = u^T, so the sheared measurement keeps its volume and its
        # column sums, but it is not the input up to the gauge
        a, b = np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, -1.0])
        shear = np.eye(4) + 0.5 * np.outer(a, b)
        solve = verify.ddi_on_ball

        def sheared(*args):
            result = solve(*args)
            return dataclasses.replace(
                result, measurement=QuasiMeasurement(result.measurement.matrix @ shear))

        monkeypatch.setattr(verify, "ddi_on_ball", sheared)
        rng = np.random.default_rng(16)
        for trial in range(5):
            meas = random_ic_quasi_measurement(6, 4, rng)
            report = inference_round_trip(meas)
            volume = range_volume_sq(validate(meas.matrix @ shear))
            assert report.relative_gap <= 1e-9
            assert abs(volume / report.expected_volume_sq - 1.0) <= 1e-12
            assert report.closed_form_gap > 1e-6

    def test_feasible_reads_the_returned_counter_image(self, monkeypatch):
        # the measurement shrunk toward its center, M' = 0.9 M + 0.1 c u^T with
        # c = M u / l, keeps its column sums but no longer maps the returned
        # counter-image onto the cloud
        solve = verify.ddi_on_ball

        def shrunk(*args):
            result = solve(*args)
            matrix = result.measurement.matrix
            center = matrix.mean(axis=1)
            return dataclasses.replace(
                result, measurement=QuasiMeasurement(0.9 * matrix + 0.1 * center[:, None]))

        monkeypatch.setattr(verify, "ddi_on_ball", shrunk)
        rng = np.random.default_rng(19)
        for trial in range(5):
            assert inference_round_trip(random_ic_quasi_measurement(6, 4, rng)).feasible is False

    def test_feasible_agrees_with_the_pseudoinverse_check(self):
        # the inputs of acceptance check 06
        rng = np.random.default_rng(606)
        for n, l in ((4, 3), (6, 4), (8, 5), (10, 6)):
            for trial in range(25):
                meas = random_ic_quasi_measurement(n, l, rng)
                cloud = ProbabilityCloud(meas.matrix.T)
                expected = feasibility_check(ddi_on_ball(cloud).measurement, cloud, 1e-6)
                assert inference_round_trip(meas).feasible is expected is True

    def test_perturbed_counter_images_cost_volume(self):
        rng = np.random.default_rng(17)
        meas = random_ic_quasi_measurement(5, 3, rng)
        report = inference_round_trip(meas, perturbations=5, seed=3)
        assert len(report.perturbed_excess) == 5
        assert all(excess > 0.0 for excess in report.perturbed_excess)
        assert all(dev >= 1e-3 for dev in report.perturbed_deviation)

    def test_requires_informational_completeness(self):
        with pytest.raises(InvalidInputError):
            inference_round_trip(validate(np.diag([1.0, 0.0])))


class TestCloudJson:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(18)
        cloud = random_cloud(6, 4, rng)
        again = cloud_from_dict(cloud_to_dict(cloud))
        np.testing.assert_array_equal(cloud.points, again.points)

    def test_rejects_ragged_input(self):
        with pytest.raises(InvalidInputError):
            cloud_from_dict({"n": 3, "distributions": [[1.0, 0.0], [0.0, 1.0]]})
