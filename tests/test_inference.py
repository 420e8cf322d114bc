import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from ddi import (
    DEFAULT_TOL,
    DegenerateInputError,
    Ellipsoid,
    InvalidInputError,
    NoConvergenceError,
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
    is_informationally_complete,
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
    count_linalg_calls,
    duality_gap_dense,
    enclosing_ellipse_bruteforce,
    flat_cloud,
    mvee_dense,
    random_pure_density,
    simplex_ellipsoid_svd,
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


def simplex_support(dim):
    """``dim`` affinely independent lifted points, their weights and inverse scatter.

    Point 0 weighs 0.2 and the others 0.8 / (dim - 1) each.
    """
    rng = np.random.default_rng(0)
    lifted = np.hstack([rng.standard_normal((dim, dim - 1)), np.ones((dim, 1))])
    u = np.full(dim, 0.8 / (dim - 1))
    u[0] = 0.2
    return lifted, np.linalg.inv(lifted.T @ (u[:, None] * lifted)), u


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

    def test_admitted_rows_are_moved_onto_the_hyperplane(self):
        # each row moves along the all-ones direction, p + (1 - sum p) / n,
        # so its sum is 1 up to rounding; a row summing to 1 keeps its bits
        points = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5 + 3e-6], [0.2, 0.3, 0.5 - 6e-6]])
        cloud = ProbabilityCloud(points, sum_tol=1e-5)
        np.testing.assert_array_equal(cloud.points[0], points[0])
        np.testing.assert_allclose(cloud.points[1:], points[1:] + [[-1e-6], [2e-6]],
                                   rtol=0.0, atol=1e-15)
        assert np.abs(cloud.points.sum(axis=1) - 1.0).max() <= 1e-15

    def test_rejects_rank_one(self):
        with pytest.raises(DegenerateInputError):
            ProbabilityCloud(np.array([[0.5, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("points", [np.ones(3) / 3, np.ones((2, 1)), np.empty((0, 3))],
                             ids=["vector", "one-outcome", "no-rows"])
    def test_rejects_arrays_that_are_no_rows_of_distributions(self, points):
        with pytest.raises(InvalidInputError, match=r"cloud must be an \(m, n\) array"):
            ProbabilityCloud(points)

    @pytest.mark.parametrize("row", [[np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0],
                                     [np.inf, -np.inf, 1.0]])
    def test_rejects_non_finite_entries(self, row):
        with pytest.raises(InvalidInputError, match="finite"):
            ProbabilityCloud(np.array([row, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_a_finite_row_whose_sum_overflows_misses_the_sum(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            ProbabilityCloud(np.array([[1e308, 1e308, -1e308], [0.0, 1.0, 0.0]]))

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
            chart, _, sv, right = _affine_chart(points)
            reference, conditioning = transposed_chart(points)
            assert chart.shape == reference.shape == right.shape
            assert sv.shape == (chart.shape[1],)
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
        assert isinstance(exc.partial, Ellipsoid)
        assert exc.partial.iterations == 2
        assert exc.partial.optimality_gap > 1e-9
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

    @pytest.mark.parametrize("cloud, partial_at", [
        # about 190 of the 200 points carry weight, more than the 45 whose
        # lifts can be independent: no Newton step is tried, and the last
        # steps are rank-one updates, whose carried gap differs in the last
        # places from the one a fresh inverse gives
        *[(qutrit_cloud(seed), (3, 15, 50)) for seed in (0, 1, 2)],
        # uniform weights are optimal: the first pass stops at them, with
        # no iteration, so there is no partial to check
        (ProbabilityCloud(design_union(5, np.random.default_rng(1))), ()),
        # finished by Newton steps on the support's face after 16 iterations
        (dirichlet_cloud(300, 8, 1), (3, 15)),
    ], ids=["qutrit-0", "qutrit-1", "qutrit-2", "design-union", "dirichlet-300x8"])
    def test_returned_gap_is_the_fresh_gap_bit_for_bit(self, cloud, partial_at):
        x = chart_coordinates(cloud)
        e = mvee(cloud)
        assert e.optimality_gap == solver_gap(x, e.support_weights)
        for max_iter in partial_at:
            with pytest.raises(NoConvergenceError) as info:
                mvee(cloud, max_iter=max_iter)
            partial = info.value.partial
            assert partial.iterations == max_iter
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
        # near the optimum a step's rise can fall below what slogdet
        # resolves and be refused; whether one is depends on rounding, so
        # the refusal branch has its own tests below, and here every step
        # taken must have raised the log det
        face_newton = inference._face_newton
        rises = []

        def spy(lifted, inverse, u, support):
            new = face_newton(lifted, inverse, u, support)
            if new is not None:
                a = lifted[support]
                rises.append(np.linalg.slogdet(inverse @ (a.T @ (new[support, None] * a))))
            return new

        monkeypatch.setattr(inference, "_face_newton", spy)
        assert mvee(cloud).optimality_gap <= 1e-9
        assert rises
        assert all(sign > 0.0 and rise > 0.0 for sign, rise in rises)

    @pytest.mark.parametrize("dim, taken", [(9, True), (12, False)])
    def test_face_newton_on_a_simplex_support(self, dim, taken):
        # on dim affinely independent lifted points A is square, so
        # G = A (A^T W A)^-1 A^T = W^-1 and the Newton step on the face is
        # w -> 2 w - w^2 / sum(w^2).  With w_1 = 0.2 and the other weights
        # equal it keeps every weight positive at dim 9 and is taken; at
        # dim 12 it would make w_1 negative, so it is cut at w_1 = 0, where
        # the other dim - 1 points leave the scatter singular, and refused
        lifted, inverse, u = simplex_support(dim)
        closed_form = 2.0 * u - u * u / (u @ u)
        new = inference._face_newton(lifted, inverse, u, np.arange(dim))
        assert bool(closed_form.min() > 0.0) is taken
        if taken:
            np.testing.assert_allclose(new, closed_form, rtol=0.0, atol=1e-14)
        else:
            assert new is None

    @pytest.mark.parametrize("dim", [9, 12], ids=["taken", "refused"])
    def test_a_newton_attempt_takes_one_solve_and_one_slogdet(self, dim, monkeypatch):
        # the KKT system is one solve with two right-hand sides, and the
        # acceptance test one slogdet; there is no factor to invert
        lifted, inverse, u = simplex_support(dim)
        names = ("solve", "slogdet", "cholesky", "inv", "lstsq")
        counts = count_linalg_calls(monkeypatch, *names)
        inference._face_newton(lifted, inverse, u, np.arange(dim))
        assert counts == {**dict.fromkeys(names, 0), "solve": 1, "slogdet": 1}

    @pytest.mark.parametrize("reported", [
        (1.0, 0.0), (1.0, -2.2e-16), (1.0, -np.inf), (-1.0, 1.0), (0.0, 1.0),
        (1.0, np.nan), (np.nan, 1.0), (np.nan, np.nan),
    ], ids=["zero", "rounding", "singular", "negative-sign", "zero-sign",
            "nan-rise", "nan-sign", "nan-both"])
    def test_face_newton_refuses_a_rise_slogdet_does_not_confirm(self, reported, monkeypatch):
        # the step below is taken (test above); a rise that reads <= 0, a
        # sign that is not +1 and a NaN in either all refuse it
        lifted, inverse, u = simplex_support(9)
        monkeypatch.setattr(np.linalg, "slogdet", lambda matrix: reported)
        assert inference._face_newton(lifted, inverse, u, np.arange(9)) is None

    def test_max_iter_counts_newton_steps(self, monkeypatch):
        # two rotated simplices on the sphere, one vertex pushed out by 1%:
        # the uniform start is within 1e-2 of the optimum on a support of
        # 10 <= 5 * 6 / 2 points, so every step is a Newton attempt; the
        # last one sits at gap 1.8e-8, where the true rise is below what
        # slogdet resolves, so whether it is taken or left to an ordinary
        # step is rounding; every earlier one is taken
        rng = np.random.default_rng(1)
        points = design_union(5, rng)
        points[0] = 0.2 + 1.01 * (points[0] - 0.2)
        cloud = ProbabilityCloud(points)
        taken = count_face_steps(monkeypatch)
        full = mvee(cloud)
        assert len(taken) == full.iterations and all(taken[:-1])
        taken.clear()
        with pytest.raises(NoConvergenceError) as info:
            mvee(cloud, max_iter=3)
        exc = info.value
        assert taken == [True] * 3
        assert exc.partial.iterations == 3
        assert exc.partial.optimality_gap > 1e-9
        assert abs(duality_gap_dense(cloud, exc.partial.support_weights)
                   - exc.partial.optimality_gap) <= 1e-12
        result = assemble_result(exc.partial, cloud)
        assert result.iterations == 3
        assert result.optimality_gap == exc.partial.optimality_gap

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

    @pytest.mark.parametrize("max_iter", [
        float("inf"), float("nan"), 2.5, True, np.True_, -1, "3", None,
    ], ids=["inf", "nan", "fraction", "true", "numpy-true", "negative", "string", "none"])
    def test_rejects_a_max_iter_that_is_not_a_whole_number(self, max_iter):
        # int() would raise on inf and nan, and run 2 steps for 2.5 and 1 for True
        with pytest.raises(InvalidInputError, match="max_iter must be a whole number"):
            mvee(dirichlet_cloud(30, 4, 1), max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [3, 3.0, np.int64(3), np.int32(3)],
                             ids=["int", "float", "int64", "int32"])
    def test_a_whole_max_iter_caps_the_steps(self, max_iter):
        with pytest.raises(NoConvergenceError) as info:
            mvee(dirichlet_cloud(30, 4, 1), max_iter=max_iter)
        assert info.value.partial.iterations == 3

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_non_finite_eps(self, eps):
        # a nan target is never met and an infinite one is met before any step
        with pytest.raises(InvalidInputError, match="eps"):
            mvee(dirichlet_cloud(12, 4, 1), eps=eps, max_iter=50)

    @pytest.mark.parametrize("eps", [True, np.True_, "1e-9", None, 1e-9 + 0j],
                             ids=["true", "numpy-true", "string", "none", "complex"])
    def test_rejects_an_eps_that_is_no_real_number(self, eps):
        # True would run as 1.0 and return the start weights as converged
        with pytest.raises(InvalidInputError, match="eps must be a positive, finite real"):
            mvee(dirichlet_cloud(30, 4, 1), eps=eps)

    def test_non_orthonormal_axes_rejected(self):
        e = mvee(ProbabilityCloud(np.eye(3)))
        with pytest.raises(InvalidInputError, match="axes must have orthonormal"):
            Ellipsoid(center=e.center, axes=np.array([[1.0, 0.5], [0.0, 1.0]]),
                      semi_axes=e.semi_axes, chart=e.chart,
                      support_weights=e.support_weights,
                      optimality_gap=e.optimality_gap, iterations=e.iterations)

    def test_chart_without_orthonormal_columns_rejected(self):
        e = mvee(ProbabilityCloud(np.eye(3)))
        with pytest.raises(InvalidInputError, match="chart must have orthonormal"):
            Ellipsoid(center=e.center, axes=e.axes, semi_axes=e.semi_axes,
                      chart=2.0 * e.chart, support_weights=e.support_weights,
                      optimality_gap=e.optimality_gap, iterations=e.iterations)

    @pytest.mark.parametrize("fields", [
        # unchecked, each would fail inside assemble_result with a numpy
        # error, or pass its containment test on NaN quadratics
        {"axes": np.eye(2)},
        {"center": np.full(2, 0.25)},
        {"axes": np.full((3, 3), np.nan)},
        {"semi_axes": np.ones(2)},
        {"semi_axes": np.array([1.0, np.nan, 1.0])},
        {"semi_axes": np.array([1.0, np.inf, 1.0])},
        {"center": np.array([0.25, np.inf, 0.25, 0.5])},
        {"center": np.array([0.25, np.nan, 0.25, 0.5])},
        {"chart": np.full((4, 3), np.nan)},
        {"chart": np.zeros(4)},
        # a NaN gap would also reach to_dict, and so the CLI's JSON, as a bare NaN
        {"optimality_gap": float("nan")},
        {"optimality_gap": float("inf")},
        {"optimality_gap": -1.0},
        {"iterations": -1},
    ], ids=["axes-2x2", "center-2", "axes-nan", "semi-axes-2", "semi-axes-nan",
            "semi-axes-inf", "center-inf", "center-nan", "chart-nan", "chart-1d",
            "gap-nan", "gap-inf", "gap-negative", "iterations-negative"])
    def test_fields_that_describe_no_ellipsoid_are_refused(self, fields):
        e = mvee(dirichlet_cloud(10, 4, 1))
        with pytest.raises(InvalidInputError, match="ellipsoid"):
            dataclasses.replace(e, **fields)

    def test_construction_takes_no_cholesky_factor(self, monkeypatch):
        e = mvee(dirichlet_cloud(10, 4, 1))
        counts = count_linalg_calls(monkeypatch, "cholesky")
        dataclasses.replace(e, semi_axes=2.0 * e.semi_axes)
        assert counts["cholesky"] == 0


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

    def test_leaves_the_support_weights_writeable(self):
        cloud = random_cloud(12, 4, np.random.default_rng(21))
        ellipsoid = mvee(cloud)
        result = assemble_result(ellipsoid, cloud)
        assert ellipsoid.support_weights.flags.writeable
        assert not result.counter_image.weights.flags.writeable

    def test_never_factorizes_the_measurement(self, monkeypatch):
        # the volume comes from K; the measurement's own SVD waits for a reader
        cloud = random_cloud(12, 4, np.random.default_rng(22))
        result = ddi_on_ball(cloud)
        assert "_svd" not in vars(result.measurement)
        counts = count_linalg_calls(monkeypatch, "svd")
        assert range_volume_sq(result.measurement) == pytest.approx(result.volume_sq, rel=1e-12)
        assert counts["svd"] == 1

    def test_assembly_takes_one_svd_and_no_solve(self, monkeypatch):
        # the inverse of the root is read off the ellipsoid's axes
        cloud = random_cloud(12, 4, np.random.default_rng(22))
        ellipsoid = mvee(cloud)
        counts = count_linalg_calls(monkeypatch, "svd", "solve")
        assemble_result(ellipsoid, cloud)
        assert counts == {"svd": 1, "solve": 0}

    def test_simplex_solve_takes_two_svds(self, monkeypatch):
        # the chart's, which holds the support's axes, and K's singular values
        points = random_ic_quasi_measurement(12, 9, seed=3).matrix.T
        names = ("svd", "solve", "cholesky", "qr", "inv", "lstsq", "eigvalsh")
        counts = count_linalg_calls(monkeypatch, *names)
        ddi_on_ball(ProbabilityCloud(points))
        assert counts == {**dict.fromkeys(names, 0), "svd": 2}

    @pytest.mark.parametrize("thin, off", [(1e-6, 5e-10), (1e-7, 1e-10), (1e-7, 5e-10)])
    def test_simplex_with_a_row_sum_off_by_the_tolerance(self, thin, off):
        # the offset tilts the thin centered direction off the hyperplane, so
        # axes read off the centered SVD, not its hyperplane part, are not
        # orthonormal in the canonical chart
        points = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                           [0.25 + thin + off, 0.5 - 2.0 * thin, 0.25 + thin]])
        cloud = ProbabilityCloud(points)
        e = mvee(cloud)
        _, axes, semi_axes = simplex_ellipsoid_svd(cloud)
        np.testing.assert_array_equal(cloud.chart, hyperplane_basis(3))
        np.testing.assert_allclose(e.semi_axes, semi_axes, rtol=1e-9)
        np.testing.assert_allclose(e.root, (axes * semi_axes) @ axes.T,
                                   rtol=0.0, atol=1e-12 * semi_axes[0])

    def test_rejects_an_ellipsoid_of_another_cloud(self):
        # both clouds span 3 dimensions, in 3 and in 4 outcomes
        ellipsoid = mvee(ProbabilityCloud(np.eye(3)))
        with pytest.raises(InvalidInputError, match="chart does not match"):
            assemble_result(ellipsoid, ProbabilityCloud(np.eye(4)[:3]))

    def test_rejects_non_enclosing_ellipsoid(self):
        cloud = ProbabilityCloud(np.eye(3))
        e = mvee(cloud)
        small = Ellipsoid(center=e.center, axes=e.axes, semi_axes=0.5 * e.semi_axes,
                          chart=e.chart, support_weights=e.support_weights,
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

    def test_certificate_is_computed_once_on_first_read(self, monkeypatch):
        calls = []
        certify = inference.certify_design

        def counted(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(inference, "certify_design", counted)
        rng = np.random.default_rng(22)
        result = ddi_on_ball(random_cloud(20, 4, rng), design_tol=1e-6)
        assert calls == []
        assert result.design_tol == 1e-6
        certificate = result.design_certificate
        assert certificate == certify(result.counter_image, 1e-6)
        assert result.design_certificate is certificate and len(calls) == 1
        # a replaced result is a new result, certified afresh
        loose = dataclasses.replace(result, design_tol=1.0)
        assert len(calls) == 1
        assert loose.design_certificate == certify(result.counter_image, 1.0)
        assert loose.design_certificate.is_design and not certificate.is_design
        assert len(calls) == 2
        assert result.to_dict()["design_certificate"] == certificate.to_dict()
        assert len(calls) == 2

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
        with pytest.raises(InvalidInputError, match="closed form needs exactly span_dim=3"):
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
        # a loose reproduction tolerance does not loosen the rank cut
        with pytest.raises(InvalidInputError):
            feasibility_check(validate(np.diag([1.0, 0.0])), cloud, 1.0)

    def test_completeness_is_cut_at_the_pseudoinverse_cut(self):
        # sv[-1] / sv[0] = 5e-9: complete at DEFAULT_TOL (1e-9), the cut the
        # pseudoinverse applies, though not at the tolerance of 1e-8, which
        # sets only the reproduction and ball slack
        matrix = np.array([[1.0, 1.0 - 1e-8], [0.0, 1e-8]])
        meas = validate(matrix)
        assert not is_informationally_complete(meas, tol=1e-8)
        assert feasibility_check(meas, ProbabilityCloud(matrix.T.copy()), 1e-8)

    def test_factorizes_each_fresh_measurement_once(self, monkeypatch):
        rng = np.random.default_rng(20)
        cloud = random_cloud(10, 4, rng)
        matrices = [sample_enclosing_measurement(cloud, rng).matrix for _ in range(5)]
        counts = count_linalg_calls(monkeypatch, "svd", "pinv", "lstsq")
        for matrix in matrices:
            before = counts["svd"]
            assert feasibility_check(QuasiMeasurement(matrix), cloud, 1e-8)
            assert counts["svd"] - before == 1
        assert counts["pinv"] == counts["lstsq"] == 0

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
        with pytest.raises(InvalidInputError, match="not a certified 2-design"):
            design_volume_bound_check(validate(np.eye(3)), off)

    def test_rejects_non_enclosing(self):
        # shrinking the tangent direction pushes counter-images out of the ball
        shrink = np.array([[0.75, 0.25], [0.25, 0.75]])
        with pytest.raises(InvalidInputError, match="does not enclose the design"):
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

    def test_requires_columns_spanning_all_dimensions(self):
        # two columns 2e-9 apart: the rank tests of validate and range_volume_sq
        # pass, but the cloud's chart drops their difference, so the cloud is
        # not a simplex and its solve would not be the input measurement's
        rng = np.random.default_rng(12)
        m = rng.dirichlet(np.ones(6), size=4).T
        m[:, 3] = m[:, 2] + 2e-9 * np.array([1, -1, 0, 0, 0, 0]) / np.sqrt(2)
        meas = validate(m)
        assert is_informationally_complete(meas) and range_volume_sq(meas) > 0.0
        assert ProbabilityCloud(m.T).span_dim == 3
        with pytest.raises(InvalidInputError, match="spanning all l=4 dimensions, one spans 3"):
            inference_round_trip(meas)

    def test_requires_perturbed_clouds_spanning_all_dimensions(self, monkeypatch):
        # a perturbed simplex with a repeated point spans one dimension less
        def repeated(l, count, rng):
            points = np.tile(np.eye(l), (count, 1, 1))
            points[:, -1] = points[:, 0]
            return points, np.ones(count)

        monkeypatch.setattr(verify, "_perturbed_simplices", repeated)
        meas = random_ic_quasi_measurement(6, 4, 1)
        assert inference_round_trip(meas).perturbed_excess == ()
        with pytest.raises(InvalidInputError, match="spanning all l=4 dimensions, one spans 3"):
            inference_round_trip(meas, perturbations=1)

    @pytest.mark.parametrize("perturbations", [-1, 2.7, True, "3", None, float("nan")])
    def test_refuses_perturbations_that_are_no_whole_count(self, perturbations):
        meas = random_ic_quasi_measurement(5, 3, 2)
        with pytest.raises(InvalidInputError, match="perturbations must be a whole number >= 0"):
            inference_round_trip(meas, perturbations=perturbations)

    def test_reads_a_whole_float_as_a_count(self):
        meas = random_ic_quasi_measurement(5, 3, 2)
        assert inference_round_trip(meas, perturbations=2.0, seed=4) == inference_round_trip(
            meas, perturbations=2, seed=4)
        assert len(inference_round_trip(meas, perturbations=2.0).perturbed_excess) == 2

    def test_refuses_perturbations_at_l_2_before_drawing(self):
        # the pure states of l = 2 are two points, so no kick misses the design
        meas = random_ic_quasi_measurement(3, 2, 1)
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateInputError, match="at l = 2 the pure states are two points"):
            inference_round_trip(meas, perturbations=1, seed=rng)
        assert rng.bit_generator.state == state
        assert inference_round_trip(meas, seed=rng).perturbed_excess == ()

    def test_only_the_unperturbed_solve_is_certified(self, monkeypatch):
        # the perturbed solves are read for their volume alone
        calls = []
        certify = inference.certify_design

        def counted(*args):
            calls.append(1)
            return certify(*args)

        monkeypatch.setattr(inference, "certify_design", counted)
        meas = random_ic_quasi_measurement(12, 9, 1)
        report = inference_round_trip(meas, perturbations=3, seed=1)
        assert len(calls) == 1 and report.design_certificate.is_design
        assert report.design_certificate.tol_used == 1e-7

    def test_linalg_work_of_one_simulate_trial(self, monkeypatch):
        # one SVD for the input measurement, read by the sampler's rank test,
        # the expected volume and the gauge fit; two per solve (the chart, whose
        # SVD gives the root, and K); one eigvalsh for the perturbed simplices'
        # stacked frames, which gives both their rank and design tests, and one
        # for the certificate of the unperturbed solve
        counts = count_linalg_calls(monkeypatch, "svd", "pinv", "lstsq", "eigvalsh")
        meas = random_ic_quasi_measurement(12, 9, 1)
        inference_round_trip(meas, perturbations=3, seed=1)
        assert counts == {"svd": 9, "pinv": 0, "lstsq": 0, "eigvalsh": 2}


class TestCloudJson:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(18)
        cloud = random_cloud(6, 4, rng)
        again = cloud_from_dict(cloud_to_dict(cloud))
        np.testing.assert_array_equal(cloud.points, again.points)

    def test_rejects_ragged_input(self):
        with pytest.raises(InvalidInputError):
            cloud_from_dict({"n": 3, "distributions": [[1.0, 0.0], [0.0, 1.0]]})

    @pytest.mark.parametrize("obj", [
        [[1.0, 0.0], [0.0, 1.0]],
        {"distributions": [[1.0, 0.0], [0.0, 1.0]]},
        {"n": 2, "distributions": [[1.0, 0.0], [0.0]]},
        {"n": 2, "distributions": [["1", "0"], ["0", "1"]]},
        {"n": 2, "distributions": [[1.0, None], [0.0, 1.0]]},
        {"n": 2, "distributions": [[10 ** 400, 0], [0, 1]]},
    ], ids=["not-a-mapping", "missing-key", "ragged", "strings", "null", "huge-integer"])
    def test_rejects_malformed_layout(self, obj):
        with pytest.raises(InvalidInputError, match="^malformed cloud object: "):
            cloud_from_dict(obj)


def test_the_readme_library_example_prints_what_it_says():
    # the README's Python block, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    volume, is_design = out.getvalue().splitlines()[:2]
    assert float(volume) == pytest.approx(0.0625, rel=1e-12)
    assert is_design == "True"
