import numpy as np
import pytest

from ddi import (
    DegenerateInputError,
    InvalidInputError,
    WeightedStateSet,
    design_weights,
    frame_operator,
    haar_average_estimate,
    hyperplane_basis,
    is_two_design,
    random_stabilizing_orthogonal,
    regular_simplex,
    rotate_set,
)
from ddi import verify
from ddi.designs import certify_design, state_set_from_dict, state_set_to_dict

from helpers import count_linalg_calls


def union(sets_and_weights):
    points = np.vstack([s.points for s, _ in sets_and_weights])
    weights = np.concatenate([s.weights * w for s, w in sets_and_weights])
    return WeightedStateSet(points=points, weights=weights)


class TestWeightedStateSet:
    def test_rejects_bad_weight_sum(self):
        with pytest.raises(InvalidInputError):
            WeightedStateSet(points=np.eye(3), weights=np.array([0.5, 0.5, 0.5]))

    def test_rejects_weights_of_another_length(self):
        with pytest.raises(InvalidInputError, match="match the number of points"):
            WeightedStateSet(points=np.eye(3), weights=np.array([0.5, 0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidInputError):
            WeightedStateSet(points=np.eye(2), weights=np.array([1.5, -0.5]))

    @pytest.mark.parametrize("points", [np.ones(3) / 3, np.ones((1, 1)), np.empty((0, 3))],
                             ids=["vector", "one-coordinate", "no-rows"])
    def test_rejects_points_that_are_no_rows_of_states(self, points):
        with pytest.raises(InvalidInputError, match=r"points must form an \(m, l\) array"):
            WeightedStateSet(points=points, weights=np.ones(1))

    def test_rejects_off_hyperplane_points(self):
        with pytest.raises(InvalidInputError):
            WeightedStateSet(points=np.array([[0.5, 0.4], [0.5, 0.5]]),
                             weights=np.array([0.5, 0.5]))

    def test_is_immutable(self):
        s = regular_simplex(3)
        with pytest.raises(ValueError):
            s.points[0, 0] = 2.0

    def test_leaves_the_callers_arrays_writeable(self):
        points, weights = np.eye(3), np.full(3, 1.0 / 3.0)
        s = WeightedStateSet(points=points, weights=weights)
        assert points.flags.writeable and weights.flags.writeable
        assert not (s.points.flags.writeable or s.weights.flags.writeable)
        assert not (np.shares_memory(s.points, points) or np.shares_memory(s.weights, weights))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        points, weights = np.eye(3), np.full(3, 1.0 / 3.0)
        bad_points = points.copy()
        bad_points[1, 2] = bad
        bad_weights = weights.copy()
        bad_weights[0] = bad
        for p, w in ((bad_points, weights), (points, bad_weights)):
            with pytest.raises(InvalidInputError, match="finite"):
                WeightedStateSet(points=p, weights=w)

    def test_rejects_infinities_that_cancel_in_a_sum(self):
        # inf - inf would warn in a ufunc sum; the screen must not
        with pytest.raises(InvalidInputError, match="finite"):
            WeightedStateSet(points=np.array([[np.inf, -np.inf, 1.0], [0.0, 0.0, 1.0]]),
                             weights=np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError, match="finite"):
            WeightedStateSet(points=np.eye(2), weights=np.array([np.inf, -np.inf]))

    def test_rejects_a_finite_row_whose_sum_overflows(self):
        with pytest.raises(InvalidInputError, match="hyperplane"):
            WeightedStateSet(points=np.array([[1e308, 1e308, -1e308]]), weights=np.ones(1))

    def test_rejects_a_row_whose_sum_overflows_to_nan(self):
        # summed in more than one lane this row can give inf + -inf; it sums to 2
        with pytest.raises(InvalidInputError, match="hyperplane"):
            WeightedStateSet(points=np.array([[1e308, -1e308, 1e308, -1e308, 2.0]]),
                             weights=np.ones(1))

    def test_clips_weights_just_below_zero(self):
        weights = np.array([0.5, 0.5, -1e-13])
        s = WeightedStateSet(points=np.eye(3), weights=weights)
        assert s.weights.tolist() == [0.5, 0.5, 0.0]
        assert weights[2] == -1e-13
        with pytest.raises(InvalidInputError, match="nonnegative"):
            WeightedStateSet(points=np.eye(3), weights=np.array([0.5, 0.5 + 2e-12, -2e-12]))


class TestRegularSimplex:
    def test_dimension_two_is_the_basis_pair(self):
        s = regular_simplex(2)
        np.testing.assert_allclose(s.points, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(s.weights, np.array([0.5, 0.5]))

    def test_dimension_four_vertices_are_orthonormal(self):
        # the simplex inscribed in the l=4 ball has pairwise-orthogonal vertices
        pts = regular_simplex(4).points
        np.testing.assert_allclose(pts @ pts.T, np.eye(4), atol=1e-12)


class TestFrameOperator:
    def test_simplex_frame_is_isotropic(self):
        for l in (2, 3, 5, 6):
            f = frame_operator(regular_simplex(l))
            np.testing.assert_allclose(f, np.eye(l) / l, atol=1e-15)

    def test_single_point(self):
        s = WeightedStateSet(points=np.array([[1.0, 0.0, 0.0]]), weights=np.array([1.0]))
        np.testing.assert_allclose(frame_operator(s), np.diag([1.0, 0.0, 0.0]))

    def test_trace_is_weighted_norm(self):
        rng = np.random.default_rng(0)
        l = 5
        pts = rng.standard_normal((7, l))
        pts += (1.0 - pts.sum(axis=1))[:, None] / l
        w = rng.dirichlet(np.ones(7))
        s = WeightedStateSet(points=pts, weights=w)
        assert len(s) == 7 and s.l == l
        trace = float(np.trace(frame_operator(s)))
        assert trace == pytest.approx(float(w @ np.sum(pts * pts, axis=1)), abs=1e-12)

    def test_hyperplane_marginal(self):
        # u^T F u / l equals 1/l for hyperplane points regardless of design
        rng = np.random.default_rng(1)
        l = 4
        pts = rng.standard_normal((6, l))
        pts += (1.0 - pts.sum(axis=1))[:, None] / l
        s = WeightedStateSet(points=pts, weights=np.full(6, 1 / 6))
        u = np.ones(l)
        assert float(u @ frame_operator(s) @ u) == pytest.approx(1.0, abs=1e-12)


class TestIsTwoDesign:
    @pytest.mark.parametrize("l", list(range(2, 17)))
    def test_simplex_certifies(self, l):
        cert = is_two_design(regular_simplex(l))
        assert cert.is_design
        assert cert.frame_deviation <= 1e-12

    def test_two_basis_points_fail(self):
        s = WeightedStateSet(points=np.eye(3)[:2], weights=np.array([0.5, 0.5]))
        cert = is_two_design(s)
        assert not cert.is_design
        assert cert.frame_deviation == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_off_sphere_point_raises(self):
        s = WeightedStateSet(points=np.array([[0.5, 0.5], [0.0, 1.0]]),
                             weights=np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError, match="off the pure-state sphere"):
            is_two_design(s)

    @pytest.mark.parametrize("tol", [1e-7, float("nan")])
    def test_off_sphere_point_raises_at_a_nan_tolerance(self, tol):
        # a NaN comparison is False, so the check must be written to fail on it
        s = WeightedStateSet(points=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],
                             weights=[1 / 3] * 3)
        with pytest.raises(InvalidInputError, match="off the pure-state sphere"):
            is_two_design(s, tol)

    def test_certify_design_reports_off_sphere_points_without_raising(self):
        s = WeightedStateSet(points=np.array([[0.5, 0.5], [0.0, 1.0]]),
                             weights=np.array([0.5, 0.5]))
        cert = certify_design(s, 1e-7)
        assert not cert.is_design
        assert cert.sphere_deviation == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-15)
        assert cert.tol_used == 1e-7
        on_sphere = union([(regular_simplex(3), 0.5), (regular_simplex(3), 0.5)])
        assert certify_design(on_sphere, 1e-7) == is_two_design(on_sphere, 1e-7)

    def test_frame_deviation_is_the_spectral_norm(self):
        # states inside the ball, so the frame operator has norm at most 1
        rng = np.random.default_rng(9)
        for trial in range(200):
            l = int(rng.integers(2, 10))
            m = int(rng.integers(1, 3 * l))
            x = rng.standard_normal((m, l - 1))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x *= np.sqrt(1.0 - 1.0 / l) * rng.uniform(0.0, 1.0, (m, 1))
            points = 1.0 / l + x @ hyperplane_basis(l).T
            weights = rng.dirichlet(np.ones(m))
            s = WeightedStateSet(points=points, weights=weights)
            expected = np.linalg.norm(frame_operator(s) - np.eye(l) / l, 2)
            assert abs(certify_design(s).frame_deviation - expected) <= 1e-15

    def test_rotated_simplex_certifies(self):
        for l in (3, 4, 5):
            o = random_stabilizing_orthogonal(l, seed=l)
            cert = is_two_design(rotate_set(regular_simplex(l), o))
            assert cert.is_design and cert.frame_deviation <= 1e-12

    def test_union_of_rotated_simplices_certifies(self):
        rng = np.random.default_rng(7)
        for l in (3, 4):
            a = rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng))
            b = rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng))
            cert = is_two_design(union([(a, 0.5), (b, 0.5)]))
            assert cert.is_design and cert.frame_deviation <= 1e-12

    def test_design_mixture_is_design(self):
        l = 3
        rng = np.random.default_rng(8)
        a = rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng))
        b = rotate_set(regular_simplex(l), random_stabilizing_orthogonal(l, rng))
        cert = is_two_design(union([(a, 0.25), (b, 0.75)]))
        assert cert.is_design


class TestStabilizingOrthogonal:
    @pytest.mark.parametrize("l", [2, 3, 5, 8])
    def test_orthogonal_and_fixes_ones(self, l):
        o = random_stabilizing_orthogonal(l, seed=13)
        np.testing.assert_allclose(o.T @ o, np.eye(l), atol=1e-13)
        np.testing.assert_allclose(o @ np.ones(l), np.ones(l), atol=1e-13)

    def test_deterministic_for_fixed_seed(self):
        np.testing.assert_array_equal(random_stabilizing_orthogonal(4, seed=2),
                                      random_stabilizing_orthogonal(4, seed=2))

    def test_dimension_two_has_exactly_two_elements(self):
        seen = set()
        for seed in range(20):
            o = random_stabilizing_orthogonal(2, seed=seed)
            key = tuple(np.round(o, 12).ravel())
            seen.add(key)
            assert (np.allclose(o, np.eye(2), atol=1e-12)
                    or np.allclose(o, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12))
        assert len(seen) == 2

    def test_preserves_ball(self):
        rng = np.random.default_rng(3)
        l = 4
        o = random_stabilizing_orthogonal(l, rng)
        s = rng.standard_normal(l)
        s += (1.0 - s.sum()) / l
        mapped = o @ s
        assert float(mapped.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(mapped @ mapped) == pytest.approx(float(s @ s), abs=1e-12)


class TestRotateSet:
    @pytest.mark.parametrize("rotation, message", [
        (np.eye(3) * 2.0, "fix the all-ones vector"),
        # a shear along a direction orthogonal to u fixes u, so only the
        # orthogonality test can refuse it
        (np.eye(3) + 0.5 * np.outer([1.0, -1.0, 0.0], [0.0, 1.0, -1.0]), "must be orthogonal"),
        (np.eye(4), r"rotation must be 3 x 3, got \(4, 4\)"),
    ], ids=["scaled", "shear-fixing-ones", "another-size"])
    def test_rejects_non_orthogonal(self, rotation, message):
        with pytest.raises(InvalidInputError, match=message):
            rotate_set(regular_simplex(3), rotation)

    def test_rejects_orthogonal_not_fixing_ones(self):
        reflection = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(InvalidInputError, match="fix the all-ones vector"):
            rotate_set(regular_simplex(3), reflection)

    def test_preserves_norms_and_angles(self):
        l = 4
        s = regular_simplex(l)
        o = random_stabilizing_orthogonal(l, seed=5)
        rotated = rotate_set(s, o)
        np.testing.assert_allclose(rotated.points @ rotated.points.T,
                                   s.points @ s.points.T, atol=1e-13)


class TestHaarAverage:
    def test_trace_one_for_any_sample_count(self):
        s = np.eye(3)[0]
        for samples in (1, 7, 100):
            est = haar_average_estimate(s, samples, seed=samples)
            assert float(np.trace(est)) == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_isotropic(self):
        l = 3
        est = haar_average_estimate(np.eye(l)[0], 20000, seed=0)
        assert np.linalg.norm(est - np.eye(l) / l, 2) < 0.05

    def test_rejects_mixed_state(self):
        with pytest.raises(InvalidInputError, match="requires a pure state on the hyperplane"):
            haar_average_estimate(np.ones(4) / 4, 10)

    @pytest.mark.parametrize("s, message", [
        (np.eye(3), "state must be a finite vector"),
        (np.ones(1), "state must be a finite vector"),
        ([1.0, np.nan, 0.0], "state entries must be finite"),
        ([np.inf, 0.0], "state entries must be finite"),
    ], ids=["matrix", "length-1", "nan", "inf"])
    def test_rejects_what_is_no_finite_state_vector(self, s, message):
        with pytest.raises(InvalidInputError, match=message):
            haar_average_estimate(s, 10)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(InvalidInputError):
            haar_average_estimate(np.eye(3)[0], 0)


class TestDesignWeights:
    def test_simplex_recovers_uniform(self):
        w, dev = design_weights(np.eye(4))
        np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-10)
        assert dev <= 1e-10

    def test_balances_duplicated_point(self):
        points = np.vstack([np.eye(3)[0], np.eye(3)])
        w, dev = design_weights(points)
        assert dev <= 1e-10
        assert w[0] + w[1] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_reports_failure_as_large_deviation(self):
        _, dev = design_weights(np.eye(3)[:2])
        assert dev > 1e-3

    @pytest.mark.parametrize("points", [np.ones(3) / 3, np.empty((0, 3))],
                             ids=["vector", "no-rows"])
    def test_rejects_points_that_are_no_rows_of_states(self, points):
        with pytest.raises(InvalidInputError, match=r"points must form an \(m, l\) array"):
            design_weights(points)


class TestPerturbedSimplices:
    @staticmethod
    def draws_taken(rng, seed, l):
        """Simplices' worth of normals ``rng`` has drawn since it was seeded."""
        fresh = np.random.default_rng(seed)
        for taken in range(1000):
            if fresh.bit_generator.state == rng.bit_generator.state:
                return taken
            fresh.standard_normal((l, l - 1))
        raise AssertionError("stream position not found")

    @staticmethod
    def uniform_deviation(points):
        """The certificate's frame deviation of ``points`` at uniform weights."""
        l = len(points)
        return certify_design(WeightedStateSet(points, np.full(l, 1.0 / l))).frame_deviation

    def test_stacked_draw_is_the_sequential_draw(self):
        # with nothing redrawn the stacked normals are k sequential draws, and
        # each returned deviation is the certificate's at uniform weights, bit
        # for bit
        for l in range(3, 13):
            for seed in range(12):
                count = 1 + seed % 5
                rng = np.random.default_rng(seed)
                points, deviations = verify._perturbed_simplices(l, count, rng)
                assert points.shape == (count, l, l) and deviations.shape == (count,)
                assert self.draws_taken(rng, seed, l) == count
                single = np.random.default_rng(seed)
                for i in range(count):
                    alone, deviation = verify._perturbed_simplices(l, 1, single)
                    np.testing.assert_array_equal(points[i], alone[0])
                    assert deviations[i] == deviation[0] == self.uniform_deviation(points[i])
                    assert deviations[i] >= 1e-3
                np.testing.assert_allclose(np.linalg.norm(points, axis=-1), 1.0, atol=1e-12)
                np.testing.assert_allclose(points.sum(axis=-1), 1.0, atol=1e-12)

    def test_each_draw_is_one_eigvalsh(self, monkeypatch):
        # the design and rank tests of a round both read one stacked eigvalsh
        # of the uniform-weight frames, and kicked simplices pass both at the
        # first round; no SVD, solve or least-squares fit is taken
        counts = count_linalg_calls(monkeypatch, "eigvalsh", "svd", "solve", "lstsq")
        rng = np.random.default_rng(23)
        for draw in range(100):
            counts.update(dict.fromkeys(counts, 0))
            verify._perturbed_simplices(int(rng.integers(3, 10)), int(rng.integers(1, 6)), rng)
            assert counts == {"eigvalsh": 1, "svd": 0, "solve": 0, "lstsq": 0}

    def test_a_failed_simplex_is_redrawn_alone(self, monkeypatch):
        # the middle simplex of the first draw is made to meet the frame
        # condition: only it is drawn again, from the next normals
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def first_middle_is_a_design(a, *args, **kwargs):
            excess = eigvalsh(a, *args, **kwargs)
            seen.append(len(a))
            if len(seen) == 1:
                excess[1] = 0.0
            return excess

        monkeypatch.setattr(np.linalg, "eigvalsh", first_middle_is_a_design)
        rng = np.random.default_rng(4)
        points, deviations = verify._perturbed_simplices(5, 3, rng)
        monkeypatch.undo()
        assert seen == [3, 1]
        assert self.draws_taken(rng, 4, 5) == 4
        again = np.random.default_rng(4)
        first, _ = verify._perturbed_simplices(5, 3, again)
        redrawn, _ = verify._perturbed_simplices(5, 1, again)
        np.testing.assert_array_equal(points[[0, 2]], first[[0, 2]])
        np.testing.assert_array_equal(points[1], redrawn[0])
        assert all(d == self.uniform_deviation(p) for p, d in zip(points, deviations))

    def test_a_draw_failing_the_rank_test_is_drawn_again(self, monkeypatch):
        # the first draw's rank test fails for every simplex, so nothing is
        # kept and the whole stack is drawn again
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def first_draw_deficient(a, *args, **kwargs):
            excess = eigvalsh(a, *args, **kwargs)
            calls.append(len(a))
            if len(calls) == 1:
                excess[..., 0] = -1.0 / a.shape[-1]
            return excess

        monkeypatch.setattr(np.linalg, "eigvalsh", first_draw_deficient)
        rng = np.random.default_rng(7)
        points, deviations = verify._perturbed_simplices(4, 2, rng)
        monkeypatch.undo()
        assert calls == [2, 2] and self.draws_taken(rng, 7, 4) == 4
        again = np.random.default_rng(7)
        again.standard_normal((2, 4, 3))
        expected, _ = verify._perturbed_simplices(4, 2, again)
        np.testing.assert_array_equal(points, expected)
        assert all(d == self.uniform_deviation(p) for p, d in zip(points, deviations))

    def test_an_always_failing_draw_stops_after_64_rounds(self, monkeypatch):
        sizes = []

        def always_a_design(a, *args, **kwargs):
            sizes.append(len(a))
            return np.zeros(a.shape[:-1])

        monkeypatch.setattr(np.linalg, "eigvalsh", always_a_design)
        rng = np.random.default_rng(5)
        with pytest.raises(DegenerateInputError, match="could not draw a perturbed simplex"):
            verify._perturbed_simplices(4, 2, rng)
        assert sizes == [2] * 64
        assert self.draws_taken(rng, 5, 4) == 128

    def test_no_draw_at_l_2(self):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateInputError, match="at l = 2 the pure states are two points"):
            verify._perturbed_simplices(2, 1, rng)
        assert rng.bit_generator.state == state
        points, deviations = verify._perturbed_simplices(2, 0, rng)
        assert points.shape == (0, 2, 2) and deviations.shape == (0,)
        assert rng.bit_generator.state == state


class TestStateSetJson:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        s = rotate_set(regular_simplex(4), random_stabilizing_orthogonal(4, rng))
        again = state_set_from_dict(state_set_to_dict(s))
        np.testing.assert_array_equal(s.points, again.points)
        np.testing.assert_array_equal(s.weights, again.weights)

    def test_rejects_mismatched_length(self):
        with pytest.raises(InvalidInputError):
            state_set_from_dict({"l": 3, "points": [[1.0, 0.0]], "weights": [1.0]})
