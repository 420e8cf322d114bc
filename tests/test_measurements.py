import numpy as np
import pytest

from ddi import (
    DegenerateRangeError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidStateError,
    NotAQuasiMeasurementError,
    QuasiMeasurement,
    det_factorization_check,
    is_informationally_complete,
    pseudoinverse_closure_check,
    random_ic_quasi_measurement,
    random_quasi_measurement,
    range_volume_sq,
    validate,
)
from ddi.measurements import apply, measurement_from_dict, measurement_to_dict
from ddi.verify import random_stabilizing_orthogonal

# cyclic matrix with two 0.5 entries per row; det computed as 0.25 by
# direct expansion, so the squared range volume is 0.0625
HALVES = np.array([[0.5, 0.5, 0.0],
                   [0.0, 0.5, 0.5],
                   [0.5, 0.0, 0.5]])


def random_hyperplane_state(l, rng):
    s = rng.standard_normal(l)
    return s + (1.0 - s.sum()) / l


class TestValidate:
    def test_identity_is_valid(self):
        meas = validate(np.eye(4))
        assert meas.n == 4 and meas.l == 4

    def test_padded_identity_is_valid(self):
        validate(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_rank_deficient_member_is_valid(self):
        validate(np.diag([1.0, 0.0]))

    def test_scaled_identity_fails_with_sqrt_l_residual(self):
        for l in (2, 3, 5):
            with pytest.raises(NotAQuasiMeasurementError) as info:
                validate(2.0 * np.eye(l))
            assert info.value.residual == pytest.approx(np.sqrt(l), abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            QuasiMeasurement(matrix=np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_rejects_vector(self):
        with pytest.raises(InvalidInputError):
            QuasiMeasurement(matrix=np.ones(3))

    def test_matrix_is_read_only(self):
        meas = validate(np.eye(3))
        with pytest.raises(ValueError):
            meas.matrix[0, 0] = 7.0


class TestApply:
    def test_identity_returns_state(self):
        s = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(apply(validate(np.eye(3)), s), s)

    def test_ic_outcomes_sum_to_one(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(3, 9))
            l = int(rng.integers(2, n + 1))
            meas = random_ic_quasi_measurement(n, l, rng)
            p = apply(meas, random_hyperplane_state(l, rng))
            assert abs(float(p.sum()) - 1.0) <= 1e-12

    def test_row_space_states_sum_to_one_when_rank_deficient(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            l = int(rng.integers(3, 7))
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, min(n, l)))
            meas = random_quasi_measurement(n, l, rank, rng)
            # project a hyperplane state onto the affine slice the
            # measurement can actually see
            pinv = meas.pinv()
            s = pinv @ meas.matrix @ random_hyperplane_state(l, rng)
            shift = float(s.sum())
            if abs(shift) < 1e-9:
                continue
            p = apply(meas, s / shift)
            assert abs(float(p.sum()) - 1.0) <= 1e-9

    def test_rejects_off_hyperplane_state(self):
        with pytest.raises(InvalidStateError):
            apply(validate(np.eye(3)), np.array([0.5, 0.5, 0.5]))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidStateError):
            apply(validate(np.eye(3)), np.array([0.5, 0.5]))


class TestInformationalCompleteness:
    def test_identity_is_complete(self):
        assert is_informationally_complete(validate(np.eye(5)))

    def test_wide_matrix_is_not(self):
        # 2 outcomes cannot resolve 3 dimensions
        meas = validate(np.array([[0.5, 0.5, 0.0],
                                  [0.5, 0.5, 1.0]]))
        assert not is_informationally_complete(meas)

    def test_rank_deficient_square_is_not(self):
        assert not is_informationally_complete(validate(np.diag([1.0, 0.0])))

    def test_complete_members_act_on_all_hyperplane_states(self):
        rng = np.random.default_rng(2)
        meas = random_ic_quasi_measurement(6, 4, rng)
        assert is_informationally_complete(meas)
        np.testing.assert_allclose(meas.matrix.T @ np.ones(6), np.ones(4), atol=1e-12)


class TestRangeVolume:
    def test_identity_has_unit_volume(self):
        assert range_volume_sq(validate(np.eye(4))) == pytest.approx(1.0, abs=1e-14)

    def test_halves_matrix_matches_determinant_oracle(self):
        assert range_volume_sq(validate(HALVES)) == pytest.approx(0.0625, rel=1e-13)

    def test_rectangular_volume_is_gram_determinant(self):
        rng = np.random.default_rng(3)
        meas = random_ic_quasi_measurement(7, 3, rng)
        direct = float(np.linalg.det(meas.matrix.T @ meas.matrix))
        assert range_volume_sq(meas) == pytest.approx(direct, rel=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(DegenerateRangeError):
            range_volume_sq(validate(np.diag([1.0, 0.0])))
        with pytest.raises(DegenerateRangeError):
            range_volume_sq(random_quasi_measurement(5, 4, 3, seed=0))

    def test_invariant_under_outcome_isometry(self):
        rng = np.random.default_rng(4)
        meas = random_ic_quasi_measurement(5, 3, rng)
        q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        rotated = QuasiMeasurement(matrix=q @ meas.matrix)
        assert range_volume_sq(rotated) == pytest.approx(range_volume_sq(meas), rel=1e-12)

    def test_invariant_under_stabilizing_rotation_of_states(self):
        rng = np.random.default_rng(5)
        meas = random_ic_quasi_measurement(6, 4, rng)
        o = random_stabilizing_orthogonal(4, rng)
        rotated = validate(meas.matrix @ o)
        assert range_volume_sq(rotated) == pytest.approx(range_volume_sq(meas), rel=1e-12)


class TestClosure:
    def test_holds_for_random_ic_members(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            l = int(rng.integers(2, min(n, 6) + 1))
            assert pseudoinverse_closure_check(random_ic_quasi_measurement(n, l, rng))

    def test_holds_for_rank_deficient_members(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            l = int(rng.integers(2, 7))
            n = int(rng.integers(1, 11))
            rank = int(rng.integers(1, min(n, l) + 1))
            assert pseudoinverse_closure_check(random_quasi_measurement(n, l, rank, rng))


class TestDetFactorization:
    def test_holds_for_composable_pairs(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            l = int(rng.integers(2, 6))
            n = int(rng.integers(l, l + 4))
            outer = random_ic_quasi_measurement(n, l, rng)
            inner = random_ic_quasi_measurement(l, l, rng)
            assert det_factorization_check(outer, inner)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(InvalidInputError):
            det_factorization_check(random_ic_quasi_measurement(4, 3, seed=0),
                                    random_ic_quasi_measurement(4, 4, seed=1))

    def test_rejects_rectangular_inner_factor(self):
        # the identity genuinely fails there, so the check refuses to run
        with pytest.raises(InvalidInputError):
            det_factorization_check(random_ic_quasi_measurement(5, 4, seed=0),
                                    random_ic_quasi_measurement(4, 2, seed=1))

    def test_rejects_incomplete_factor(self):
        rank_deficient = random_quasi_measurement(3, 3, 2, seed=2)
        with pytest.raises(InvalidInputError):
            det_factorization_check(rank_deficient,
                                    random_ic_quasi_measurement(3, 3, seed=3))


class TestSamplers:
    def test_ic_sampler_is_deterministic(self):
        a = random_ic_quasi_measurement(5, 3, seed=42)
        b = random_ic_quasi_measurement(5, 3, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_ic_sampler_output_is_complete(self):
        for seed in range(20):
            assert is_informationally_complete(random_ic_quasi_measurement(6, 4, seed=seed))

    def test_rank_sampler_hits_requested_rank(self):
        for seed in range(20):
            meas = random_quasi_measurement(6, 5, 3, seed=seed)
            assert np.linalg.matrix_rank(meas.matrix, tol=1e-9) == 3

    def test_rank_sampler_rejects_bad_rank(self):
        with pytest.raises(InvalidDimensionError):
            random_quasi_measurement(4, 3, 4, seed=0)
        with pytest.raises(InvalidDimensionError):
            random_quasi_measurement(4, 3, 0, seed=0)

    def test_ic_sampler_rejects_wide_shape(self):
        with pytest.raises(InvalidDimensionError):
            random_ic_quasi_measurement(2, 3, seed=0)


class TestMeasurementJson:
    def test_round_trip_is_bit_exact(self):
        meas = random_ic_quasi_measurement(5, 4, seed=9)
        again = measurement_from_dict(measurement_to_dict(meas))
        np.testing.assert_array_equal(meas.matrix, again.matrix)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            measurement_from_dict({"n": 2, "l": 2, "matrix": [[1.0, 0.0]]})

    def test_rejects_invalid_member(self):
        with pytest.raises(NotAQuasiMeasurementError):
            measurement_from_dict({"n": 2, "l": 2, "matrix": [[2.0, 0.0], [0.0, 2.0]]})
