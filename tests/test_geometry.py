import warnings

import numpy as np
import pytest

from ddi import (
    InvalidInputError,
    StateEmbedding,
    ball_membership,
    ball_radius,
    cone_functional,
    embed_density,
    embed_effect,
    hyperplane_basis,
    pseudoinverse,
    traceless_hermitian_basis,
    unit_effect,
)
from ddi.embedding import hermitian_from_dict, hermitian_to_dict

from helpers import (
    bloch_qubit,
    embed_density_einsum,
    embed_effect_einsum,
    random_density,
    random_hermitian,
    random_pure_density,
    turned_gauge,
)


class TestUnitEffect:
    def test_all_ones(self):
        np.testing.assert_array_equal(unit_effect(5), np.ones(5))

    def test_norm_squared_is_dimension(self):
        for l in (2, 3, 7, 16):
            u = unit_effect(l)
            assert u @ u == l

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidInputError,
                           match="formalism dimension must be a whole number >= 2"):
            unit_effect(1)


class TestConeFunctional:
    def test_center_is_interior(self):
        l = 4
        assert cone_functional(np.ones(l) / l) == pytest.approx(1.0 / l - 1.0)

    def test_basis_vector_on_boundary(self):
        assert cone_functional(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-15)

    def test_equals_norm_minus_one_on_hyperplane(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            l = rng.integers(2, 12)
            s = rng.standard_normal(l)
            s += (1.0 - s.sum()) / l
            assert cone_functional(s) == pytest.approx(float(s @ s) - 1.0, abs=1e-12)


class TestBallMembership:
    def test_center_and_pure_points(self):
        assert ball_membership(np.ones(4) / 4)
        assert ball_membership(np.array([1.0, 0.0, 0.0]))

    def test_rejects_point_outside(self):
        assert not ball_membership(np.array([2.0, -1.0]))

    def test_rejects_off_hyperplane(self):
        assert not ball_membership(np.array([0.25, 0.25, 0.25]))

    @pytest.mark.parametrize("s, message", [
        (np.eye(3), "state must be a finite vector"),
        (np.ones(1), "state must be a finite vector"),
        ([1.0, np.nan, 0.0], "state entries must be finite"),
        ([np.inf, 0.0], "state entries must be finite"),
    ], ids=["matrix", "length-1", "nan", "inf"])
    def test_refuses_what_is_no_finite_state_vector(self, s, message):
        with pytest.raises(InvalidInputError, match=message):
            ball_membership(s)

    def test_radius(self):
        for l in (2, 4, 9):
            assert ball_radius(l) == pytest.approx(np.sqrt(1 - 1 / l))


class TestPseudoinverse:
    def test_column_of_ones(self):
        np.testing.assert_allclose(
            pseudoinverse(np.ones((2, 1))), np.array([[0.5, 0.5]]))

    def test_orthogonal_gives_transpose(self):
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
        np.testing.assert_allclose(pseudoinverse(q), q.T, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (3, 5), (12, 7), (12, 12)])
    def test_penrose_identities(self, shape):
        rng = np.random.default_rng(hash(shape) % 2 ** 32)
        for trial in range(10):
            a = rng.standard_normal(shape)
            if trial % 3 == 2:
                rank = max(1, min(shape) - 1)
                a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
            p = pseudoinverse(a)
            np.testing.assert_allclose(a @ p @ a, a, atol=1e-9)
            np.testing.assert_allclose(p @ a @ p, p, atol=1e-9)
            np.testing.assert_allclose((a @ p).T, a @ p, atol=1e-9)
            np.testing.assert_allclose((p @ a).T, p @ a, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            pseudoinverse(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("a", [np.ones(3), np.empty((0, 3)), np.empty((3, 0))],
                             ids=["vector", "no-rows", "no-columns"])
    def test_rejects_what_is_no_nonempty_matrix(self, a):
        with pytest.raises(InvalidInputError, match="requires a nonempty 2-d array"):
            pseudoinverse(a)


class TestBases:
    @pytest.mark.parametrize("l", [2, 3, 5, 9, 16])
    def test_hyperplane_basis_orthonormal_and_traceless(self, l):
        v = hyperplane_basis(l)
        assert v.shape == (l, l - 1)
        np.testing.assert_allclose(v.T @ v, np.eye(l - 1), atol=1e-14)
        np.testing.assert_allclose(v.sum(axis=0), np.zeros(l - 1), atol=1e-14)

    def test_hyperplane_basis_is_built_once_and_read_only(self):
        v = hyperplane_basis(9)
        assert hyperplane_basis(9) is v
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_operator_basis_is_built_once_and_read_only(self):
        basis = traceless_hermitian_basis(3)
        assert traceless_hermitian_basis(3) is basis
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_operator_basis_orthonormal_traceless_hermitian(self, d):
        basis = traceless_hermitian_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        for b in basis:
            np.testing.assert_allclose(b, b.conj().T, atol=1e-14)
            assert abs(np.trace(b)) < 1e-14
        gram = np.einsum("aij,bji->ab", basis, basis)
        np.testing.assert_allclose(gram, np.eye(d * d - 1), atol=1e-13)


class TestEmbedding:
    def test_alpha_value(self):
        emb = StateEmbedding.for_dimension(3)
        assert emb.alpha == pytest.approx(np.sqrt(4.0 / 3.0))
        assert emb.l == 9

    def test_maximally_mixed_maps_to_center(self):
        for d in (2, 3, 4):
            emb = StateEmbedding.for_dimension(d)
            s = embed_density(np.eye(d) / d, emb)
            np.testing.assert_allclose(s, np.ones(d * d) / (d * d), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pure_states_reach_the_sphere(self, d):
        emb = StateEmbedding.for_dimension(d)
        rng = np.random.default_rng(d)
        for _ in range(50):
            s = embed_density(random_pure_density(d, rng), emb)
            assert float(s @ s) == pytest.approx(1.0, abs=1e-12)
            assert float(s.sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_purity_is_affine_in_norm(self, d):
        # |s|^2 = 1/l + alpha^2 (tr(rho^2) - 1/d), purity computed directly
        emb = StateEmbedding.for_dimension(d)
        rng = np.random.default_rng(10 + d)
        for _ in range(50):
            rho = random_density(d, rng)
            s = embed_density(rho, emb)
            purity = float(np.trace(rho @ rho).real)
            expected = 1.0 / emb.l + emb.alpha ** 2 * (purity - 1.0 / d)
            assert float(s @ s) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_born_rule_preserved(self, d):
        emb = StateEmbedding.for_dimension(d)
        rng = np.random.default_rng(20 + d)
        for _ in range(200):
            rho = random_density(d, rng)
            eff = random_hermitian(d, rng)
            lhs = float(embed_effect(eff, emb) @ embed_density(rho, emb))
            rhs = float(np.trace(eff @ rho).real)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_unit_and_zero_effects(self):
        emb = StateEmbedding.for_dimension(3)
        np.testing.assert_allclose(embed_effect(np.eye(3), emb), np.ones(9), atol=1e-13)
        np.testing.assert_allclose(embed_effect(np.zeros((3, 3)), emb), np.zeros(9), atol=1e-14)

    def test_tetrahedron_maps_to_rotated_simplex(self):
        # independent oracle: pairwise overlaps tr(rho_i rho_j) equal 1/3
        blochs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
        rhos = [bloch_qubit(b) for b in blochs]
        for i in range(4):
            for j in range(i + 1, 4):
                overlap = float(np.trace(rhos[i] @ rhos[j]).real)
                assert overlap == pytest.approx(1.0 / 3.0, abs=1e-14)
        emb = StateEmbedding.for_dimension(2)
        vectors = np.array([embed_density(r, emb) for r in rhos])
        gram = vectors @ vectors.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(vectors.sum(axis=1), np.ones(4), atol=1e-12)

    def test_gauge_change_keeps_born_rule(self):
        # the package embeds in one gauge; the references embed in a turned one,
        # which moves the vectors but keeps every probability
        d = 2
        default = StateEmbedding.for_dimension(d)
        turn = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        gauge = turned_gauge(default, turn)
        rng = np.random.default_rng(4)
        for _ in range(20):
            rho = random_density(d, rng)
            eff = random_hermitian(d, rng)
            s = embed_density_einsum(rho, gauge)
            assert np.abs(s - embed_density(rho, default)).max() > 1e-3
            lhs = float(embed_effect_einsum(eff, gauge) @ s)
            assert lhs == pytest.approx(float(np.trace(eff @ rho).real), abs=1e-10)

    def test_rejects_non_hermitian(self):
        emb = StateEmbedding.for_dimension(2)
        with pytest.raises(InvalidInputError):
            embed_density(np.array([[1.0, 1.0], [0.0, 0.0]]), emb)

    def test_rejects_wrong_trace(self):
        emb = StateEmbedding.for_dimension(2)
        with pytest.raises(InvalidInputError, match="must have unit trace"):
            embed_density(np.eye(2), emb)

    @pytest.mark.parametrize("op, message", [
        (np.eye(3) / 3, "dimension 3, expected 2"),
        (np.eye(2, 3) / 2, "square matrix"),
    ], ids=["3x3", "2x3"])
    def test_rejects_dimension_mismatch(self, op, message):
        emb = StateEmbedding.for_dimension(2)
        with pytest.raises(InvalidInputError, match=message):
            embed_density(op, emb)

    def test_returns_a_fresh_writeable_vector(self):
        emb = StateEmbedding.for_dimension(2)
        for embed, op in ((embed_density, np.eye(2) / 2), (embed_effect, np.eye(2))):
            v = embed(op, emb)
            assert v.flags.writeable and not np.shares_memory(v, emb.operator_map)
            expected = v.copy()
            v[:] = -7.0
            np.testing.assert_array_equal(embed(op, emb), expected)

    @pytest.mark.parametrize("embed", [embed_density, embed_effect])
    @pytest.mark.parametrize("entry, value", [((0, 1), complex(0.0, np.nan)),
                                              ((0, 0), complex(np.inf, 0.0))])
    def test_rejects_non_finite_entries(self, embed, entry, value):
        op = np.eye(2, dtype=complex) / 2
        op[entry] = value
        with pytest.raises(InvalidInputError):
            embed(op, StateEmbedding.for_dimension(2))

    @pytest.mark.parametrize("op", [np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(3) / 3])
    def test_effect_rejects_non_hermitian_or_wrong_dimension(self, op):
        with pytest.raises(InvalidInputError):
            embed_effect(op, StateEmbedding.for_dimension(2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("embed", [embed_density, embed_effect])
    def test_rejects_every_non_finite_entry_without_warning(self, embed, d):
        emb = StateEmbedding.for_dimension(d)
        for i in range(d):
            for j in range(d):
                for value in (np.nan, np.inf, -np.inf):
                    for part in (1.0, 1j):
                        op = np.eye(d, dtype=complex) / d
                        op[i, j] += part * value
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            with pytest.raises(InvalidInputError, match="finite"):
                                embed(op, emb)

    def test_large_finite_entries_are_screened_without_warning(self):
        # the sum of squares of these entries overflows, but they are finite
        emb = StateEmbedding.for_dimension(3)
        op = np.eye(3, dtype=complex) / 3
        op[0, 2], op[2, 0] = 1e300 + 1e299j, 1e300 - 1e299j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(embed_effect(op, emb), embed_effect_einsum(op, emb),
                                       rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(embed_density(op, emb), embed_density_einsum(op, emb),
                                       rtol=1e-15, atol=0.0)
            op[2, 0] = 0.0
            for embed in (embed_density, embed_effect):
                with pytest.raises(InvalidInputError, match="Hermitian"):
                    embed(op, emb)

    @pytest.mark.parametrize("embed", [embed_density, embed_effect])
    def test_tiny_tolerances_compare_each_deviation(self, embed):
        # squared, these deviations underflow to zero
        op = np.eye(2, dtype=complex) / 2
        op[0, 1] = 1e-170
        emb = StateEmbedding.for_dimension(2)
        with pytest.raises(InvalidInputError, match="Hermitian"):
            embed(op, emb, tol=1e-180)
        embed(op, emb, tol=1e-160)
        # neither a negative nor a NaN tolerance passes any operator
        for tol in (-1.0, float("nan")):
            for op in (np.eye(2) / 2, np.array([[0.9, 1.0], [0.0, 0.4]])):
                with pytest.raises(InvalidInputError, match="Hermitian"):
                    embed(op, emb, tol=tol)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_default_embedding_is_shared_per_dimension(self, d):
        emb = StateEmbedding.for_dimension(d)
        assert StateEmbedding.for_dimension(d) is emb
        assert StateEmbedding.for_dimension(np.int64(d)) is emb
        assert emb.operator_basis is traceless_hermitian_basis(d)
        assert emb.tangent_basis is hyperplane_basis(d * d)
        for array in (emb.operator_map, emb.operator_basis, emb.tangent_basis):
            assert not array.flags.writeable

    @pytest.mark.parametrize("d", [2, 3])
    def test_directly_built_embedding_is_validated(self, d):
        emb = StateEmbedding(np.int64(d))
        assert type(emb.d) is int and emb.d == d
        assert emb.operator_basis is StateEmbedding.for_dimension(d).operator_basis
        # a whole float reads as its int, as every size of the package does
        assert StateEmbedding(float(d)).d == d and type(StateEmbedding(float(d)).d) is int
        assert StateEmbedding.for_dimension(float(d)) is StateEmbedding.for_dimension(d)
        for bad in (1, 2.5, True, float("nan"), "2"):
            for build in (StateEmbedding, StateEmbedding.for_dimension):
                with pytest.raises(InvalidInputError,
                                   match="Hilbert dimension must be a whole number >= 2"):
                    build(bad)

    def test_embeddings_compare_and_hash_by_identity(self):
        default = StateEmbedding.for_dimension(2)
        assert default == StateEmbedding.for_dimension(2)
        assert hash(default) == hash(StateEmbedding.for_dimension(2))
        members = {default, StateEmbedding.for_dimension(2), StateEmbedding.for_dimension(3)}
        assert len(members) == 2 and default in members
        assert StateEmbedding.for_dimension(4) not in members

    def test_rejects_real_trace_off_by_1e_6(self):
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 0] += 1e-6
        with pytest.raises(InvalidInputError, match="must have unit trace"):
            embed_density(rho, StateEmbedding.for_dimension(3))

    def test_rejects_imaginary_trace_off_by_1e_6(self):
        # 1e-6j/3 on each diagonal entry leaves rho - rho^H at 6.7e-7, within
        # the tolerance, while the trace is 1 + 1e-6j, outside it
        rho = np.eye(3, dtype=complex) * (1.0 + 1e-6j) / 3
        with pytest.raises(InvalidInputError, match="must have unit trace"):
            embed_density(rho, StateEmbedding.for_dimension(3), tol=8e-7)


class TestHermitianJson:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(3, rng)
        again = hermitian_from_dict(hermitian_to_dict(a))
        np.testing.assert_array_equal(a, again)

    def test_rejects_malformed(self):
        with pytest.raises(InvalidInputError):
            hermitian_from_dict({"d": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})

    @pytest.mark.parametrize("a", [np.ones((2, 3)), np.ones(2)], ids=["2x3", "vector"])
    def test_serializing_refuses_a_matrix_that_is_not_square(self, a):
        with pytest.raises(InvalidInputError, match="operator must be a square matrix"):
            hermitian_to_dict(a)
