import math

import numpy as np
import numpy.testing as npt
import pytest

from metricspin import (
    NumericalConsistencyError,
    OperatorMatrix,
    SpaceSpec,
    StateVector,
    annihilation_matrix,
    expectation,
    identity_matrix,
    number_matrix,
    pauli_matrix,
    single_mode_space,
    tensor_embed,
)
from metricspin.model import initial_state

from oracles import embed_oracle

SQRT2 = math.sqrt(2.0)


class TestSpaceSpec:
    def test_minimal_model_dimension(self):
        space = SpaceSpec(2, (14, 14))
        assert space.dim == 392

    def test_row_major_index(self):
        space = SpaceSpec(2, (14, 14))
        assert space.index(0, 0, 0) == 0
        assert space.index(0, 0, 13) == 13
        assert space.index(0, 1, 0) == 14
        assert space.index(1, 0, 0) == 196
        assert space.index(1, 13, 13) == 391

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            SpaceSpec(2, (0, 14))
        with pytest.raises(ValueError):
            SpaceSpec(0, (3,))

    def test_slot_dims(self):
        space = SpaceSpec(2, (3, 5))
        assert space.slot_dim("spin") == 2
        assert space.slot_dim("alpha") == 3
        assert space.slot_dim("beta") == 5
        with pytest.raises(ValueError):
            space.slot_dim("gamma")


class TestLadderOperators:
    def test_vacuum_only_cutoff(self):
        a = annihilation_matrix(1)
        npt.assert_array_equal(a.entries, np.zeros((1, 1)))

    def test_textbook_entries_n3(self):
        a = annihilation_matrix(3).entries
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2.0)
        npt.assert_array_equal(a, expected)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            annihilation_matrix(0)
        with pytest.raises(ValueError):
            number_matrix(0)

    def test_commutator_truncation_corner(self):
        # [a, a^dag] = 1 except the top corner, which collects -(N-1)
        N = 14
        a = annihilation_matrix(N).entries
        comm = a @ a.conj().T - a.conj().T @ a
        npt.assert_allclose(comm[:N - 1, :N - 1], np.eye(N - 1), atol=1e-13)
        assert abs(comm[N - 1, N - 1] - (-(N - 1))) < 1e-12
        off = comm - np.diag(np.diag(comm))
        assert np.abs(off).max() < 1e-13

    def test_creation_is_exact_conjugate_transpose(self):
        a = annihilation_matrix(9)
        npt.assert_array_equal(a.dagger().entries, a.entries.conj().T)

    @pytest.mark.parametrize("N", range(2, 21))
    def test_number_equals_adag_a(self, N):
        a = annihilation_matrix(N).entries
        n = number_matrix(N).entries
        npt.assert_allclose(n, a.conj().T @ a, atol=1e-13)

    def test_number_examples(self):
        npt.assert_array_equal(number_matrix(2).entries, np.diag([0.0, 1.0]))
        assert number_matrix(14).entries.trace().real == 91

    @pytest.mark.parametrize("N", [3, 8, 14, 20])
    def test_ladder_algebra_below_cutoff(self, N):
        # (a^dag a)|n> = n|n> and a^dag|n> = sqrt(n+1)|n+1> on levels 0..N-2
        a = annihilation_matrix(N).entries
        ad = a.conj().T
        num = ad @ a
        for n in range(N - 1):
            e_n = np.zeros(N, dtype=complex)
            e_n[n] = 1.0
            npt.assert_allclose(num @ e_n, n * e_n, atol=1e-14 * max(n, 1))
            raised = ad @ e_n
            expected = np.zeros(N, dtype=complex)
            expected[n + 1] = math.sqrt(n + 1)
            npt.assert_allclose(raised, expected, atol=1e-14)


class TestPauli:
    def test_matrix_values(self):
        npt.assert_array_equal(pauli_matrix("x").entries, [[0, 1], [1, 0]])
        npt.assert_array_equal(pauli_matrix("y").entries, [[0, -1j], [1j, 0]])
        npt.assert_array_equal(pauli_matrix("z").entries, [[1, 0], [0, -1]])

    def test_squares_are_identity(self):
        for axis in "xyz":
            m = pauli_matrix(axis).entries
            npt.assert_array_equal(m @ m, np.eye(2))

    def test_commutation_relation(self):
        sx = pauli_matrix("x").entries
        sy = pauli_matrix("y").entries
        sz = pauli_matrix("z").entries
        npt.assert_array_equal(sx @ sy - sy @ sx, 2j * sz)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            pauli_matrix("w")


class TestTensorEmbed:
    def test_identity_embeds_to_identity(self):
        space = SpaceSpec(2, (3, 3))
        emb = tensor_embed(identity_matrix(SpaceSpec(2, ())), "spin", space)
        npt.assert_array_equal(emb.entries, np.eye(18))

    def test_sigma_z_ordering(self):
        # spin is the slowest index: diagonal (+1)*4 then (-1)*4
        space = SpaceSpec(2, (2, 2))
        emb = tensor_embed(pauli_matrix("z"), "spin", space)
        npt.assert_array_equal(np.diag(emb.entries).real,
                               [1, 1, 1, 1, -1, -1, -1, -1])

    def test_embedded_numbers_commute_exactly(self):
        space = SpaceSpec(2, (4, 5))
        n_a = tensor_embed(number_matrix(4), "alpha", space).entries
        n_b = tensor_embed(number_matrix(5), "beta", space).entries
        assert np.abs(n_a @ n_b - n_b @ n_a).max() == 0.0

    def test_dimension_mismatch(self):
        space = SpaceSpec(2, (3, 3))
        with pytest.raises(ValueError):
            tensor_embed(number_matrix(4), "alpha", space)

    @pytest.mark.parametrize("slot,pos", [("spin", 0), ("alpha", 1), ("beta", 2)])
    def test_against_index_loop_oracle(self, slot, pos):
        space = SpaceSpec(2, (3, 4))
        dims = (2, 3, 4)
        rng = np.random.default_rng(11 + pos)
        d = dims[pos]
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        emb = tensor_embed(OperatorMatrix(_factor_space(slot, d), op), slot, space)
        npt.assert_allclose(emb.entries, embed_oracle(op, pos, dims), atol=1e-15)

    @pytest.mark.parametrize("slot", ["spin", "alpha", "beta"])
    def test_embedding_homomorphism(self, slot):
        # embed(A B) = embed(A) embed(B) for same-slot operators
        space = SpaceSpec(2, (5, 3))
        d = space.slot_dim(slot)
        rng = np.random.default_rng(5)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        fspace = _factor_space(slot, d)
        lhs = tensor_embed(OperatorMatrix(fspace, A @ B), slot, space).entries
        rhs = (tensor_embed(OperatorMatrix(fspace, A), slot, space).entries
               @ tensor_embed(OperatorMatrix(fspace, B), slot, space).entries)
        npt.assert_allclose(lhs, rhs, atol=1e-13 * max(1.0, np.abs(lhs).max()))


def _factor_space(slot: str, d: int) -> SpaceSpec:
    return SpaceSpec(d, ()) if slot == "spin" else single_mode_space(d)


class TestExpectation:
    def setup_method(self):
        self.space = SpaceSpec(2, (3, 3))

    def test_sigma_z_on_up(self):
        psi = initial_state("z", +1, self.space)
        sz = tensor_embed(pauli_matrix("z"), "spin", self.space)
        assert expectation(sz, psi) == pytest.approx(1.0, abs=1e-14)

    def test_mode_population_in_vacuum(self):
        psi = initial_state("y", -1, self.space)
        n_a = tensor_embed(number_matrix(3), "alpha", self.space)
        assert expectation(n_a, psi) == pytest.approx(0.0, abs=1e-14)

    def test_sigma_x_on_plus_x(self):
        psi = initial_state("x", +1, self.space)
        sx = tensor_embed(pauli_matrix("x"), "spin", self.space)
        assert expectation(sx, psi) == pytest.approx(1.0, abs=1e-14)

    def test_space_mismatch(self):
        psi = initial_state("x", +1, self.space)
        op = tensor_embed(pauli_matrix("x"), "spin", SpaceSpec(2, (4, 4)))
        with pytest.raises(ValueError):
            expectation(op, psi)

    def test_non_hermitian_returns_complex(self):
        a = annihilation_matrix(3)
        emb = tensor_embed(a, "alpha", self.space)
        psi = initial_state("x", +1, self.space)
        assert isinstance(expectation(emb, psi), complex)

    def test_imaginary_part_guard(self):
        # passes the entrywise Hermiticity gate but accumulates a
        # coherent imaginary part across the whole matrix
        space = SpaceSpec(2, (14, 14))
        dim = space.dim
        m = np.eye(dim, dtype=complex) + 4e-13j * np.ones((dim, dim))
        op = OperatorMatrix(space, m, hermitian_hint=True)
        psi = StateVector(space, np.full(dim, 1.0 / math.sqrt(dim), dtype=complex))
        with pytest.raises(NumericalConsistencyError):
            expectation(op, psi)

    def test_nan_imaginary_part_caught(self):
        # a NaN imaginary part must not slip past the guard as "not too large"
        space = single_mode_space(3)
        op = OperatorMatrix(space, np.eye(3), hermitian_hint=True)
        object.__setattr__(op, "entries", np.diag([1.0 + math.nan * 1j, 1.0, 1.0]))
        psi = StateVector(space, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NumericalConsistencyError, match="imaginary"):
            expectation(op, psi)


class TestValidation:
    def test_hermitian_hint_rejects_non_hermitian(self):
        space = single_mode_space(3)
        with pytest.raises(NumericalConsistencyError):
            OperatorMatrix(space, annihilation_matrix(3).entries, hermitian_hint=True)

    def test_operator_shape_checks(self):
        space = single_mode_space(3)
        with pytest.raises(ValueError):
            OperatorMatrix(space, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            OperatorMatrix(space, np.zeros((4, 4)))

    def test_state_norm_enforced(self):
        space = single_mode_space(4)
        with pytest.raises(NumericalConsistencyError):
            StateVector(space, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_state_shape_checks(self):
        space = single_mode_space(4)
        with pytest.raises(ValueError):
            StateVector(space, np.zeros(5))

    def test_entries_are_readonly(self):
        a = annihilation_matrix(3)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0
