import math

import numpy as np
import numpy.testing as npt
import pytest

from metricspin import (
    ModelParams,
    NumericalConsistencyError,
    StateVector,
    build_minimal_hamiltonian,
    observable_trace,
    quadratic_site_hamiltonian,
)
from metricspin.model import (
    _PAULI_X,
    _PAULI_Y,
    OperatorMatrix,
    ParityBlock,
    _mode_factors,
    initial_state,
)

from oracles import embed_oracle, full_matrix_from_blocks, minimal_hamiltonian_oracle

SQRT2 = math.sqrt(2.0)
SIGMA_Z = np.diag([1.0, -1.0])


def kron_embed(op: np.ndarray, pos: int, dims: tuple[int, ...]) -> np.ndarray:
    """``op`` on factor ``pos`` of spin (x) alpha (x) beta, identities elsewhere."""
    out = np.eye(1)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == pos else np.eye(d))
    return out


def ladder(N: int) -> np.ndarray:
    """Annihilation operator read off the model's quadrature factor ``a + a^dag``."""
    return np.triu(_mode_factors(N)[1])


class TestBasisConvention:
    def test_minimal_model_dimension(self):
        h = build_minimal_hamiltonian(ModelParams(G=0.3, N=14, t_max=1.0, dt=0.5))
        m = full_matrix_from_blocks(h.blocks)
        assert m.shape == (392, 392)
        npt.assert_allclose(m, minimal_hamiltonian_oracle(0.3, 1.0, 14), atol=1e-14)
        assert initial_state("x", +1, 14).amplitudes.shape == (392,)

    def test_row_major_index(self):
        # the decoupled matrix has sqrt(2) (n_a + n_b) at s*N*N + n_a*N + n_b
        N = 14
        h = build_minimal_hamiltonian(ModelParams(G=0.0, N=N, t_max=1.0, dt=0.5))
        m = full_matrix_from_blocks(h.blocks)
        npt.assert_allclose(m, minimal_hamiltonian_oracle(0.0, 1.0, N), atol=1e-14)
        diag = np.diag(m).real
        for s, na, nb in [(0, 0, 0), (0, 0, 13), (0, 1, 0), (1, 0, 0), (1, 13, 13)]:
            assert diag[s * N * N + na * N + nb] == pytest.approx(SQRT2 * (na + nb))
        assert diag.size == 392


class TestLadderOperators:
    """The model's per-mode factors: levels, ``a + a^dag`` and its upper triangle ``a``."""

    def test_vacuum_only_cutoff(self):
        npt.assert_array_equal(ladder(1), np.zeros((1, 1)))

    def test_textbook_entries_n3(self):
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2.0)
        npt.assert_array_equal(ladder(3), expected)
        npt.assert_array_equal(_mode_factors(3)[1], expected + expected.T)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            ModelParams(G=0.0, N=1)
        with pytest.raises(ValueError):
            quadratic_site_hamiltonian(1.0, 3)

    def test_commutator_truncation_corner(self):
        # [a, a^dag] = 1 except the top corner, which collects -(N-1)
        N = 14
        a = ladder(N)
        comm = a @ a.T - a.T @ a
        npt.assert_allclose(comm[:N - 1, :N - 1], np.eye(N - 1), atol=1e-13)
        assert abs(comm[N - 1, N - 1] - (-(N - 1))) < 1e-12
        off = comm - np.diag(np.diag(comm))
        assert np.abs(off).max() < 1e-13

    @pytest.mark.parametrize("N", range(2, 21))
    def test_number_equals_adag_a(self, N):
        a = ladder(N)
        npt.assert_allclose(np.diag(_mode_factors(N)[0]), a.T @ a, atol=1e-13)

    def test_number_examples(self):
        npt.assert_array_equal(_mode_factors(2)[0], [0.0, 1.0])
        assert _mode_factors(14)[0].sum() == 91
        npt.assert_array_equal(_mode_factors(5)[2], [1, -1, 1, -1, 1])

    @pytest.mark.parametrize("N", [3, 8, 14, 20])
    def test_ladder_algebra_below_cutoff(self, N):
        # (a^dag a)|n> = n|n> and a^dag|n> = sqrt(n+1)|n+1> on levels 0..N-2
        a = ladder(N)
        ad = a.T
        num = ad @ a
        for n in range(N - 1):
            e_n = np.zeros(N)
            e_n[n] = 1.0
            npt.assert_allclose(num @ e_n, n * e_n, atol=1e-14 * max(n, 1))
            expected = np.zeros(N)
            expected[n + 1] = math.sqrt(n + 1)
            npt.assert_allclose(ad @ e_n, expected, atol=1e-14)


class TestPauli:
    """The model's sigma_x and sigma_y, used by its dense matrix and symmetry check."""

    def test_matrix_values(self):
        npt.assert_array_equal(_PAULI_X, [[0, 1], [1, 0]])
        npt.assert_array_equal(_PAULI_Y, [[0, -1j], [1j, 0]])

    def test_squares_are_identity(self):
        for m in (_PAULI_X, _PAULI_Y):
            npt.assert_array_equal(m @ m, np.eye(2))

    def test_commutation_relation(self):
        npt.assert_array_equal(_PAULI_X @ _PAULI_Y - _PAULI_Y @ _PAULI_X, 2j * SIGMA_Z)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            initial_state("w", +1, 3)


class TestTensorEmbed:
    """Kronecker products with identities, as the dense model matrix and the
    test references build them, follow the row-major basis convention."""

    def test_identity_embeds_to_identity(self):
        npt.assert_array_equal(kron_embed(np.eye(2), 0, (2, 3, 3)), np.eye(18))

    def test_sigma_z_ordering(self):
        # spin is the slowest index: diagonal (+1)*4 then (-1)*4
        npt.assert_array_equal(np.diag(kron_embed(SIGMA_Z, 0, (2, 2, 2))),
                               [1, 1, 1, 1, -1, -1, -1, -1])

    def test_embedded_numbers_commute_exactly(self):
        dims = (2, 4, 5)
        n_a = kron_embed(np.diag(_mode_factors(4)[0]), 1, dims)
        n_b = kron_embed(np.diag(_mode_factors(5)[0]), 2, dims)
        assert np.abs(n_a @ n_b - n_b @ n_a).max() == 0.0

    @pytest.mark.parametrize("slot,pos", [("spin", 0), ("alpha", 1), ("beta", 2)])
    def test_against_index_loop_oracle(self, slot, pos):
        dims = (2, 3, 4)
        rng = np.random.default_rng(11 + pos)
        d = dims[pos]
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        npt.assert_allclose(kron_embed(op, pos, dims), embed_oracle(op, pos, dims),
                            atol=1e-15)

    @pytest.mark.parametrize("slot", ["spin", "alpha", "beta"])
    def test_embedding_homomorphism(self, slot):
        # embed(A B) = embed(A) embed(B) for same-slot operators
        dims = (2, 5, 3)
        pos = ("spin", "alpha", "beta").index(slot)
        d = dims[pos]
        rng = np.random.default_rng(5)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = kron_embed(A @ B, pos, dims)
        rhs = kron_embed(A, pos, dims) @ kron_embed(B, pos, dims)
        npt.assert_allclose(lhs, rhs, atol=1e-13 * max(1.0, np.abs(lhs).max()))


class TestExpectation:
    """Expectation values of the initial states, with literal Kronecker operators."""

    def setup_method(self):
        self.N = 3

    def _mean(self, op, psi):
        return complex(np.vdot(psi.amplitudes, op @ psi.amplitudes))

    def test_sigma_z_on_up(self):
        psi = initial_state("z", +1, self.N)
        assert self._mean(kron_embed(SIGMA_Z, 0, (2, 3, 3)), psi) == pytest.approx(1.0, abs=1e-14)

    def test_mode_population_in_vacuum(self):
        psi = initial_state("y", -1, self.N)
        n_a = kron_embed(np.diag([0.0, 1.0, 2.0]), 1, (2, 3, 3))
        assert self._mean(n_a, psi) == pytest.approx(0.0, abs=1e-14)

    def test_sigma_x_on_plus_x(self):
        psi = initial_state("x", +1, self.N)
        assert self._mean(kron_embed(_PAULI_X, 0, (2, 3, 3)), psi) == pytest.approx(1.0, abs=1e-14)

    def test_space_mismatch(self):
        p = ModelParams(G=0.3, N=3, t_max=1.0, dt=0.5)
        psi = initial_state("x", +1, 4)
        with pytest.raises(ValueError, match="cutoff N=3"):
            observable_trace(build_minimal_hamiltonian(p), psi)

    def test_imaginary_part_guard(self):
        # an imaginary part small enough to pass the entrywise Hermiticity
        # gate is still refused: a parity block must be exactly real
        ones = np.ones((9, 9))
        m = np.eye(9) + 4e-13j * (np.triu(ones, 1) - np.tril(ones, -1))
        assert np.abs(m - m.conj().T).max() <= 1e-12
        with pytest.raises(NumericalConsistencyError, match="not real"):
            ParityBlock(1, m)

    def test_nan_imaginary_part_caught(self):
        # a NaN imaginary part must not slip past the guard as "not too large"
        with pytest.raises(NumericalConsistencyError, match="not real"):
            ParityBlock(-1, np.diag([1.0 + math.nan * 1j, 1.0, 1.0, 1.0]))


class TestValidation:
    def test_operator_rejects_non_hermitian(self):
        with pytest.raises(NumericalConsistencyError, match="Hermitian"):
            OperatorMatrix(ladder(3))
        m = np.eye(3, dtype=complex)
        m[0, 1] = 2e-12                 # above HERMITICITY_ATOL
        with pytest.raises(NumericalConsistencyError, match="Hermitian"):
            OperatorMatrix(m)
        m[0, 1] = 5e-13                 # within it
        assert OperatorMatrix(m).dim == 3

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_operator_rejects_nan(self, where):
        # a NaN must not pass the Hermiticity gate as "not too large"
        m = np.eye(3)
        m[where] = math.nan
        with pytest.raises(NumericalConsistencyError, match="Hermitian"):
            OperatorMatrix(m)

    def test_operator_shape_checks(self):
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            OperatorMatrix(np.zeros(4))

    def test_state_norm_enforced(self):
        with pytest.raises(NumericalConsistencyError):
            StateVector(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_state_shape_checks(self):
        with pytest.raises(ValueError, match="1-D"):
            StateVector(np.eye(1, 4))

    def test_entries_are_readonly(self):
        op = OperatorMatrix(ladder(3) + ladder(3).T)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0
        block = ParityBlock(1, np.eye(4))
        with pytest.raises(ValueError):
            block.entries[0, 0] = 5.0
