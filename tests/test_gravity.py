import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from metricspin import (
    NumericalConsistencyError,
    SpaceSpec,
    StateVector,
    bogoliubov_params,
    quadratic_site_hamiltonian,
    resonant_momentum,
    spectrum_spacing,
)
from metricspin.model import initial_state
from oracles import dense_mode_spectrum, metric_expectations, squeeze_matrix

SQRT2 = math.sqrt(2.0)
MU_GRID = np.geomspace(0.1, 10.0, 50)


def dense(h) -> np.ndarray:
    """The N x N matrix of a mode Hamiltonian, from its main and +-2 diagonals."""
    return np.diag(h.diagonal) + np.diag(h.pair, 2) + np.diag(h.pair, -2)


def ladder(N: int) -> np.ndarray:
    """Annihilation operator on N Fock levels, from literal entries."""
    return np.diag(np.sqrt(np.arange(1.0, N)), 1)


class TestBogoliubovParams:
    def test_symmetric_point(self):
        bp = bogoliubov_params(2.0)
        assert bp.r == 0.0
        assert bp.cosh2r == 1.0
        assert bp.sinh2r == 0.0

    def test_mu_one_closed_form(self):
        bp = bogoliubov_params(1.0)
        assert bp.cosh2r == pytest.approx(1.25, abs=1e-15)
        assert bp.sinh2r == pytest.approx(-0.75, abs=1e-15)
        assert bp.r == pytest.approx(-math.log(2.0) / 2.0, abs=1e-15)
        assert bp.cosh2r ** 2 - bp.sinh2r ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_mu_four_mirrors_mu_one(self):
        assert bogoliubov_params(4.0).r == pytest.approx(math.log(2.0) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_hyperbolic_identity(self, mu):
        bp = bogoliubov_params(mu)
        assert abs(bp.cosh2r ** 2 - bp.sinh2r ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_mirror_symmetry(self, mu):
        assert abs(bogoliubov_params(mu).r + bogoliubov_params(4.0 / mu).r) <= 1e-12

    def test_cosh_bounded_below_by_one(self):
        assert min(bogoliubov_params(mu).cosh2r for mu in MU_GRID) >= 1.0

    # 1e-320, 1e-300 and 1e200: cosh 2r = mu/4 + 1/mu overflows when squared
    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan, math.inf, 1e-320, 1e-300, 1e200])
    def test_domain_error(self, mu):
        with pytest.raises(ValueError):
            bogoliubov_params(mu)


class TestQuadraticSiteHamiltonian:
    def test_coefficients(self):
        h = quadratic_site_hamiltonian(1.0, 10)
        assert h.c1 == pytest.approx(-1.5, abs=1e-15)
        assert h.c2 == pytest.approx(2.5, abs=1e-15)

    def test_matrix_matches_definition(self):
        N = 12
        mu = 1.7
        h = quadratic_site_hamiltonian(mu, N)
        a = ladder(N)
        ad = a.T
        ref = (h.c1 * (a @ a + ad @ ad)
               + h.c2 * (2 * ad @ a + np.eye(N)))
        assert h.cutoff == N
        assert h.diagonal.shape == (N,) and h.pair.shape == (N - 2,)
        npt.assert_allclose(dense(h), ref, atol=1e-14)

    def test_diagonal_case_mu_two(self):
        # c1 = 0: eigenvalues c2 (2n+1) = 4 (2n+1), uniform spacing 8
        h = quadratic_site_hamiltonian(2.0, 10)
        assert h.c1 == 0.0
        assert np.abs(h.pair).max() == 0.0
        evals = np.sort(np.linalg.eigvalsh(dense(h)))
        npt.assert_allclose(evals, 4.0 * (2 * np.arange(10) + 1), atol=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 4.0])
    def test_spectrum_bounded_below(self, mu):
        h = quadratic_site_hamiltonian(mu, 80)
        evals = np.linalg.eigvalsh(dense(h))
        assert evals.min() > 0.0
        # the measured ground level sits at half the measured gap
        assert evals.min() == pytest.approx(2.0 * mu, rel=1e-6)

    def test_hermitian(self):
        h = quadratic_site_hamiltonian(0.8, 40)
        assert h.diagonal.dtype == h.pair.dtype == np.float64
        assert not h.diagonal.flags.writeable and not h.pair.flags.writeable
        m = dense(h)
        assert np.array_equal(m, m.T)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quadratic_site_hamiltonian(-1.0, 10)
        with pytest.raises(ValueError):
            quadratic_site_hamiltonian(1.0, 3)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mu):
        with pytest.raises(ValueError):
            quadratic_site_hamiltonian(mu, 10)


class TestSpectrumSpacing:
    def test_diagonal_case_exact(self):
        h = quadratic_site_hamiltonian(2.0, 40)
        spacing, dev = spectrum_spacing(h, 8)
        assert spacing == pytest.approx(8.0, abs=1e-12)
        assert dev <= 1e-12

    def test_mu_one_uniform_and_value(self):
        # truncated diagonalization oracle: the measured gap supports the
        # 4*mu hypothesis (2*mu would give 2.0 here)
        h = quadratic_site_hamiltonian(1.0, 80)
        spacing, dev = spectrum_spacing(h, 8)
        assert dev <= 1e-6
        assert spacing == pytest.approx(4.0, abs=1e-9)

    def test_proportional_to_mu(self):
        s1, _ = spectrum_spacing(quadratic_site_hamiltonian(1.0, 80), 8)
        s2, _ = spectrum_spacing(quadratic_site_hamiltonian(2.0, 80), 8)
        assert s1 / s2 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 4.0])
    def test_interior_uniformity(self, mu):
        h = quadratic_site_hamiltonian(mu, 80)
        evals = np.sort(np.linalg.eigvalsh(dense(h)))[:8]
        gaps = np.diff(evals)
        assert gaps.var() / gaps.mean() ** 2 < 1e-8

    def test_levels_preconditions(self):
        h = quadratic_site_hamiltonian(1.0, 30)
        with pytest.raises(ValueError):
            spectrum_spacing(h, 11)  # beyond N//3
        with pytest.raises(ValueError):
            spectrum_spacing(h, 1)

    def test_eigensolver_failure_wrapped(self, monkeypatch):
        h = quadratic_site_hamiltonian(1.0, 30)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic non-convergence")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", broken)
        with pytest.raises(NumericalConsistencyError):
            spectrum_spacing(h, 5)

    @pytest.mark.parametrize("N", [13, 14, 80])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 4.0, 8.0])
    def test_matches_dense_spectrum(self, mu, N):
        levels = N // 3
        gaps = np.diff(dense_mode_spectrum(mu, N)[:levels])
        want = gaps.mean()
        spacing, dev = spectrum_spacing(quadratic_site_hamiltonian(mu, N), levels)
        tol = 1e-9 * max(1.0, abs(want))
        assert abs(spacing - want) <= tol
        assert abs(dev - np.abs(gaps - want).max()) <= tol


class TestSqueezeTransform:
    @pytest.mark.parametrize("mu", [1.0, 2.5])
    def test_conjugation_removes_pair_terms(self, mu):
        # S^dag H S is diagonal on interior levels for the matching r
        N = 60
        bp = bogoliubov_params(mu)
        S = squeeze_matrix(bp.r, N)
        H = dense(quadratic_site_hamiltonian(mu, N))
        rotated = S.conj().T @ H @ S
        pair = max(abs(rotated[n, n + 2]) for n in range(5))
        assert pair < 1e-6
        # diagonal entries follow 2*mu*(2n+1) on the same levels
        diag = np.real(np.diag(rotated)[:5])
        npt.assert_allclose(diag, 2.0 * mu * (2 * np.arange(5) + 1), atol=1e-6)

    def test_unitary(self):
        S = squeeze_matrix(-0.35, 40)
        npt.assert_allclose(S @ S.conj().T, np.eye(40), atol=1e-12)


class TestResonantMomentum:
    def test_mu_one_value(self):
        assert resonant_momentum(1.0) == pytest.approx(0.22507907903927651, abs=1e-12)

    def test_inverse_mu_scaling(self):
        assert resonant_momentum(2.0) == pytest.approx(resonant_momentum(1.0) / 2.0,
                                                       abs=1e-15)

    def test_monotone_decay(self):
        vals = [resonant_momentum(mu) for mu in (1, 5, 25, 125, 625)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            resonant_momentum(0.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mass_rejected(self, mu):
        with pytest.raises(ValueError):
            resonant_momentum(mu)


class TestMetricExpectations:
    def setup_method(self):
        self.space = SpaceSpec(2, (14, 14))

    def test_vacuum_is_flat(self):
        psi = initial_state("x", +1, self.space)
        h11, h12 = metric_expectations(psi, bogoliubov_params(2.0))
        assert h11 == 0.0 and h12 == 0.0

    def _alpha_state(self, coeffs):
        N = 14
        c = np.zeros(N, dtype=complex)
        c[:len(coeffs)] = coeffs
        c /= np.linalg.norm(c)
        beta_vac = np.eye(1, N, 0).ravel()
        amp = np.kron(np.array([1.0, 0.0]), np.kron(c, beta_vac))
        return StateVector(self.space, amp)

    def test_unsqueezed_displacement(self):
        # truncated coherent state with <a> = 1 - O(1e-11); at mu = 2 the
        # squeeze vanishes so h11 = sqrt(2) Re<a>
        coeffs = [math.exp(-0.5) / math.sqrt(math.factorial(n)) for n in range(14)]
        psi = self._alpha_state(coeffs)
        a_emb = np.kron(np.eye(2), np.kron(ladder(14), np.eye(14)))
        mean_a = np.vdot(psi.amplitudes, a_emb @ psi.amplitudes)
        h11, h12 = metric_expectations(psi, bogoliubov_params(2.0))
        assert h11 == pytest.approx(SQRT2 * mean_a.real, abs=1e-12)
        assert h11 == pytest.approx(SQRT2, abs=1e-9)
        assert h12 == 0.0

    def test_two_level_superposition(self):
        psi = self._alpha_state([1.0, 1.0])
        h11, _ = metric_expectations(psi, bogoliubov_params(2.0))
        assert h11 == pytest.approx(SQRT2 * 0.5, abs=1e-14)

    def test_squeeze_scaling(self):
        # same state read at mu = 1 picks up the factor e^{-r}
        psi = self._alpha_state([1.0, 1.0])
        bp1 = bogoliubov_params(1.0)
        h11_mu2, _ = metric_expectations(psi, bogoliubov_params(2.0))
        h11_mu1, _ = metric_expectations(psi, bp1)
        assert h11_mu1 / h11_mu2 == pytest.approx(math.exp(-bp1.r), abs=1e-12)

    def test_space_mismatch(self):
        psi = StateVector(SpaceSpec(1, (4,)), np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            metric_expectations(psi, bogoliubov_params(1.0))
