import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from metricspin import (
    ExtractionInvalidError,
    LatticeCouplings,
    bloch_hamiltonian,
    dispersion,
    fermi_point_residual,
    low_energy_coefficients,
    structure_factor,
)
from metricspin.lattice import FERMI_MINUS, FERMI_PLUS, N1, N2
from oracles import locate_band_minimum

SQRT2 = math.sqrt(2.0)


class TestGeometry:
    def test_translations_orthonormal(self):
        assert np.linalg.norm(N1) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(N2) == pytest.approx(1.0, abs=1e-15)
        assert N1 @ N2 == pytest.approx(0.0, abs=1e-15)

    def test_touching_point_phases(self):
        # bond phases at P+ are -3pi/4 and -5pi/4 and their exponentials
        # sum to -sqrt(2), which is what cancels J_Z
        assert FERMI_PLUS @ N1 == pytest.approx(-3 * math.pi / 4, abs=1e-12)
        assert FERMI_PLUS @ N2 == pytest.approx(-5 * math.pi / 4, abs=1e-12)
        total = np.exp(1j * FERMI_PLUS @ N1) + np.exp(1j * FERMI_PLUS @ N2)
        assert abs(total + SQRT2) <= 1e-12

    def test_points_are_opposite(self):
        npt.assert_array_equal(FERMI_MINUS, -FERMI_PLUS)


class TestCouplings:
    def test_free_values(self):
        c = LatticeCouplings.free()
        assert c.Jx == 1.0 and c.Jy == 1.0
        assert c.Jz == pytest.approx(SQRT2, abs=1e-15)

    def test_background_form(self):
        G, ac, bc = 0.01, 0.7, -0.3
        s = math.sqrt(2 * math.pi * G)
        c = LatticeCouplings.from_background(G, ac, bc)
        expected = 1.0 + 1j * s * ac - s * bc
        assert c.Jx == pytest.approx(expected, abs=1e-15)
        assert c.Jy == c.Jx
        assert c.Jz == pytest.approx(SQRT2 * expected, abs=1e-15)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError):
            LatticeCouplings.from_background(-0.1)

    @pytest.mark.parametrize("G", [math.nan, math.inf])
    def test_non_finite_g_rejected(self, G):
        with pytest.raises(ValueError):
            LatticeCouplings.from_background(G)


class TestBlochHamiltonian:
    def test_zone_center_free(self):
        H = bloch_hamiltonian((0.0, 0.0), LatticeCouplings.free())
        assert H[0, 1] == pytest.approx(SQRT2 + 2.0, abs=1e-12)
        evals = np.linalg.eigvalsh(H)
        npt.assert_allclose(evals, [-(SQRT2 + 2.0), SQRT2 + 2.0], atol=1e-12)

    def test_structure(self):
        c = LatticeCouplings.from_background(0.02, 0.5, 0.5)
        H = bloch_hamiltonian((0.3, -1.2), c)
        assert H[0, 0] == 0.0 and H[1, 1] == 0.0
        assert H[1, 0] == np.conj(H[0, 1])

    def test_chiral_symmetry_exact(self):
        sz = np.diag([1.0, -1.0])
        c = LatticeCouplings.from_background(0.03, -1.0, 2.0)
        rng = np.random.default_rng(3)
        for k in rng.uniform(-5, 5, size=(25, 2)):
            H = bloch_hamiltonian(k, c)
            assert np.abs(sz @ H @ sz + H).max() == 0.0


class TestDispersion:
    def test_particle_hole_symmetry(self):
        c = LatticeCouplings.from_background(0.01, 1.0, -1.0)
        kx, ky = np.meshgrid(np.linspace(-4, 4, 21), np.linspace(-4, 4, 21))
        grid = np.stack([kx, ky], axis=-1)
        e_lo, e_hi = dispersion(grid, c)
        npt.assert_array_equal(e_lo, -e_hi)

    def test_free_minimum_at_touching_points(self):
        free = LatticeCouplings.free()
        span = np.linspace(-0.3, 0.3, 31)
        kx, ky = np.meshgrid(FERMI_PLUS[0] + span, FERMI_PLUS[1] + span)
        grid = np.stack([kx, ky], axis=-1)
        _, e_hi = dispersion(grid, free)
        i, j = np.unravel_index(np.argmin(e_hi), e_hi.shape)
        assert e_hi[i, j] <= 1e-12
        npt.assert_allclose(grid[i, j], FERMI_PLUS, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dispersion(np.zeros((4, 3)), LatticeCouplings.free())

    @pytest.mark.parametrize("direction", [(0.6, 0.8), (1.0, 0.0), (0.0, 1.0)])
    def test_linear_near_touching_point(self, direction):
        free = LatticeCouplings.free()
        direction = np.asarray(direction)
        ratios = [abs(structure_factor(FERMI_PLUS + q * direction, free)) / q
                  for q in (1e-4, 1e-3, 1e-2)]
        for r in ratios:
            assert abs(r / ratios[0] - 1.0) < 0.01


class TestFermiPointResidual:
    def test_free_residuals_vanish(self):
        rp, rm = fermi_point_residual(LatticeCouplings.free())
        assert rp <= 1e-12 and rm <= 1e-12

    def test_opposite_momenta_conjugate_for_real_couplings(self):
        # real couplings give f(-k) = conj(f(k)); P- = -P+ is a special case
        free = LatticeCouplings.free()
        rng = np.random.default_rng(23)
        for k in rng.uniform(-4, 4, size=(10, 2)):
            f_plus = structure_factor(k, free)
            f_minus = structure_factor(-k, free)
            assert abs(f_minus - np.conj(f_plus)) <= 1e-12
        assert abs(structure_factor(FERMI_MINUS, free)
                   - np.conj(structure_factor(FERMI_PLUS, free))) <= 1e-12

    def test_uniform_background_keeps_zeros(self):
        # all three couplings share one complex factor, so f = J f_free
        # and the touching points cannot move or gap
        c = LatticeCouplings.from_background(0.01, beta_c=1.0)
        rp, rm = fermi_point_residual(c)
        assert rp <= 1e-12 and rm <= 1e-12

    def test_single_bond_detuning_gaps_the_points(self):
        # a beta-like shift applied to the Z bond alone leaves a residual
        # sqrt(2) * sqrt(2 pi G)
        G = 0.01
        shift = math.sqrt(2 * math.pi * G)
        det = dataclasses.replace(LatticeCouplings.free(), Jz=SQRT2 * (1.0 - shift))
        rp, rm = fermi_point_residual(det)
        assert rp == pytest.approx(SQRT2 * shift, abs=1e-12)
        assert rm == pytest.approx(SQRT2 * shift, abs=1e-12)

    def test_residual_scales_linearly(self):
        det = dataclasses.replace(LatticeCouplings.free(), Jz=SQRT2 * 1.1)
        scaled = LatticeCouplings(Jx=3.0 * det.Jx, Jy=3.0 * det.Jy, Jz=3.0 * det.Jz)
        r1 = fermi_point_residual(det)[0]
        r3 = fermi_point_residual(scaled)[0]
        assert r3 == pytest.approx(3.0 * r1, rel=1e-12)


class TestBandMinimumLocation:
    def test_free_minimum_stays_put(self):
        loc = locate_band_minimum(LatticeCouplings.free(),
                                  FERMI_PLUS + np.array([0.1, -0.1]))
        assert np.linalg.norm(loc - FERMI_PLUS) < 1e-4

    def test_uniform_background_does_not_migrate(self):
        c = LatticeCouplings.from_background(0.01, beta_c=1.0)
        loc = locate_band_minimum(c, FERMI_PLUS + np.array([0.1, -0.1]))
        assert np.linalg.norm(loc - FERMI_PLUS) < 1e-4

    def test_detuned_bond_migrates_but_persists(self):
        # an asymmetric Z-bond detuning moves the touching point without
        # gapping it (oracle-located displacement 0.2322)
        det = dataclasses.replace(LatticeCouplings.free(), Jz=SQRT2 * 1.15)
        loc = locate_band_minimum(det, FERMI_PLUS)
        moved = np.linalg.norm(loc - FERMI_PLUS)
        assert moved == pytest.approx(0.2321925, abs=1e-3)
        assert abs(structure_factor(loc, det)) < 1e-5


class TestLowEnergyCoefficients:
    def test_free_coefficients(self):
        for which in ("P+", "P-"):
            A, B, C, D = low_energy_coefficients(LatticeCouplings.free(), which)
            assert A == pytest.approx(1.0, abs=1e-9)
            assert B == pytest.approx(1.0, abs=1e-9)
            assert C == pytest.approx(0.0, abs=1e-9)
            assert D == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("which", ["P+", "P-"])
    def test_alpha_background_splits_velocities(self, which):
        G = 0.01
        s = math.sqrt(2 * math.pi * G)
        c = LatticeCouplings.from_background(G, alpha_c=1.0)
        A, B, C, D = low_energy_coefficients(c, which)
        assert A == pytest.approx(1.0 - s, abs=1e-6)
        assert B == pytest.approx(1.0 + s, abs=1e-6)
        assert C == pytest.approx(0.0, abs=1e-6)
        assert D == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("which", ["P+", "P-"])
    def test_beta_background_generates_cross_terms(self, which):
        G = 0.01
        s = math.sqrt(2 * math.pi * G)
        c = LatticeCouplings.from_background(G, beta_c=1.0)
        A, B, C, D = low_energy_coefficients(c, which)
        assert A == pytest.approx(1.0, abs=1e-6)
        assert B == pytest.approx(1.0, abs=1e-6)
        assert C == pytest.approx(-s, abs=1e-6)
        assert D == pytest.approx(-s, abs=1e-6)

    def test_invariants_over_random_backgrounds(self):
        # A and C come from the x derivative, B and D from the y
        # derivative, so these sums genuinely measure the structure
        rng = np.random.default_rng(17)
        for _ in range(20):
            G = float(rng.uniform(0.0, 0.05))
            c = LatticeCouplings.from_background(G, *rng.uniform(-2, 2, size=2))
            A, B, C, D = low_energy_coefficients(c, "P+")
            assert abs(A + B - 2.0) <= 1e-8
            assert abs(C - D) <= 1e-8

    def test_displaced_point_raises(self):
        det = dataclasses.replace(LatticeCouplings.free(), Jz=SQRT2 * 1.1)
        with pytest.raises(ExtractionInvalidError):
            low_energy_coefficients(det, "P+")

    def test_which_validation(self):
        with pytest.raises(ValueError):
            low_energy_coefficients(LatticeCouplings.free(), "P0")

    @pytest.mark.parametrize("step", [0.0, 1e-320, 1e-17, -1e-5, math.nan, math.inf])
    @pytest.mark.parametrize("which", ["P+", "P-"])
    def test_unusable_step_refused(self, which, step):
        # 0 and 1e-320 gave nan coefficients; 1e-17 rounds k0 +- step to k0
        # and gave C = D = -1 on the free lattice, where both are 0
        with pytest.raises(ValueError, match="step"):
            low_energy_coefficients(LatticeCouplings.free(), which, step=step)

    def test_smallest_moving_step_accepted(self):
        # the largest component of P+ is 4.44, with a spacing of 8.9e-16
        A, B, C, D = low_energy_coefficients(LatticeCouplings.free(), "P+", step=1e-15)
        assert all(math.isfinite(x) for x in (A, B, C, D))
