"""Brick-wall lattice Bloch analysis with uniform classical mode backgrounds.

Two sites (a, b) per unit cell, translations n1 = (-1, 1)/sqrt(2) and
n2 = (1, 1)/sqrt(2).  The Bloch Hamiltonian is off-diagonal with

    f(k) = J_Z + J_X exp(i k.n1) + J_Y exp(i k.n2)

multiplying a^dag b (Fourier sign frozen here; it is validated by the
band-touching points below, whose bond phases at P_plus are -3 pi/4 and
-5 pi/4 and sum to -sqrt(2)).  With free couplings
J_X = J_Y = J_Z / sqrt(2) = 1 the bands touch at
P_pm = -/+ (pi / (2 sqrt(2)), sqrt(2) pi).

A uniform background multiplies all three couplings by one complex
number J = 1 + i u - v (u from the alpha background, v from the beta
background), so f factorizes as J * f_free and the touching points do
not move.  The low-energy coefficient extraction therefore recovers J
from the measured gradient of f, one complex estimate per momentum
direction, and reports the conventional parametrization
A = 1 - u, B = 1 + u, C = D = -v of the linearized two-band theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionInvalidError

SQRT2 = math.sqrt(2.0)

#: unit-cell translations (orthonormal)
N1 = np.array([-1.0 / SQRT2, 1.0 / SQRT2])
N2 = np.array([1.0 / SQRT2, 1.0 / SQRT2])

#: band-touching momenta of the free model
FERMI_PLUS = np.array([-math.pi / (2.0 * SQRT2), -SQRT2 * math.pi])
FERMI_MINUS = -FERMI_PLUS

#: default central-difference step for coefficient extraction
FD_STEP = 1e-5

#: |f| at the nominal touching point beyond which extraction is refused
DISPLACEMENT_ATOL = 1e-8


@dataclass(frozen=True)
class LatticeCouplings:
    """Complex tunnelling amplitudes on the three bond types.

    Use :meth:`from_background` to build the standard set where all
    three bonds share the background-dependent factor; direct
    construction allows deliberately detuned couplings for perturbation
    studies.
    """

    Jx: complex
    Jy: complex
    Jz: complex
    G: float = 0.0
    alpha_c: float = 0.0
    beta_c: float = 0.0

    @classmethod
    def from_background(cls, G: float = 0.0, alpha_c: float = 0.0,
                        beta_c: float = 0.0) -> "LatticeCouplings":
        """Couplings for a uniform classical background at strength G."""
        if not (math.isfinite(G) and G >= 0):
            raise ValueError(f"G must be finite and non-negative, got {G}")
        s = math.sqrt(2.0 * math.pi * G)
        J = 1.0 + 1j * s * alpha_c - s * beta_c
        return cls(Jx=J, Jy=J, Jz=SQRT2 * J,
                   G=float(G), alpha_c=float(alpha_c), beta_c=float(beta_c))

    @classmethod
    def free(cls) -> "LatticeCouplings":
        return cls.from_background(0.0, 0.0, 0.0)


def structure_factor(k, c: LatticeCouplings):
    """Off-diagonal Bloch element f(k); vectorized over leading axes of k."""
    k = np.asarray(k, dtype=float)
    ph1 = np.exp(1j * (k @ N1))
    ph2 = np.exp(1j * (k @ N2))
    return c.Jz + c.Jx * ph1 + c.Jy * ph2


def bloch_hamiltonian(k, c: LatticeCouplings) -> np.ndarray:
    """2x2 Bloch Hamiltonian [[0, f], [conj(f), 0]] in the (a, b) basis."""
    f = complex(structure_factor(k, c))
    return np.array([[0.0, f], [np.conj(f), 0.0]], dtype=np.complex128)


def dispersion(k_grid, c: LatticeCouplings) -> tuple[np.ndarray, np.ndarray]:
    """Band energies (E_minus, E_plus) = (-|f|, +|f|) on a grid of momenta.

    ``k_grid`` has shape (..., 2); both outputs have shape (...).
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if k_grid.shape[-1] != 2:
        raise ValueError(f"momenta must have 2 components, got shape {k_grid.shape}")
    mag = np.abs(structure_factor(k_grid, c))
    return -mag, mag


def fermi_point_residual(c: LatticeCouplings) -> tuple[float, float]:
    """|f| evaluated at the free-model band-touching points P_plus, P_minus."""
    return (float(abs(structure_factor(FERMI_PLUS, c))),
            float(abs(structure_factor(FERMI_MINUS, c))))


def _gradient(k0: np.ndarray, c: LatticeCouplings, step: float) -> tuple[complex, complex]:
    """Central-difference gradient of f at k0, one complex number per axis."""
    ex = np.array([step, 0.0])
    ey = np.array([0.0, step])
    d_x = (structure_factor(k0 + ex, c) - structure_factor(k0 - ex, c)) / (2.0 * step)
    d_y = (structure_factor(k0 + ey, c) - structure_factor(k0 - ey, c)) / (2.0 * step)
    return complex(d_x), complex(d_y)


def low_energy_coefficients(c: LatticeCouplings, which: str = "P+",
                            step: float = FD_STEP) -> tuple[float, float, float, float]:
    """Linearized band coefficients (A, B, C, D) at a touching point.

    The free-model gradient of f at P_pm is (-/+1, -i); dividing the
    measured gradient by it gives two independent estimates of the
    complex hopping renormalization J, one per momentum direction.  A
    and C are read from the x derivative, B and D from the y derivative,
    so the identities A + B = 2 and C = D are measured, not built in.

    Raises
    ------
    ValueError
        If ``step`` is not finite and positive, or too small to move the
        touching point: ``k0 + step`` or ``k0 - step`` rounds to ``k0``
        in either component, so the measured gradient would be 0 or NaN.
    ExtractionInvalidError
        If |f| at the nominal touching point exceeds
        ``DISPLACEMENT_ATOL`` times the coupling scale (the background
        has moved or gapped the touching point).
    """
    if which in ("P+", "plus", "+"):
        k0, sign = FERMI_PLUS, -1.0
    elif which in ("P-", "minus", "-"):
        k0, sign = FERMI_MINUS, +1.0
    else:
        raise ValueError(f"which must be 'P+' or 'P-', got {which!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {step}")
    if np.any(k0 + step == k0) or np.any(k0 - step == k0):
        raise ValueError(f"finite-difference step {step} is too small to move "
                         f"the touching point {which}")
    scale = max(abs(c.Jx), abs(c.Jy), abs(c.Jz), 1.0)
    residual = abs(structure_factor(k0, c))
    if residual > DISPLACEMENT_ATOL * scale:
        raise ExtractionInvalidError(
            f"touching point displaced: |f({which})| = {residual:.3e} "
            f"exceeds {DISPLACEMENT_ATOL * scale:.3e}")
    d_x, d_y = _gradient(k0, c, step)
    J_from_x = sign * d_x          # free gradient component is sign * 1
    J_from_y = 1j * d_y            # free gradient component is -i
    A = 1.0 - J_from_x.imag
    B = 1.0 + J_from_y.imag
    C = J_from_x.real - 1.0
    D = J_from_y.real - 1.0
    return A, B, C, D
