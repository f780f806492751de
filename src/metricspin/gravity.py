"""Quadratic mode sector: squeezing parameters, per-site Hamiltonian, spectrum.

The metric-fluctuation sector is, per mode, a quadratic bosonic
Hamiltonian with a pair-creation term.  A Bogoliubov (squeeze)
transformation with ``cosh 2r = mu/4 + 1/mu`` and
``sinh 2r = mu/4 - 1/mu`` removes the pair terms; the truncated matrix
is diagonalized numerically and its measured level spacing is reported
as-is (tests compare it against the 2*mu and 4*mu candidate values
rather than hard-coding either).

The pair terms ``a^2`` and ``a^dag^2`` change the boson number by two,
so the matrix has weight only on its main diagonal and at offsets +-2.
It is held as those two real diagonals and splits exactly into an
even-n and an odd-n sector, each a real symmetric tridiagonal matrix;
the spectrum is read from the two sectors, solving only the lowest
levels of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalConsistencyError


@dataclass(frozen=True)
class BogoliubovParams:
    """Squeezing parameter ``r`` and its hyperbolic pair for mass ``mu``."""

    mu: float
    r: float
    cosh2r: float
    sinh2r: float


def bogoliubov_params(mu: float) -> BogoliubovParams:
    """Squeeze parameters that diagonalize the quadratic mode sector.

    ``r`` is recovered through ``asinh`` so its sign always matches
    ``sinh 2r`` (an ``acosh`` route would be sign-blind).  A ``mu`` so
    large or small that ``cosh^2 2r`` overflows raises ``ValueError``:
    the hyperbolic identity cannot be evaluated there.
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mass parameter must be finite and positive, got mu={mu}")
    cosh2r = mu / 4.0 + 1.0 / mu
    if not math.isfinite(cosh2r * cosh2r):
        raise ValueError(f"mass parameter out of range: cosh 2r = mu/4 + 1/mu "
                         f"overflows when squared at mu={mu}")
    sinh2r = mu / 4.0 - 1.0 / mu
    r = 0.5 * math.asinh(sinh2r)
    return BogoliubovParams(mu, r, cosh2r, sinh2r)


@dataclass(frozen=True)
class QuadraticModeHamiltonian:
    """Single-mode quadratic Hamiltonian ``c1 (a^2 + a^dag^2) + c2 (2 n + 1)``.

    Held as its main diagonal ``c2 (2n + 1)`` and its +-2 diagonal
    ``c1 sqrt(n (n - 1))`` (entry ``n - 2`` couples levels ``n - 2`` and
    ``n``), both read-only 1-D real arrays.
    """

    mu: float
    c1: float
    c2: float
    diagonal: np.ndarray
    pair: np.ndarray

    @property
    def cutoff(self) -> int:
        return self.diagonal.size


def quadratic_site_hamiltonian(mu: float, N: int) -> QuadraticModeHamiltonian:
    """Truncated per-site Hamiltonian of one fluctuation mode.

    The coefficients are ``c1 = mu^2/2 - 2`` on the pair terms and
    ``c2 = mu^2/2 + 2`` on ``2 a^dag a + 1``; at ``mu = 2`` the pair
    terms vanish and the matrix is diagonal.
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mass parameter must be finite and positive, got mu={mu}")
    N = int(N)
    if N < 4:
        raise ValueError(f"invalid cutoff: need N >= 4 to resolve pair terms, got {N}")
    c1 = mu * mu / 2.0 - 2.0
    c2 = mu * mu / 2.0 + 2.0
    n = np.arange(N, dtype=float)
    diagonal = c2 * (2.0 * n + 1.0)
    pair = c1 * np.sqrt(n[2:] * (n[2:] - 1.0))
    diagonal.setflags(write=False)
    pair.setflags(write=False)
    return QuadraticModeHamiltonian(mu, c1, c2, diagonal, pair)


def spectrum_spacing(h: QuadraticModeHamiltonian, levels: int) -> tuple[float, float]:
    """Mean nearest-neighbor gap over the lowest ``levels`` eigenvalues.

    Returns ``(mean_gap, max_deviation_from_mean)``.  ``levels`` must stay
    in the lowest third of the truncated spectrum, where cutoff artifacts
    are negligible; each parity sector then holds at least ``levels``
    states, so the lowest ``levels`` of each sector, merged, are the
    lowest ``levels`` of the whole matrix.
    """
    levels = int(levels)
    N = h.cutoff
    if levels < 2:
        raise ValueError(f"need at least 2 levels to measure a gap, got {levels}")
    if levels > N // 3:
        raise ValueError(f"levels={levels} too close to the truncation edge "
                         f"for N={N}; keep levels <= N//3")
    # a symmetric tridiagonal matrix has the spectrum of the one built
    # from the moduli of its off-diagonal entries
    pair = np.abs(h.pair)
    try:
        evals = np.concatenate([
            scipy.linalg.eigvalsh_tridiagonal(h.diagonal[p::2], pair[p::2], select="i",
                                              select_range=(0, levels - 1))
            for p in (0, 1)])
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalConsistencyError(f"eigensolver failed: {exc}") from exc
    gaps = np.diff(np.sort(evals)[:levels])
    mean_gap = float(gaps.mean())
    max_dev = float(np.abs(gaps - mean_gap).max())
    return mean_gap, max_dev


def resonant_momentum(mu: float) -> float:
    """Radius ``1 / (sqrt(2) pi mu)`` of the resonant circle in momentum space."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mass parameter must be finite and positive, got mu={mu}")
    return 1.0 / (math.sqrt(2.0) * math.pi * mu)
