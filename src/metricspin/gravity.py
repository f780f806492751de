"""Quadratic mode sector: squeezing parameters, per-site Hamiltonian, spectrum.

The metric-fluctuation sector is, per mode, a quadratic bosonic
Hamiltonian with a pair-creation term.  A Bogoliubov (squeeze)
transformation with ``cosh 2r = mu/4 + 1/mu`` and
``sinh 2r = mu/4 - 1/mu`` removes the pair terms; the truncated matrix
is diagonalized numerically and its measured level spacing is reported
as-is (tests compare it against the 2*mu and 4*mu candidate values
rather than hard-coding either).

The pair terms ``a^2`` and ``a^dag^2`` change the boson number by two,
so the matrix has weight only on its main diagonal and at offsets +-2
and splits exactly into an even-n and an odd-n sector, each a real
symmetric tridiagonal matrix.  The spectrum is read from the two
sectors (after checking that no weight lies elsewhere), solving only
the lowest levels of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalConsistencyError
from .operators import (
    OperatorMatrix,
    StateVector,
    annihilation_matrix,
    single_mode_space,
    tensor_embed,
)


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
    ``sinh 2r`` (an ``acosh`` route would be sign-blind).
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mass parameter must be finite and positive, got mu={mu}")
    cosh2r = mu / 4.0 + 1.0 / mu
    sinh2r = mu / 4.0 - 1.0 / mu
    r = 0.5 * math.asinh(sinh2r)
    return BogoliubovParams(mu, r, cosh2r, sinh2r)


@dataclass(frozen=True)
class QuadraticModeHamiltonian:
    """Single-mode quadratic Hamiltonian ``c1 (a^2 + a^dag^2) + c2 (2 n + 1)``."""

    mu: float
    c1: float
    c2: float
    matrix: OperatorMatrix

    @property
    def cutoff(self) -> int:
        return self.matrix.dim


def quadratic_site_hamiltonian(mu: float, N: int) -> QuadraticModeHamiltonian:
    """Truncated per-site Hamiltonian of one fluctuation mode.

    The coefficients are ``c1 = mu^2/2 - 2`` on the pair terms and
    ``c2 = mu^2/2 + 2`` on ``2 a^dag a + 1``; at ``mu = 2`` the pair
    terms vanish and the matrix is diagonal.  The matrix is filled from
    its three nonzero diagonals: ``c2 (2n + 1)`` on the main one and
    ``c1 sqrt(n (n - 1))`` between levels ``n - 2`` and ``n``.
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
    m = np.diag(c2 * (2.0 * n + 1.0))
    pair = c1 * np.sqrt(n[2:] * (n[2:] - 1.0))
    m += np.diag(pair, 2) + np.diag(pair, -2)
    matrix = OperatorMatrix(single_mode_space(N), m, hermitian_hint=True)
    return QuadraticModeHamiltonian(mu, c1, c2, matrix)


def spectrum_spacing(h: QuadraticModeHamiltonian, levels: int) -> tuple[float, float]:
    """Mean nearest-neighbor gap over the lowest ``levels`` eigenvalues.

    Returns ``(mean_gap, max_deviation_from_mean)``.  ``levels`` must stay
    in the lowest third of the truncated spectrum, where cutoff artifacts
    are negligible; each parity sector then holds at least ``levels``
    states, so the lowest ``levels`` of each sector, merged, are the
    lowest ``levels`` of the whole matrix.  A matrix with weight off the
    main and +-2 diagonals does not split and is refused.
    """
    levels = int(levels)
    N = h.cutoff
    if levels < 2:
        raise ValueError(f"need at least 2 levels to measure a gap, got {levels}")
    if levels > N // 3:
        raise ValueError(f"levels={levels} too close to the truncation edge "
                         f"for N={N}; keep levels <= N//3")
    m = h.matrix.entries
    band = sum(np.count_nonzero(np.diagonal(m, k)) for k in (-2, 0, 2))
    if np.count_nonzero(m) != band:
        raise NumericalConsistencyError(
            "mode Hamiltonian has weight off the main and +-2 diagonals; "
            "it does not split into boson-number parity sectors")
    diag = np.diagonal(m).real
    # a Hermitian tridiagonal matrix has the spectrum of the real one built
    # from the moduli of its off-diagonal entries
    pair = np.abs(np.diagonal(m, 2))
    try:
        evals = np.concatenate([
            scipy.linalg.eigvalsh_tridiagonal(diag[p::2], pair[p::2], select="i",
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


def metric_expectations(psi: StateVector, params: BogoliubovParams) -> tuple[float, float]:
    """Metric components (h11, h12) reconstructed from a two-mode state.

    In the single-mode reduction the fluctuation operator is
    ``a cosh r - a^dag sinh r`` per mode, so each component equals
    ``sqrt(2) exp(-r) Re <a>`` with ``a`` the corresponding mode operator.
    """
    space = psi.space
    if space.spin_dim != 2 or len(space.fock_cutoffs) != 2:
        raise ValueError(f"state must live on a spin (x) two-mode space, got {space}")
    scale = math.sqrt(2.0) * math.exp(-params.r)
    out = []
    for slot, N in zip(("alpha", "beta"), space.fock_cutoffs):
        a_emb = tensor_embed(annihilation_matrix(N), slot, space)
        mean_a = complex(np.vdot(psi.amplitudes, a_emb.entries @ psi.amplitudes))
        out.append(scale * mean_a.real)
    return out[0], out[1]
