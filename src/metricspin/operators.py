"""Spaces, states and dense operators on truncated spin (x) boson spaces.

Basis convention, frozen for the whole package: composite spaces are
ordered spin (x) alpha (x) beta with row-major indexing, so the basis
state ``|s, n_a, n_b>`` sits at flat index ``s*N_a*N_b + n_a*N_b + n_b``.
Spin index 0 is "up" in the sigma-z eigenbasis.  Each bosonic mode keeps
its lowest ``N`` Fock levels ``|0> ... |N-1>``.

Values are immutable after construction, so they are safe to share
between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError

#: entrywise tolerance for a matrix flagged as Hermitian
HERMITICITY_ATOL = 1e-12
#: tolerance on | <psi|psi> - 1 | at state construction
NORM_SQ_ATOL = 1e-10


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of a composite Hilbert space: one spin factor plus Fock modes.

    Parameters
    ----------
    spin_dim : int
        Dimension of the spin factor; 2 for the spin-1/2 model.  A pure
        mode space (no spin) is represented with ``spin_dim=1``.
    fock_cutoffs : tuple of int
        Retained Fock levels per bosonic mode, each at least 1.
    """

    spin_dim: int = 2
    fock_cutoffs: tuple[int, ...] = (14, 14)

    def __post_init__(self):
        object.__setattr__(self, "fock_cutoffs",
                           tuple(int(n) for n in self.fock_cutoffs))
        if self.spin_dim < 1:
            raise ValueError(f"spin_dim must be >= 1, got {self.spin_dim}")
        if any(n < 1 for n in self.fock_cutoffs):
            raise ValueError(f"every Fock cutoff must be >= 1, "
                             f"got {self.fock_cutoffs}")

    @property
    def dim(self) -> int:
        return self.spin_dim * math.prod(self.fock_cutoffs)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix tagged with its space.

    ``hermitian_hint=True`` asserts Hermiticity at construction, entrywise
    to ``HERMITICITY_ATOL``.
    """

    space: SpaceSpec
    entries: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128, copy=True, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if m.shape[0] != self.space.dim:
            raise ValueError(f"matrix dimension {m.shape[0]} does not match "
                             f"space dimension {self.space.dim}")
        if self.hermitian_hint:
            dev = float(np.abs(m - m.conj().T).max())
            if not dev <= HERMITICITY_ATOL:
                raise NumericalConsistencyError(
                    f"matrix flagged Hermitian deviates by {dev:.3e} "
                    f"(> {HERMITICITY_ATOL})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized complex vector over a :class:`SpaceSpec`."""

    space: SpaceSpec
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if v.ndim != 1:
            raise ValueError(f"state must be a 1-D vector, got shape {v.shape}")
        if v.shape[0] != self.space.dim:
            raise ValueError(f"state length {v.shape[0]} does not match "
                             f"space dimension {self.space.dim}")
        norm_sq = float(np.vdot(v, v).real)
        if not abs(norm_sq - 1.0) <= NORM_SQ_ATOL:
            raise NumericalConsistencyError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))
