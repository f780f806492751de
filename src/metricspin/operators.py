"""Dense operator algebra on truncated spin (x) boson Hilbert spaces.

Basis convention, frozen for the whole package: composite spaces are
ordered spin (x) alpha (x) beta with row-major indexing, so the basis
state ``|s, n_a, n_b>`` sits at flat index ``s*N_a*N_b + n_a*N_b + n_b``.
Spin index 0 is "up" in the sigma-z eigenbasis.  Each bosonic mode keeps
its lowest ``N`` Fock levels ``|0> ... |N-1>``.

Everything is stored dense (largest space in scope is a few hundred
states, where dense Hermitian solvers beat sparse machinery) and values
are immutable after construction, so they are safe to share between
threads.
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
#: largest imaginary part tolerated in a Hermitian expectation value
IMAG_GUARD = 1e-10

_SLOT_NAMES = ("spin", "alpha", "beta")


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

    def slot_dim(self, slot: str) -> int:
        """Dimension of the named tensor factor (spin, alpha or beta)."""
        if slot == "spin":
            return self.spin_dim
        if slot in ("alpha", "beta"):
            i = 0 if slot == "alpha" else 1
            if i >= len(self.fock_cutoffs):
                raise ValueError(f"space {self} has no {slot!r} mode")
            return self.fock_cutoffs[i]
        raise ValueError(f"unknown slot {slot!r}; expected one of {_SLOT_NAMES}")

    def index(self, spin: int, *mode_levels: int) -> int:
        """Row-major flat index of the basis state |spin, n_a, n_b, ...>."""
        if len(mode_levels) != len(self.fock_cutoffs):
            raise ValueError("one occupation number per mode required")
        idx = spin
        for n, cutoff in zip(mode_levels, self.fock_cutoffs):
            if not 0 <= n < cutoff:
                raise ValueError(f"occupation {n} outside [0, {cutoff})")
            idx = idx * cutoff + n
        return idx


def single_mode_space(N: int) -> SpaceSpec:
    """Space of one truncated bosonic mode, no spin factor."""
    return SpaceSpec(spin_dim=1, fock_cutoffs=(int(N),))


def spin_space() -> SpaceSpec:
    """Bare spin-1/2 space."""
    return SpaceSpec(spin_dim=2, fock_cutoffs=())


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix tagged with its space.

    ``hermitian_hint=True`` asserts Hermiticity at construction (entrywise
    to ``HERMITICITY_ATOL``) and makes expectation values return reals.
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

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.entries.conj().T,
                              self.hermitian_hint)


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


def annihilation_matrix(N: int) -> OperatorMatrix:
    """Truncated bosonic annihilation operator on ``N`` Fock levels.

    Entry ``(n-1, n)`` is ``sqrt(n)``; the vacuum is annihilated.  The
    truncation leaves ``[a, a^dag]`` equal to the identity everywhere
    except the top corner, where it is ``-(N-1)``; that artifact is
    quantified by tests rather than patched.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"invalid cutoff: need at least the vacuum level, got N={N}")
    m = np.zeros((N, N), dtype=np.complex128)
    n = np.arange(1, N)
    m[n - 1, n] = np.sqrt(n)
    return OperatorMatrix(single_mode_space(N), m)


def number_matrix(N: int) -> OperatorMatrix:
    """Occupation-number operator ``diag(0, 1, ..., N-1)``."""
    N = int(N)
    if N < 1:
        raise ValueError(f"invalid cutoff: need at least the vacuum level, got N={N}")
    m = np.diag(np.arange(N, dtype=np.complex128))
    return OperatorMatrix(single_mode_space(N), m, hermitian_hint=True)


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_matrix(axis: str) -> OperatorMatrix:
    """Standard 2x2 Pauli matrix in the sigma-z eigenbasis."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return OperatorMatrix(spin_space(), _PAULI[axis], hermitian_hint=True)


def identity_matrix(space: SpaceSpec) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim, dtype=np.complex128),
                          hermitian_hint=True)


def tensor_embed(op: OperatorMatrix, slot: str, space: SpaceSpec) -> OperatorMatrix:
    """Embed a single-factor operator into a composite space.

    The result is the Kronecker product with identities on every other
    factor, respecting the fixed spin (x) alpha (x) beta ordering.

    Parameters
    ----------
    op : OperatorMatrix
        Operator acting on a single tensor factor.
    slot : {'spin', 'alpha', 'beta'}
        Which factor of ``space`` the operator acts on.
    space : SpaceSpec
        Target composite space.
    """
    want = space.slot_dim(slot)
    if op.dim != want:
        raise ValueError(f"operator dimension {op.dim} does not match the "
                         f"{slot!r} factor of dimension {want}")
    factors = [np.eye(space.spin_dim, dtype=np.complex128)]
    factors += [np.eye(n, dtype=np.complex128) for n in space.fock_cutoffs]
    pos = {"spin": 0, "alpha": 1, "beta": 2}[slot]
    factors[pos] = op.entries
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return OperatorMatrix(space, out, hermitian_hint=op.hermitian_hint)


def expectation(op: OperatorMatrix, psi: StateVector):
    """Expectation value <psi| op |psi>.

    Returns the real part (guarding ``|Im| <= IMAG_GUARD``) when the
    operator carries a Hermitian hint, a complex number otherwise.
    """
    if op.space != psi.space:
        raise ValueError("operator and state live on different spaces: "
                         f"{op.space} vs {psi.space}")
    val = complex(np.vdot(psi.amplitudes, op.entries @ psi.amplitudes))
    if op.hermitian_hint:
        if not abs(val.imag) <= IMAG_GUARD:
            raise NumericalConsistencyError(
                f"Hermitian expectation value has imaginary part {val.imag:.3e}")
        return val.real
    return val
