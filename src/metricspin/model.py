"""Spin-1/2 coupled to two bosonic modes: Hamiltonian, evolution, observables.

The model Hamiltonian on spin (x) alpha (x) beta is

    H = sqrt(2) sigma_x
      + sqrt(2) (n_alpha + n_beta)
      + g [ (b + b^dag) sigma_x + (a + a^dag) sigma_y ],

with spin-boson coupling ``g = -sqrt(2 G) / (sqrt(pi) mu^(3/2))``.  Note
the beta mode couples through sigma_x and the alpha mode through
sigma_y.

Basis convention, frozen for the whole package: the full space is spin
(x) alpha (x) beta, row-major, so ``|s, n_a, n_b>`` sits at flat index
``s*N*N + n_a*N + n_b``; spin index 0 is sigma-z "up", and each mode
keeps its Fock levels ``|0> ... |N-1>``, so a state has ``2 N^2`` entries.

H commutes with the parity S = sigma_x (x) (-1)^n_alpha (x) 1, the Z2
symmetry of the Rabi model, so it splits exactly into two blocks of
N*N states.  Block s = +1 or -1 has the gauged basis
i^n_a |e_sigma, n_a, n_b>, where e_sigma is the sigma_x eigenstate with
sigma = s (-1)^n_a: sigma_x is diagonal there, and sigma_y (a + a^dag),
a hop in n_a weighted by -i sigma, becomes the real hop +-sqrt(n) sigma
through the phase i^n_a.  Each block is written diagonal by diagonal
(the main diagonal and the hops at offsets +-1 and +-N) into one zeroed
real symmetric array, so assembling it holds no other array of its
size; a block with a nonzero imaginary entry is refused at
construction.  Evolution is exact spectral propagation: a block is
diagonalized (real symmetric eigensolve) only when the initial
state has weight in it, which is one block for spin-x starts and both
for y and z, and phases ``exp(-i E t)`` are applied, so there is no
time-step error.  The time
grid is propagated in chunks and every observable is reduced from the
block amplitudes of each chunk, held state-major as (states, times), so
memory does not grow with the grid.  A chunk's length comes from a byte
budget: one worker's complex phase block holds at most 196 x 128 states
x steps (0.4 MB, 128 steps at the default N=14), and no chunk is shorter
than 64 steps.  On the uniform grid the phases
factor as ``exp(-i E t0) exp(-i E dt j)``: the step table is built once
per block and each chunk adds only its start factor, then takes one
real matrix product of the eigenvectors with the interleaved real and
imaginary parts.  The energy check applies each block to its amplitudes
through its five nonzero diagonals (n_b hops at offset +-1, n_a hops at
+-N), after verifying that the assembled block has no weight elsewhere.
The dense matrix on the full space is built only on demand.

Every eigensolve and chunk runs in :mod:`metricspin.parallel`'s BLAS pin.
A trace is its setup, in the calling thread (each occupied block's
eigensolve, step table and bands), then the map of its independent
chunks over the calling thread and the chunk threads, each chunk
writing only its own rows of the output columns.  A truncation
convergence prepares each next cutoff, one block at a time, as the
calling thread's lead job in the current cutoff's map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import pairwise

import numpy as np

from .errors import NumericalConsistencyError
from .parallel import _ONE_BLAS_THREAD, _threaded

SQRT2 = math.sqrt(2.0)

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: entrywise tolerance on the Hermiticity of a model matrix
HERMITICITY_ATOL = 1e-12
#: tolerance on | <psi|psi> - 1 | at state construction
NORM_SQ_ATOL = 1e-10
#: tolerance on | ||psi(t)|| - 1 | along a trace
NORM_DRIFT_ATOL = 1e-10
#: relative tolerance on energy constancy along a trace
ENERGY_DRIFT_RTOL = 1e-8

#: most time points propagated together, and the byte budget of one worker's
#: chunk: its complex phase block holds at most _CHUNK_STATES states x steps
#: (196 x 128 complex numbers, 0.4 MB, which stays in cache), so a block of
#: more than 196 states takes fewer steps, but never fewer than
#: _MIN_CHUNK_STEPS, so that each eigenvector product still spans at least
#: 128 real columns
_CHUNK_STEPS = 128
_CHUNK_STATES = 196 * _CHUNK_STEPS
_MIN_CHUNK_STEPS = 64


@dataclass(frozen=True)
class ModelParams:
    """All simulation inputs: coupling knob G, mass mu, cutoff N, time grid."""

    G: float
    mu: float = 1.0
    N: int = 14
    t_max: float = 100.0
    dt: float = 0.02

    def __post_init__(self):
        # written so that nan fails every check; G and mu must give a finite coupling
        g = coupling_strength(self.G, self.mu)
        if not isinstance(self.N, (int, np.integer)):
            raise ValueError(f"cutoff N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.N < 2:
            raise ValueError(f"cutoff N must be >= 2, got {self.N}")
        # a state's 2 N^2 entries must fit np.intp, as the time grid's must
        if not 2 * self.N ** 2 <= np.iinfo(np.intp).max:
            raise ValueError(f"cutoff N must be at most {math.isqrt(np.iinfo(np.intp).max // 2)}, "
                             f"so that its 2 N^2 states fit an array index")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ValueError(f"t_max must be finite and >= dt, got t_max={self.t_max} "
                             f"dt={self.dt}")
        # the grid's last index must fit np.intp: checked before any grid exists
        if not self.t_max / self.dt < np.iinfo(np.intp).max:
            raise ValueError(f"t_max/dt = {self.t_max / self.dt:.3g} time steps do not "
                             f"fit an array index (t_max={self.t_max}, dt={self.dt})")
        # every phase E t must be a finite number: |E| is at most a block's
        # Gershgorin bound, its diagonal sqrt2 (2N - 1) plus two hops per mode,
        # each at most |g| sqrt(N - 1)
        bound = SQRT2 * (2 * self.N - 1) + 4.0 * abs(g) * math.sqrt(self.N - 1)
        if not math.isfinite(bound * self.t_max):
            raise ValueError(f"t_max={self.t_max} overflows the phases E t, |E| <= {bound:.3g}")

    @property
    def times(self) -> np.ndarray:
        """Output grid t = 0, dt, ..., t_max (inclusive up to rounding)."""
        n_steps = int(math.floor(self.t_max / self.dt + 1e-9))
        return self.dt * np.arange(n_steps + 1)


def coupling_strength(G: float, mu: float) -> float:
    """Effective spin-boson coupling ``-sqrt(2 G) / (sqrt(pi) mu^(3/2))``.

    Its magnitude reaches the bosonic self-interaction sqrt(2) at
    ``G = pi`` (for mu = 1), the crossover point of the phenomenology.
    A ``mu`` so large or small that ``mu^(3/2)`` overflows or underflows
    to 0, or a ``G`` and ``mu`` that leave the coupling non-finite, raise
    ``ValueError``.
    """
    G = float(G)
    mu = float(mu)
    if not (math.isfinite(G) and G >= 0):
        raise ValueError(f"G must be finite and non-negative, got {G}")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu}")
    try:
        g = -math.sqrt(2.0 * G) / (math.sqrt(math.pi) * mu ** 1.5)
    except (OverflowError, ZeroDivisionError):
        g = math.nan
    if not math.isfinite(g):
        raise ValueError(f"G={G} and mu={mu} are out of range: the coupling "
                         f"-sqrt(2 G) / (sqrt(pi) mu^1.5) is not a finite number")
    return g


def _mode_factors(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels ``0..N-1``, the quadrature ``a + a^dag`` and the parity ``(-1)^n``."""
    levels = np.arange(N, dtype=float)
    hop = np.diag(np.sqrt(levels[1:]), 1)
    return levels, hop + hop.T, (-1.0) ** levels


def _gauge(N: int) -> np.ndarray:
    """The basis phase ``i^n_a`` of a block, at each flat index ``n_a*N + n_b``."""
    return np.repeat(np.array([1, 1j, -1, -1j])[np.arange(N) % 4], N)


@dataclass(frozen=True)
class OperatorMatrix:
    """Read-only dense square matrix, Hermitian to ``HERMITICITY_ATOL`` (NaN fails)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128, copy=True, order="C")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        dev = float(np.abs(m - m.conj().T).max(initial=0.0))
        if not dev <= HERMITICITY_ATOL:
            raise NumericalConsistencyError(
                f"matrix deviates from Hermitian by {dev:.3e} (> {HERMITICITY_ATOL})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized complex vector on the full space, read-only."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if v.ndim != 1:
            raise ValueError(f"state must be a 1-D vector, got shape {v.shape}")
        norm_sq = float(np.vdot(v, v).real)
        if not abs(norm_sq - 1.0) <= NORM_SQ_ATOL:
            raise NumericalConsistencyError(
                f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)


def _check_state(psi0: StateVector, N: int) -> None:
    """Refuse a state whose length is not the ``2 N^2`` of the model at cutoff ``N``."""
    if psi0.amplitudes.size != 2 * N * N:
        raise ValueError(f"state length {psi0.amplitudes.size} does not match the "
                         f"2 N^2 = {2 * N * N} states of cutoff N={N}")


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """H restricted to the sector ``S = sign``.

    Basis ``i^n_a |e_sigma, n_a, n_b>`` with ``sigma = sign * (-1)^n_a`` at
    flat index ``n_a*N + n_b``, in which the block is real symmetric.
    ``entries`` is stored once, as a read-only C-contiguous float64 array;
    a non-square array, any nonzero (or NaN) imaginary part and an
    asymmetry above ``HERMITICITY_ATOL`` (NaN included) raise
    :class:`NumericalConsistencyError` at construction.
    """

    sign: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NumericalConsistencyError(
                f"parity block {self.sign:+d} must be square, got shape {m.shape}")
        if np.iscomplexobj(m):
            if m.imag.any():
                raise NumericalConsistencyError(
                    f"parity block {self.sign:+d} is not real in its gauged basis")
            m = m.real
        m = np.array(m, dtype=np.float64, order="C")
        # an exactly symmetric finite block, as assembled, is checked through
        # boolean temporaries; any other gets the float one of m's size
        if not (np.array_equal(m, m.T) and np.isfinite(m).all()):
            asymmetry = m - m.T
            dev = float(np.abs(asymmetry, out=asymmetry).max(initial=0.0))
            if not dev <= HERMITICITY_ATOL:
                raise NumericalConsistencyError(
                    f"parity block {self.sign:+d} deviates from symmetric by {dev:.3e} "
                    f"(> {HERMITICITY_ATOL})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and real eigenvectors of :attr:`entries`, solved on each call."""
        try:
            with _ONE_BLAS_THREAD:
                evals, evecs = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalConsistencyError(f"eigensolver failed: {exc}") from exc
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs

    def bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Main diagonal and the upper bands at offsets 1 and N of :attr:`entries`.

        The n_b hops sit at offset +-1 and the n_a hops at +-N; a nonzero
        entry anywhere else raises :class:`NumericalConsistencyError`, so
        the banded energy check applies the matrix as assembled.
        """
        m = self.entries
        N = math.isqrt(m.shape[0])
        on_band = sum(np.count_nonzero(np.diagonal(m, k)) for k in (0, 1, -1, N, -N))
        if np.count_nonzero(m) != on_band:
            raise NumericalConsistencyError(
                f"parity block {self.sign:+d} has weight off the diagonals at "
                f"offsets 0, +-1 and +-{N}")
        return np.diagonal(m), np.diagonal(m, 1), np.diagonal(m, N)


@dataclass(eq=False)
class MinimalHamiltonian:
    """Model Hamiltonian held as its two parity blocks, ``(+1, -1)``."""

    params: ModelParams
    g: float
    blocks: tuple[ParityBlock, ParityBlock]

    @cached_property
    def matrix(self) -> OperatorMatrix:
        """Dense matrix on spin (x) alpha (x) beta, built on first access."""
        N = self.params.N
        levels, quad, _ = _mode_factors(N)
        eye = np.eye(N)
        m = (SQRT2 * np.kron(_PAULI_X, np.eye(N * N))
             + SQRT2 * np.kron(np.eye(2), np.diag(np.add.outer(levels, levels).ravel()))
             + self.g * (np.kron(_PAULI_X, np.kron(eye, quad))
                         + np.kron(_PAULI_Y, np.kron(quad, eye))))
        return OperatorMatrix(m)

    @cached_property
    def eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Full spectrum as the eigensystems of both blocks, ``(+1, -1)``.

        Propagation asks each block for its own, so it solves only the
        blocks an initial state occupies.
        """
        return tuple(block.eigensystem() for block in self.blocks)


def _band(m: np.ndarray, k: int) -> np.ndarray:
    """Writable view of the diagonal at offset ``k`` of the C-contiguous square ``m``."""
    d = m.shape[0]
    flat = m.reshape(-1)
    return flat[k:d * (d - k):d + 1] if k >= 0 else flat[-k * d::d + 1]


def build_minimal_hamiltonian(params: ModelParams, g: float | None = None) -> MinimalHamiltonian:
    """Assemble both parity blocks of the model Hamiltonian from their five diagonals.

    Each block is written into one zeroed array, its main diagonal and its
    hops at offsets +-1 (n_b) and +-N (n_a), and is checked to be real
    symmetric on construction.

    ``g`` defaults to ``coupling_strength(params.G, params.mu)``; passing
    an explicit value (e.g. 0 to freeze the spin-boson exchange at any G)
    overrides it.
    """
    if g is None:
        g = coupling_strength(params.G, params.mu)
    g = float(g)
    blocks = tuple(_parity_block(params.N, g, sign) for sign in (1, -1))
    return MinimalHamiltonian(params=params, g=g, blocks=blocks)


def _parity_block(N: int, g: float, sign: int) -> ParityBlock:
    """Block ``sign`` of the model at cutoff ``N`` and coupling ``g``, from its five diagonals."""
    d = N * N
    levels, _, parity = _mode_factors(N)
    root = np.sqrt(levels[1:])                # <n-1| (a + a^dag) |n> = sqrt(n)
    spin = sign * parity                      # sigma_x eigenvalue at each n_a
    entries = np.zeros((d, d))
    _band(entries, 0)[:] = (SQRT2 * (spin[:, None] + levels[:, None]
                                     + levels[None, :])).ravel()
    # sigma_x (b + b^dag) keeps sigma: an n_b hop sqrt(n) sigma inside each
    # n_a row, none from n_b = N-1 to the next row's n_b = 0
    hop_b = np.zeros((N, N))
    hop_b[:, :-1] = spin[:, None] * root
    # sigma_y |e_sigma> = -i sigma |e_-sigma> pairs with the n_a hop of
    # (a + a^dag), which flips sigma, and the phase i^n_a of the basis turns
    # its -i into a real hop, sqrt(n) times sigma at the upper level n
    hop_a = np.repeat(root * spin[1:], N)
    for k, hop in ((1, hop_b.ravel()[:-1]), (N, hop_a)):
        band = 0.0 + g * hop                  # 0.0 +: a zero g leaves +0.0, not -0.0
        _band(entries, k)[:] = band
        _band(entries, -k)[:] = band
    return ParityBlock(sign, entries)


_SPIN_STATES = {
    ("x", +1): np.array([1.0, 1.0], dtype=np.complex128) / SQRT2,
    ("x", -1): np.array([1.0, -1.0], dtype=np.complex128) / SQRT2,
    ("y", +1): np.array([1.0, 1.0j], dtype=np.complex128) / SQRT2,
    ("y", -1): np.array([1.0, -1.0j], dtype=np.complex128) / SQRT2,
    ("z", +1): np.array([1.0, 0.0], dtype=np.complex128),
    ("z", -1): np.array([0.0, 1.0], dtype=np.complex128),
}


def spin_state(direction: str, sign: int) -> np.ndarray:
    """Spin part of an initial state: the ``sign`` eigenvector of sigma_direction."""
    if (direction, sign) not in _SPIN_STATES:
        raise ValueError(f"direction must be x|y|z with sign +-1, got "
                         f"{direction!r}, {sign!r}")
    return _SPIN_STATES[direction, sign]


def initial_state(direction: str, sign: int, N: int) -> StateVector:
    """Product state at cutoff ``N``: spin along +/- direction, both modes in vacuum."""
    spin = spin_state(direction, sign)
    vac = np.zeros(N * N, dtype=np.complex128)
    vac[0] = 1.0
    return StateVector(np.kron(spin, vac))


def _block_amplitudes(psi: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Components ``W_s^dag psi`` of a full-space vector in blocks +1 and -1."""
    up, down = psi.reshape(2, N, N)
    down = down * _mode_factors(N)[2][:, None]
    phase = _gauge(N).conj()
    return phase * ((up + down) / SQRT2).ravel(), phase * ((up - down) / SQRT2).ravel()


class _Propagator:
    """Block amplitudes of ``psi(t)``, one chunk of time points at a time.

    A chunk holds the times ``t0 + j*dt`` for ``j < count``, ``count`` at
    most ``steps``.  :meth:`solve` gives a block its eigensystem and its
    step table ``exp(-i E dt j)``, once; :meth:`chunk` then costs one
    exponential per state for its start factor ``exp(-i E t0) c0``,
    broadcast into the table, and one real product of the eigenvectors
    with the interleaved real and imaginary parts.  A one-point chunk has
    the phases ``exp(-i E t0)`` exactly, whatever ``dt``.  Only the
    :attr:`occupied` blocks, those ``psi0`` has weight in, are solved, in
    the calling thread; the others stay ``None``.

    :meth:`chunk` calls no function of this module, so worker threads may
    run it with their own :meth:`buffers`.
    """

    def __init__(self, psi0: StateVector, N: int, dt: float, steps: int):
        self.dim = N * N
        self.steps = steps
        self.times = dt * np.arange(steps)
        self.phi0 = _block_amplitudes(psi0.amplitudes, N)
        self.occupied = [i for i, phi0 in enumerate(self.phi0) if phi0.any()]
        self.spectra = [None, None]

    def solve(self, i: int, evals: np.ndarray, evecs: np.ndarray) -> None:
        """Take the eigensystem of block ``i`` (0 for +1, 1 for -1) and make its step table."""
        table = -1j * np.outer(evals, self.times)
        self.spectra[i] = (evals, np.exp(table, out=table), evecs, evecs.T @ self.phi0[i])

    def buffers(self, count: int) -> tuple[np.ndarray, list]:
        """One worker's scratch: a complex phase block and each block's amplitudes."""
        return (np.empty(self.dim * count, dtype=complex),
                [None if s is None else np.empty(2 * self.dim * count) for s in self.spectra])

    def chunk(self, t0: float, count: int, phase: np.ndarray, amps: list):
        """``(plus, minus)`` at ``t0 + j*dt``, ``j < count``, written into ``amps``.

        Each is the amplitudes of block +1 or -1, one column per time
        point, or ``None`` for a block without weight.  ``phase`` is free
        again on return.
        """
        out = []
        for s, amp in zip(self.spectra, amps):
            if s is None:
                out.append(None)
                continue
            evals, table, evecs, c0 = s
            # phi[:, j] = V (exp(-i E dt j) * exp(-i E t0) * c0), the real V
            # applied to the interleaved real and imaginary parts at once
            p = phase[:self.dim * count].reshape(self.dim, count)
            np.multiply(table[:, :count], (np.exp(-1j * t0 * evals) * c0)[:, None], out=p)
            a = amp[:2 * self.dim * count].reshape(self.dim, 2 * count)
            out.append(np.matmul(evecs, p.view(float), out=a).view(complex))
        return tuple(out)


def evolve(h: MinimalHamiltonian, psi0: StateVector, times) -> list[StateVector]:
    """Evolve ``psi0`` to each requested time by spectral propagation.

    ``times`` must be finite, non-negative and sorted.  The t = 0 entry returns
    the input state unchanged; every propagated state is re-validated to
    unit norm on construction.  A state of another cutoff raises ``ValueError``.
    """
    _check_state(psi0, h.params.N)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    # written so that nan and +-inf fail
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and non-negative")
    if not np.all(np.diff(times) >= 0):
        raise ValueError("times must be sorted in increasing order")
    N = h.params.N
    parity = np.repeat(_mode_factors(N)[2], N)
    gauge = _gauge(N)
    out = []
    with _ONE_BLAS_THREAD:
        propagator = _Propagator(psi0, N, 0.0, 1)
        for i in propagator.occupied:
            propagator.solve(i, *h.blocks[i].eigensystem())
        buffers = propagator.buffers(1)
        # each requested time is its own one-point chunk, so the grid may be arbitrary
        for t in times:
            # back to the full space, W_+ plus + W_- minus; None is an empty block
            plus, minus = (0.0 if a is None else gauge * a[:, 0]
                           for a in propagator.chunk(t, 1, *buffers))
            amp = np.concatenate([(plus + minus) / SQRT2, parity * (plus - minus) / SQRT2])
            out.append(psi0 if t == 0.0 else StateVector(amp))
    return out


@dataclass(frozen=True)
class ObservableTrace:
    """Time series of spin components, mode populations, energy and norm."""

    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    n_alpha: np.ndarray
    n_beta: np.ndarray
    energy: np.ndarray
    norm: np.ndarray

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has length {arr.shape}, expected {n}")

    # populations mapped to [0, 1]; plots of the spin curves use these
    @property
    def px(self) -> np.ndarray:
        return 0.5 * (1.0 + self.sx)

    @property
    def py(self) -> np.ndarray:
        return 0.5 * (1.0 + self.sy)

    @property
    def pz(self) -> np.ndarray:
        return 0.5 * (1.0 + self.sz)


def observable_trace(h: MinimalHamiltonian, psi0: StateVector) -> ObservableTrace:
    """Evaluate all observables on the time grid of ``h.params``.

    Every column is reduced from the parity-block amplitudes chunk by
    chunk: norm, sx and the mode populations from the block weights, sy
    and sz from the overlap between the two blocks, and the energy by
    applying each assembled block, through its bands, to its propagated
    amplitudes (independently of the eigenvectors).  Norm and
    energy constancy are enforced (``NORM_DRIFT_ATOL``,
    ``ENERGY_DRIFT_RTOL``); a violation, NaN included, raises
    :class:`NumericalConsistencyError` since it signals a broken
    propagation, not physics.  A state of another cutoff raises ``ValueError``.

    The trace is its setup (:func:`_prepared`) then its chunk map
    (:func:`_traced`), both under one hold of the BLAS pin.
    """
    _check_state(psi0, h.params.N)
    with _ONE_BLAS_THREAD as cpus:
        return _traced(*_prepared(h.params, psi0, h.blocks.__getitem__), cpus)


def _prepared(params: ModelParams, psi0: StateVector, block):
    """The setup of a trace of ``psi0`` on the grid of ``params``, in the calling thread.

    ``block(i)`` gives parity block ``i`` (0 for +1, 1 for -1).  It is
    asked for only if ``psi0`` has weight in it, and one block at a time:
    its bands are checked and copied, it is solved, and it is dropped
    before the next is asked for, so a block made for the call holds its
    dense entries only until its eigensolve returns.  Runs under the held
    BLAS pin; returns the arguments of :func:`_traced` before ``cpus``.
    """
    span = max(_MIN_CHUNK_STEPS, min(_CHUNK_STEPS, _CHUNK_STATES // params.N ** 2))
    propagator = _Propagator(psi0, params.N, params.dt, min(span, params.times.size))
    bands = {}
    for i in propagator.occupied:
        b = block(i)
        bands[i] = _banded(b)
        evals, evecs = b.eigensystem()
        del b                   # its dense entries go before the step table is made
        propagator.solve(i, evals, evecs)
    return params, propagator, bands


def _banded(block: ParityBlock) -> tuple[int, tuple[np.ndarray, ...]]:
    """``block``'s sign and copies of its :meth:`~ParityBlock.bands`, free of its entries.

    The copies sit in the columns of one array, so, like the diagonal
    views, they have a non-unit stride, and their products the same bits.
    """
    views = block.bands()
    kept = np.empty((views[0].size, 3))
    copies = tuple(kept[:v.size, k] for k, v in enumerate(views))
    for copy, view in zip(copies, views):
        copy[:] = view
    return block.sign, copies


def _traced(params: ModelParams, propagator: _Propagator, bands: dict, cpus: int,
            lead=None) -> ObservableTrace:
    """The chunk map of a prepared trace, then its norm and energy checks.

    Runs under the held BLAS pin that gave ``cpus``: the map's workers are
    the calling thread, which first runs ``lead()`` if given, and the
    chunk threads :func:`_threaded` starts.
    """
    times = params.times
    N = params.N
    levels, _, parity = _mode_factors(N)
    w_alpha = np.repeat(levels, N)
    w_beta = np.tile(levels, N)
    w_parity = np.repeat(parity, N)       # sigma_x = sign * (-1)^n_a in a block
    cols = {name: np.zeros(times.size)
            for name in ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm")}

    d = N * N
    steps = propagator.steps
    # the grid is t_k = k dt, so chunk c starts at times[c * steps]
    chunks = [(lo, times[lo], min(steps, times.size - lo))
              for lo in range(0, times.size, steps)]

    def reduce_chunk(lo, t0, count, phase, amps, weight) -> None:
        # reduces one chunk into its rows of cols; runs on chunk threads, so it
        # calls numpy and the propagator only
        rows = slice(lo, lo + count)
        plus, minus = propagator.chunk(t0, count, phase, amps)
        # phase is free once the amplitudes exist: it is the scratch, then cross
        scratch = phase.view(float)
        w = weight[:d * count].reshape(d, count)
        for i, phi in enumerate((plus, minus)):
            if phi is None:
                continue
            # prob = |phi|^2: the first occupied block's (plus, or minus alone)
            # goes into weight, the second's into scratch and is then added
            p = w if i == 0 or plus is None else scratch[d * count:2 * d * count].reshape(d, count)
            np.square(phi.real, out=p)
            np.add(p, np.square(phi.imag, out=scratch[:d * count].reshape(d, count)),
                   out=p)
            if p is not w:
                np.add(w, p, out=w)
            sign, (d0, d1, dN) = bands[i]
            cols["sx"][rows] += sign * (w_parity @ p)
            # <phi|H_s phi> from the diagonal and the real bands at offsets 1 and N;
            # Re(conj(x) y) sums the products of the interleaved re, im columns
            on_site = d0 @ p                # before the hop products overwrite p
            f = phi.view(float)
            hop1 = d1 @ np.multiply(f[:-1], f[1:],
                                    out=scratch[:(d - 1) * 2 * count].reshape(d - 1, -1))
            hopN = dN @ np.multiply(f[:-N], f[N:],
                                    out=scratch[:(d - N) * 2 * count].reshape(d - N, -1))
            cols["energy"][rows] += on_site + 2.0 * (hop1 + hopN).reshape(-1, 2).sum(axis=1)
        cols["norm"][rows] = np.sqrt(w.sum(axis=0))
        cols["n_alpha"][rows] = w_alpha @ w
        cols["n_beta"][rows] = w_beta @ w
        if plus is not None and minus is not None:
            # sigma_z |e_sigma> = |e_-sigma>, sigma_y |e_sigma> = -i sigma |e_-sigma>;
            # both blocks carry the same phase i^n_a, which cancels here
            cross = np.conjugate(plus, out=phase[:d * count].reshape(d, count))
            np.multiply(cross, minus, out=cross)
            cols["sz"][rows] = 2.0 * cross.real.sum(axis=0)
            cols["sy"][rows] = -2.0 * (w_parity @ cross.imag)

    _threaded(reduce_chunk, chunks, cpus,
              lambda: (*propagator.buffers(steps), np.empty(d * steps)), lead)

    norm_drift = float(np.abs(cols["norm"] - 1.0).max())
    if not norm_drift <= NORM_DRIFT_ATOL:
        raise NumericalConsistencyError(
            f"norm drifted by {norm_drift:.3e} along the trace")
    energy = cols["energy"]
    drift = float(np.abs(energy - energy[0]).max())
    if not drift <= ENERGY_DRIFT_RTOL * (1.0 + abs(energy[0])):
        raise NumericalConsistencyError(
            f"energy drifted by {drift:.3e} along the trace")
    return ObservableTrace(times=times, **cols)


def symmetry_check(h: MinimalHamiltonian) -> float:
    """Residual ``max |[H, S]|`` for S = sigma_x (x) parity(alpha) (x) 1.

    S commutes with every term of the model for any coupling (the
    sigma_y (a + a^dag) term anticommutes with both factors of S), which
    is the exact reason a spin-x start never develops sigma_y or sigma_z
    components.
    """
    N = h.params.N
    s_op = np.kron(_PAULI_X, np.kron(np.diag(_mode_factors(N)[2]), np.eye(N)))
    H = h.matrix.entries
    with _ONE_BLAS_THREAD:
        return float(np.abs(H @ s_op - s_op @ H).max())


def convergence_params(params: ModelParams, N_list) -> list[ModelParams]:
    """``params`` at each cutoff of ``N_list``: at least two integers, strictly increasing."""
    cutoffs = [replace(params, N=N) for N in N_list]    # refuses a non-integral cutoff
    if len(cutoffs) < 2:
        raise ValueError("need at least two cutoffs to compare")
    if any(b.N <= a.N for a, b in pairwise(cutoffs)):
        raise ValueError(f"cutoff list must be strictly increasing, got {[c.N for c in cutoffs]}")
    return cutoffs


def truncation_convergence(params: ModelParams, direction: str, sign: int,
                           N_list) -> list[tuple[int, int, float]]:
    """Max observable deviation between runs at consecutive cutoffs.

    For each consecutive pair of ``N_list`` the reported number is the
    maximum over the time grid and over the five observables
    (sx, sy, sz, n_alpha, n_beta) of the absolute trace difference.

    The cutoffs are pipelined: while the chunk threads propagate cutoff k,
    the calling thread, as the lead of its chunk map, prepares cutoff
    k + 1, assembling, solving and dropping one block at a time.  Every
    eigensolve stays in the calling thread, and only the two traces
    compared are held.
    """
    cutoffs = convergence_params(params, N_list)
    g = coupling_strength(params.G, params.mu)

    def prepared(p: ModelParams):
        return _prepared(p, initial_state(direction, sign, p.N),
                         lambda i: _parity_block(p.N, g, (1, -1)[i]))

    pairs, lo = [], None
    with _ONE_BLAS_THREAD as cpus:
        ahead = [prepared(cutoffs[0])]
        for k, p in enumerate(cutoffs):
            hi = _traced(*ahead.pop(), cpus,
                         lambda: ahead.extend(map(prepared, cutoffs[k + 1:k + 2])))
            if lo is not None:
                pairs.append((cutoffs[k - 1].N, p.N,
                              max(float(np.abs(getattr(lo, name) - getattr(hi, name)).max())
                                  for name in ("sx", "sy", "sz", "n_alpha", "n_beta"))))
            lo = hi
    return pairs
