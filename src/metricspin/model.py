"""Spin-1/2 coupled to two bosonic modes: Hamiltonian, evolution, observables.

The model Hamiltonian on spin (x) alpha (x) beta is

    H = sqrt(2) sigma_x
      + sqrt(2) (n_alpha + n_beta)
      + g [ (b + b^dag) sigma_x + (a + a^dag) sigma_y ],

with spin-boson coupling ``g = -sqrt(2 G) / (sqrt(pi) mu^(3/2))``.  Note
the beta mode couples through sigma_x and the alpha mode through
sigma_y.

H commutes with the parity S = sigma_x (x) (-1)^n_alpha (x) 1, the Z2
symmetry of the Rabi model, so it splits exactly into two blocks of
N*N states.  Block s = +1 or -1 has the gauged basis
i^n_a |e_sigma, n_a, n_b>, where e_sigma is the sigma_x eigenstate with
sigma = s (-1)^n_a: sigma_x is diagonal there, and sigma_y (a + a^dag),
a hop in n_a weighted by -i sigma, becomes the real hop +-sqrt(n) sigma
through the phase i^n_a.  Both blocks are assembled from Kronecker
products of N x N factors, and each is held as one real symmetric
array; a block with a nonzero imaginary entry is refused at
construction.  Evolution is exact spectral propagation: a block is
diagonalized (real symmetric eigensolve, cached) only when the initial
state has weight in it, which is one block for spin-x starts and both
for y and z, and phases ``exp(-i E t)`` are applied, so there is no
time-step error.  The time
grid is propagated in fixed chunks and every observable is reduced from
the block amplitudes of each chunk, held state-major as (states, times),
so memory does not grow with the grid.  On the uniform grid the phases
factor as ``exp(-i E t0) exp(-i E dt j)``: the step table is built once
per block and each chunk adds only its start factor, then takes one
real matrix product of the eigenvectors with the interleaved real and
imaginary parts.  The energy check applies each block to its amplitudes
through its five nonzero diagonals (n_b hops at offset +-1, n_a hops at
+-N), after verifying that the assembled block has no weight elsewhere.
The dense matrix on the full space is built only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericalConsistencyError
from .gravity import bogoliubov_params
from .operators import HERMITICITY_ATOL, OperatorMatrix, SpaceSpec, StateVector

SQRT2 = math.sqrt(2.0)

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

#: tolerance on | ||psi(t)|| - 1 | along a trace
NORM_DRIFT_ATOL = 1e-10
#: relative tolerance on energy constancy along a trace
ENERGY_DRIFT_RTOL = 1e-8

#: time points propagated together; at the default cutoff a chunk of block
#: amplitudes is 196 x 128 complex numbers (0.4 MB), which stays in cache
_CHUNK_STEPS = 128


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
        coupling_strength(self.G, self.mu)
        if self.N < 2:
            raise ValueError(f"cutoff N must be >= 2, got {self.N}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise ValueError(f"t_max must be finite and >= dt, got t_max={self.t_max} "
                             f"dt={self.dt}")

    @property
    def space(self) -> SpaceSpec:
        return SpaceSpec(spin_dim=2, fock_cutoffs=(self.N, self.N))

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


@dataclass(frozen=True, eq=False)
class ParityBlock:
    """H restricted to the sector ``S = sign``, with a cached eigendecomposition.

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
        dev = float(np.abs(m - m.T).max(initial=0.0))
        if not dev <= HERMITICITY_ATOL:
            raise NumericalConsistencyError(
                f"parity block {self.sign:+d} deviates from symmetric by {dev:.3e} "
                f"(> {HERMITICITY_ATOL})")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and real eigenvectors of :attr:`entries`, once per block."""
        try:
            evals, evecs = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalConsistencyError(f"eigensolver failed: {exc}") from exc
        evals.setflags(write=False)
        evecs.setflags(write=False)
        return evals, evecs

    @cached_property
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

    @property
    def space(self) -> SpaceSpec:
        return self.params.space

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
        return OperatorMatrix(self.space, m, hermitian_hint=True)

    @cached_property
    def eigensystem(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Full spectrum as the eigensystems of both blocks, ``(+1, -1)``.

        Propagation asks each block for its own, so it solves only the
        blocks an initial state occupies.
        """
        return tuple(block.eigensystem for block in self.blocks)


def build_minimal_hamiltonian(params: ModelParams, g: float | None = None) -> MinimalHamiltonian:
    """Assemble both parity blocks of the model Hamiltonian from N x N factors.

    Each block is checked to be real symmetric on construction.

    ``g`` defaults to ``coupling_strength(params.G, params.mu)``; passing
    an explicit value (e.g. 0 to freeze the spin-boson exchange at any G)
    overrides it.
    """
    if g is None:
        g = coupling_strength(params.G, params.mu)
    g = float(g)
    N = params.N
    levels, quad, parity = _mode_factors(N)
    skew = np.triu(quad) - np.tril(quad)      # a - a^dag
    blocks = []
    for sign in (1, -1):
        spin = sign * parity                  # sigma_x eigenvalue at each n_a
        diagonal = SQRT2 * (spin[:, None] + levels[:, None] + levels[None, :])
        # sigma_x (b + b^dag) keeps sigma; sigma_y |e_sigma> = -i sigma |e_-sigma>
        # pairs with the n_a hop of (a + a^dag), which flips sigma, and the
        # phase i^n_a of the basis turns its -i into a real hop, +-sqrt(n) sigma
        hops = np.kron(np.diag(spin), quad) + np.kron(skew * spin, np.eye(N))
        entries = np.diag(diagonal.ravel()) + g * hops
        blocks.append(ParityBlock(sign, entries))
    return MinimalHamiltonian(params=params, g=g, blocks=tuple(blocks))


_SPIN_STATES = {
    ("x", +1): np.array([1.0, 1.0], dtype=np.complex128) / SQRT2,
    ("x", -1): np.array([1.0, -1.0], dtype=np.complex128) / SQRT2,
    ("y", +1): np.array([1.0, 1.0j], dtype=np.complex128) / SQRT2,
    ("y", -1): np.array([1.0, -1.0j], dtype=np.complex128) / SQRT2,
    ("z", +1): np.array([1.0, 0.0], dtype=np.complex128),
    ("z", -1): np.array([0.0, 1.0], dtype=np.complex128),
}


def initial_state(direction: str, sign: int, space: SpaceSpec) -> StateVector:
    """Product state: spin along +/- direction, both modes in vacuum."""
    key = (direction, int(sign))
    if key not in _SPIN_STATES:
        raise ValueError(f"direction must be x|y|z with sign +-1, got "
                         f"{direction!r}, {sign!r}")
    N_a, N_b = space.fock_cutoffs
    vac = np.zeros(N_a * N_b, dtype=np.complex128)
    vac[0] = 1.0
    return StateVector(space, np.kron(_SPIN_STATES[key], vac))


def _block_amplitudes(psi: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Components ``W_s^dag psi`` of a full-space vector in blocks +1 and -1."""
    up, down = psi.reshape(2, N, N)
    down = down * _mode_factors(N)[2][:, None]
    phase = _gauge(N).conj()
    return phase * ((up + down) / SQRT2).ravel(), phase * ((up - down) / SQRT2).ravel()


def _propagate(h: MinimalHamiltonian, psi0: StateVector, chunks, dt: float):
    """Block amplitudes of ``psi(t)``, one chunk of time points at a time.

    ``chunks`` lists ``(t0, count)`` pairs; a chunk holds the times
    ``t0 + j*dt`` for ``j < count``.  Each occupied block gets its step
    table ``exp(-i E dt j)`` once; a chunk then costs one exponential per
    state for its start factor ``exp(-i E t0) c0``, broadcast into the
    table, and one real product of the eigenvectors with the interleaved
    real and imaginary parts.  A one-point chunk has the phases
    ``exp(-i E t0)`` exactly, whatever ``dt``.

    Yields ``(plus, minus)`` per chunk: the amplitudes of blocks +1 and -1,
    one column per time point, or ``None`` for a block that ``psi0`` has no
    weight in (it is never diagonalized).
    """
    steps = dt * np.arange(max((count for _, count in chunks), default=0))
    spectra = []
    for block, phi0 in zip(h.blocks, _block_amplitudes(psi0.amplitudes, h.params.N)):
        if phi0.any():
            evals, evecs = block.eigensystem
            spectra.append((evals, np.exp(-1j * np.outer(evals, steps)), evecs,
                            evecs.T @ phi0))
        else:
            spectra.append(None)
    for t0, count in chunks:
        # phi[:, j] = V (exp(-i E dt j) * exp(-i E t0) * c0) in each occupied block,
        # the real V applied to the interleaved real and imaginary parts at once
        yield tuple(None if s is None
                    else (s[2] @ (s[1][:, :count] * (np.exp(-1j * t0 * s[0]) * s[3])[:, None])
                          .view(float)).view(complex)
                    for s in spectra)


def evolve(h: MinimalHamiltonian, psi0: StateVector, times) -> list[StateVector]:
    """Evolve ``psi0`` to each requested time by spectral propagation.

    ``times`` must be finite, non-negative and sorted.  The t = 0 entry returns
    the input state unchanged; every propagated state is re-validated to
    unit norm on construction.
    """
    if psi0.space != h.space:
        raise ValueError("initial state does not live on the Hamiltonian's space")
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
    # each requested time is its own one-point chunk, so the grid may be arbitrary
    for t, (plus, minus) in zip(times, _propagate(h, psi0, [(t, 1) for t in times], 0.0)):
        # back to the full space, W_+ plus + W_- minus; None is an empty block
        plus, minus = (0.0 if a is None else gauge * a[:, 0] for a in (plus, minus))
        amp = np.concatenate([(plus + minus) / SQRT2, parity * (plus - minus) / SQRT2])
        out.append(psi0 if t == 0.0 else StateVector(psi0.space, amp))
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
    h11: np.ndarray | None = None
    h12: np.ndarray | None = None

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"column {name} has length {arr.shape}, expected {n}")
        for name in ("h11", "h12"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (n,):
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


def observable_trace(h: MinimalHamiltonian, psi0: StateVector,
                     params: ModelParams | None = None,
                     include_metric: bool = False) -> ObservableTrace:
    """Evaluate all observables on the time grid of ``params``.

    Every column is reduced from the parity-block amplitudes chunk by
    chunk: norm, sx and the mode populations from the block weights, sy
    and sz from the overlap between the two blocks, and the energy by
    applying each assembled block, through its bands, to its propagated
    amplitudes (independently of the eigenvectors).  Norm and
    energy constancy are enforced (``NORM_DRIFT_ATOL``,
    ``ENERGY_DRIFT_RTOL``); a violation, NaN included, raises
    :class:`NumericalConsistencyError` since it signals a broken
    propagation, not physics.
    """
    if params is None:
        params = h.params
    if psi0.space != h.space:
        raise ValueError("initial state does not live on the Hamiltonian's space")
    if params.space != h.space:
        raise ValueError("params describe a different space than the Hamiltonian")
    times = params.times
    N = params.N
    levels, _, parity = _mode_factors(N)
    w_alpha = np.repeat(levels, N)
    w_beta = np.tile(levels, N)
    w_parity = np.repeat(parity, N)       # sigma_x = sign * (-1)^n_a in a block
    root = np.sqrt(levels[1:])
    names = ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm")
    if include_metric:
        names += ("mean_a", "mean_b")
    cols = {name: np.zeros(times.size) for name in names}

    # the grid is t_k = k dt, so chunk c starts at times[c * _CHUNK_STEPS]
    starts = range(0, times.size, _CHUNK_STEPS)
    chunks = [(times[lo], min(_CHUNK_STEPS, times.size - lo)) for lo in starts]
    for lo, (plus, minus) in zip(starts, _propagate(h, psi0, chunks, params.dt)):
        rows = slice(lo, lo + _CHUNK_STEPS)
        weight = 0.0
        for block, phi in zip(h.blocks, (plus, minus)):
            if phi is None:
                continue
            prob = phi.real ** 2 + phi.imag ** 2
            weight = weight + prob
            cols["sx"][rows] += block.sign * (w_parity @ prob)
            # <phi|H_s phi> from the diagonal and the real bands at offsets 1 and N;
            # Re(conj(x) y) sums the products of the interleaved re, im columns
            d0, d1, dN = block.bands
            f = phi.view(float)
            cols["energy"][rows] += d0 @ prob + 2.0 * (
                d1 @ (f[:-1] * f[1:]) + dN @ (f[:-N] * f[N:])).reshape(-1, 2).sum(axis=1)
        cols["norm"][rows] = np.sqrt(weight.sum(axis=0))
        cols["n_alpha"][rows] = w_alpha @ weight
        cols["n_beta"][rows] = w_beta @ weight
        if plus is not None and minus is not None:
            # sigma_z |e_sigma> = |e_-sigma>, sigma_y |e_sigma> = -i sigma |e_-sigma>;
            # both blocks carry the same phase i^n_a, which cancels here
            cross = plus.conj() * minus
            cols["sz"][rows] = 2.0 * cross.real.sum(axis=0)
            cols["sy"][rows] = -2.0 * (w_parity @ cross.imag)
        if include_metric:
            # b keeps the block; a lowers n_a, which moves a state to the other
            # block and, through the phase i^n_a of the basis, multiplies by i
            for phi, other in ((plus, minus), (minus, plus)):
                if phi is None:
                    continue
                phi = phi.reshape(N, N, -1)
                cols["mean_b"][rows] += np.einsum(
                    "abt,b,abt->t", phi[:, :-1].conj(), root, phi[:, 1:]).real
                if other is not None:
                    other = other.reshape(N, N, -1)
                    cols["mean_a"][rows] -= np.einsum(
                        "abt,a,abt->t", other[:-1].conj(), root, phi[1:]).imag

    norm_drift = float(np.abs(cols["norm"] - 1.0).max())
    if not norm_drift <= NORM_DRIFT_ATOL:
        raise NumericalConsistencyError(
            f"norm drifted by {norm_drift:.3e} along the trace")
    energy = cols["energy"]
    drift = float(np.abs(energy - energy[0]).max())
    if not drift <= ENERGY_DRIFT_RTOL * (1.0 + abs(energy[0])):
        raise NumericalConsistencyError(
            f"energy drifted by {drift:.3e} along the trace")

    h11 = h12 = None
    if include_metric:
        scale = SQRT2 * math.exp(-bogoliubov_params(params.mu).r)
        h11 = scale * cols.pop("mean_a")
        h12 = scale * cols.pop("mean_b")
    return ObservableTrace(times=times, h11=h11, h12=h12, **cols)


def symmetry_check(h: MinimalHamiltonian) -> float:
    """Residual ``max |[H, S]|`` for S = sigma_x (x) parity(alpha) (x) 1.

    S commutes with every term of the model for any coupling (the
    sigma_y (a + a^dag) term anticommutes with both factors of S), which
    is the exact reason a spin-x start never develops sigma_y or sigma_z
    components.
    """
    N_a, N_b = h.space.fock_cutoffs
    parity = np.diag((-1.0) ** np.arange(N_a))
    s_op = np.kron(_PAULI_X, np.kron(parity, np.eye(N_b)))
    H = h.matrix.entries
    return float(np.abs(H @ s_op - s_op @ H).max())


def truncation_convergence(params: ModelParams, direction: str, sign: int,
                           N_list) -> list[tuple[int, int, float]]:
    """Max observable deviation between runs at consecutive cutoffs.

    For each consecutive pair of ``N_list`` the reported number is the
    maximum over the time grid and over the five observables
    (sx, sy, sz, n_alpha, n_beta) of the absolute trace difference.
    """
    N_list = [int(n) for n in N_list]
    if len(N_list) < 2:
        raise ValueError("need at least two cutoffs to compare")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError(f"cutoff list must be strictly increasing, got {N_list}")
    traces = []
    for N in N_list:
        p = replace(params, N=N)
        h = build_minimal_hamiltonian(p)
        psi0 = initial_state(direction, sign, p.space)
        traces.append(observable_trace(h, psi0, p))
    out = []
    for (N_lo, tr_lo), (N_hi, tr_hi) in zip(zip(N_list, traces),
                                            zip(N_list[1:], traces[1:])):
        dev = max(
            float(np.abs(getattr(tr_lo, name) - getattr(tr_hi, name)).max())
            for name in ("sx", "sy", "sz", "n_alpha", "n_beta")
        )
        out.append((N_lo, N_hi, dev))
    return out
