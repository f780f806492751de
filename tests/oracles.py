"""Independent reference constructions used to check the package.

Everything here is written against the basis convention directly
(explicit index loops, no Kronecker products, no reuse of the package's
assembly code) so that a bug in the implementation cannot hide in the
expectation values.  The one exception is :func:`kronecker_parity_blocks`,
the Kronecker-product block formula the package used to assemble with,
kept as the bit-level reference of the diagonal assembly that replaced it.
:func:`full_matrix_from_blocks` builds no reference: it lifts the
package's own parity blocks to the full basis, where they are compared
with :func:`minimal_hamiltonian_oracle`.
"""

import math

import numpy as np
import scipy.linalg

from metricspin.lattice import structure_factor


def embed_oracle(op: np.ndarray, pos: int, dims: tuple[int, ...]) -> np.ndarray:
    """Embed a single-factor operator by explicit basis-tuple loops."""
    dim = math.prod(dims)

    def unravel(idx):
        out = []
        for d in reversed(dims):
            idx, r = divmod(idx, d)
            out.append(r)
        return tuple(reversed(out))

    M = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        ti = unravel(i)
        for j in range(dim):
            tj = unravel(j)
            if all(a == b for k, (a, b) in enumerate(zip(ti, tj)) if k != pos):
                M[i, j] = op[ti[pos], tj[pos]]
    return M


def minimal_hamiltonian_oracle(G: float, mu: float, N: int,
                               g: float | None = None) -> np.ndarray:
    """Entrywise construction of the model Hamiltonian from its definition.

    sqrt(2) sigma_x + sqrt(2)(n_a + n_b)
    + g [ (b + b^dag) sigma_x + (a + a^dag) sigma_y ],
    basis index s*N*N + n_a*N + n_b, spin index 0 = up.
    """
    if g is None:
        g = -math.sqrt(2.0 * G) / (math.sqrt(math.pi) * mu ** 1.5)
    s2 = math.sqrt(2.0)
    dim = 2 * N * N
    H = np.zeros((dim, dim), dtype=complex)

    def idx(s, na, nb):
        return s * N * N + na * N + nb

    for s in (0, 1):
        for na in range(N):
            for nb in range(N):
                col = idx(s, na, nb)
                H[col, col] += s2 * (na + nb)
                H[idx(1 - s, na, nb), col] += s2
                # (b + b^dag) sigma_x
                if nb + 1 < N:
                    H[idx(1 - s, na, nb + 1), col] += g * math.sqrt(nb + 1)
                if nb - 1 >= 0:
                    H[idx(1 - s, na, nb - 1), col] += g * math.sqrt(nb)
                # (a + a^dag) sigma_y ; sigma_y|0> = i|1>, sigma_y|1> = -i|0>
                phase = 1j if s == 0 else -1j
                if na + 1 < N:
                    H[idx(1 - s, na + 1, nb), col] += g * phase * math.sqrt(na + 1)
                if na - 1 >= 0:
                    H[idx(1 - s, na - 1, nb), col] += g * phase * math.sqrt(na)
    return H


def kronecker_parity_blocks(N: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Parity blocks +1 and -1 as sums of ``np.kron``/``np.diag`` products of N x N factors.

    Its arithmetic, operation for operation, is the reference for the
    package's blocks down to the bit, signed zeros included, so it must not
    be rewritten.
    """
    levels = np.arange(N, dtype=float)
    hop = np.diag(np.sqrt(levels[1:]), 1)
    quad = hop + hop.T                        # a + a^dag
    skew = np.triu(quad) - np.tril(quad)      # a - a^dag
    blocks = []
    for sign in (1, -1):
        spin = sign * (-1.0) ** levels        # sigma_x eigenvalue at each n_a
        diagonal = math.sqrt(2.0) * (spin[:, None] + levels[:, None] + levels[None, :])
        hops = np.kron(np.diag(spin), quad) + np.kron(skew * spin, np.eye(N))
        blocks.append(np.diag(diagonal.ravel()) + g * hops)
    return tuple(blocks)


def parity_isometry_oracle(N: int, sign: int) -> np.ndarray:
    """Columns i^n_a |e_sigma, n_a, n_b> of parity block ``sign`` by explicit index map.

    e_sigma = (|up> + sigma |down>) / sqrt(2) with sigma = sign (-1)^n_a;
    column index n_a*N + n_b, row index as in the full basis.
    """
    W = np.zeros((2 * N * N, N * N), dtype=complex)
    for na in range(N):
        sigma = sign * (-1) ** na
        phase = (1, 1j, -1, -1j)[na % 4]
        for nb in range(N):
            col = na * N + nb
            W[col, col] = phase / math.sqrt(2.0)
            W[N * N + col, col] = phase * sigma / math.sqrt(2.0)
    return W


def full_matrix_from_blocks(blocks) -> np.ndarray:
    """``sum_s W_s B_s W_s^dag`` over parity ``blocks``, ``W_s`` from :func:`parity_isometry_oracle`.

    The package's assembly (the blocks every command runs) on the full
    basis, for comparison with :func:`minimal_hamiltonian_oracle`.
    """
    N = math.isqrt(blocks[0].entries.shape[0])
    total = np.zeros((2 * N * N, 2 * N * N), dtype=complex)
    for block in blocks:
        W = parity_isometry_oracle(N, block.sign)
        total += W @ block.entries @ W.conj().T
    return total


_SPIN_START = {
    ("x", +1): (1.0, 1.0), ("x", -1): (1.0, -1.0),
    ("y", +1): (1.0, 1.0j), ("y", -1): (1.0, -1.0j),
    ("z", +1): (math.sqrt(2.0), 0.0), ("z", -1): (0.0, math.sqrt(2.0)),
}


def dense_state_oracle(G: float, mu: float, N: int, times, direction: str,
                       sign: int) -> np.ndarray:
    """Full-basis states ``V exp(-i E t) V^dag psi0``, one row per time.

    Full ``eigh`` of the entrywise Hamiltonian; ``psi0`` is a spin start
    times the two-mode vacuum.
    """
    H = minimal_hamiltonian_oracle(G, mu, N)
    psi0 = np.zeros(2 * N * N, dtype=complex)
    psi0[0], psi0[N * N] = np.array(_SPIN_START[(direction, sign)]) / math.sqrt(2.0)
    evals, evecs = np.linalg.eigh(H)
    c0 = evecs.conj().T @ psi0
    times = np.asarray(times, dtype=float)
    return (np.exp(-1j * np.outer(times, evals)) * c0) @ evecs.T


def dense_trace_oracle(G: float, mu: float, N: int, times, direction: str,
                       sign: int) -> dict[str, np.ndarray]:
    """Observable columns from dense propagation on the full space.

    The states of :func:`dense_state_oracle`, and every column (metric
    h11/h12 included) evaluated from them by explicit basis sums.
    """
    states = dense_state_oracle(G, mu, N, times, direction, sign)
    return state_columns_oracle(states, G, mu, N)


def state_columns_oracle(states: np.ndarray, G: float, mu: float,
                         N: int) -> dict[str, np.ndarray]:
    """Observable columns of full-basis states (one row per time) by basis sums."""
    H = minimal_hamiltonian_oracle(G, mu, N)
    T = states.shape[0]
    psi = states.reshape(T, 2, N, N)                # (t, spin, n_a, n_b)
    up, down = psi[:, 0], psi[:, 1]
    prob = np.abs(psi) ** 2
    levels = np.arange(N, dtype=float)
    updown = np.einsum("tab,tab->t", up.conj(), down)
    # <a> and <b> with a|n> = sqrt(n)|n-1>, summed over both spin components
    mean_a = np.einsum("tsab,a,tsab->t", psi[:, :, :-1].conj(), np.sqrt(levels[1:]),
                       psi[:, :, 1:])
    mean_b = np.einsum("tsab,b,tsab->t", psi[:, :, :, :-1].conj(), np.sqrt(levels[1:]),
                       psi[:, :, :, 1:])
    r = 0.5 * math.asinh(mu / 4.0 - 1.0 / mu)
    scale = math.sqrt(2.0) * math.exp(-r)
    return {
        "sx": 2.0 * updown.real,
        "sy": 2.0 * updown.imag,
        "sz": prob[:, 0].sum(axis=(1, 2)) - prob[:, 1].sum(axis=(1, 2)),
        "n_alpha": np.einsum("tsab,a->t", prob, levels),
        "n_beta": np.einsum("tsab,b->t", prob, levels),
        "energy": np.einsum("ti,ti->t", states.conj(), states @ H.T).real,
        "norm": np.sqrt(prob.sum(axis=(1, 2, 3))),
        "h11": scale * mean_a.real,
        "h12": scale * mean_b.real,
    }


def metric_expectations(psi, params) -> tuple[float, float]:
    """Metric components (h11, h12) of a spin (x) two-mode state, by basis sums.

    ``psi`` is a ``StateVector`` and ``params`` a ``BogoliubovParams``.  Per
    mode the fluctuation operator is ``a cosh r - a^dag sinh r``, so each
    component is ``sqrt(2) exp(-r) Re <a>`` with ``a|n> = sqrt(n)|n-1>``.
    """
    size = psi.amplitudes.size
    N = math.isqrt(size // 2)
    if size != 2 * N * N:
        raise ValueError(f"a state of length {size} is not a spin (x) two-mode state")
    amp = psi.amplitudes.reshape(2, N, N)
    mean_a = mean_b = 0.0
    for s in range(2):
        for na in range(N):
            for nb in range(N):
                if na > 0:
                    mean_a += np.conj(amp[s, na - 1, nb]) * math.sqrt(na) * amp[s, na, nb]
                if nb > 0:
                    mean_b += np.conj(amp[s, na, nb - 1]) * math.sqrt(nb) * amp[s, na, nb]
    scale = math.sqrt(2.0) * math.exp(-params.r)
    return scale * float(np.real(mean_a)), scale * float(np.real(mean_b))


def locate_band_minimum(c, guess, span: float = 0.6, steps: int = 41,
                        refinements: int = 4) -> np.ndarray:
    """A minimum of |f| for couplings ``c`` by deterministic nested grid refinement."""
    center = np.asarray(guess, dtype=float)
    for _ in range(refinements):
        ax = np.linspace(-span, span, steps)
        kx, ky = np.meshgrid(center[0] + ax, center[1] + ax, indexing="ij")
        grid = np.stack([kx, ky], axis=-1)
        mag = np.abs(structure_factor(grid, c))
        i, j = np.unravel_index(np.argmin(mag), mag.shape)
        center = grid[i, j]
        span = 2.0 * span / (steps - 1)
    return center


def _ladder(N: int) -> np.ndarray:
    """Annihilation operator on N Fock levels: entry (n-1, n) is sqrt(n)."""
    a = np.zeros((N, N))
    for n in range(1, N):
        a[n - 1, n] = math.sqrt(n)
    return a


def dense_mode_spectrum(mu: float, N: int) -> np.ndarray:
    """Sorted spectrum of c1 (a^2 + a^dag^2) + c2 (2 a^dag a + 1), dense.

    c1 = mu^2/2 - 2 and c2 = mu^2/2 + 2; the matrix is built from ladder
    products and diagonalized whole, with no use of its parity structure.
    """
    a = _ladder(N)
    ad = a.T
    c1 = mu * mu / 2.0 - 2.0
    c2 = mu * mu / 2.0 + 2.0
    H = c1 * (a @ a + ad @ ad) + c2 * (2.0 * (ad @ a) + np.eye(N))
    return np.sort(np.linalg.eigvalsh(H))


def squeeze_matrix(r: float, N: int) -> np.ndarray:
    """Truncated squeeze unitary exp(r/2 (a^2 - a^dag^2)) on N levels."""
    a = _ladder(N)
    return scipy.linalg.expm(0.5 * r * (a @ a - (a @ a).T))


def csv_oracle(header: str | None, columns) -> str:
    """CSV text rendered number by number, row by row.

    Floats take their shortest round-trip text ``repr(float(x))`` and
    integers ``str(int(x))``; ``header=None`` gives the rows alone.
    """
    def text(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))

    lines = [] if header is None else [header]
    lines.extend(",".join(text(x) for x in row) for row in zip(*columns))
    return "\n".join(lines) + "\n" if lines else ""
