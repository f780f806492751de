"""Independent dense reference for the benchmark's correctness gate.

Nothing here imports metricspin.  The model Hamiltonian is built from
Kronecker products of Pauli and truncated ladder matrices on
spin (x) alpha (x) beta (flat index ``s*N*N + n_a*N + n_b``, spin index 0 =
up), diagonalized with ``numpy.linalg.eigh`` and propagated to sampled
times.  Every observable, ``sy`` and ``sz`` included, is computed from the
propagated states.  Each check returns a list of problems; an empty list
means the outputs match.

Tolerances: trace observables agree within ``TOL * max(1, |reference|)``
(the dense CLI path matches this module to 1e-15 up to t = 400; the
margin leaves room for faster paths that reorder the arithmetic, such as
a block-diagonal eigensolve); lattice energies within 1e-12; the linearized coefficients
within 1e-8 (central differences at step 1e-5); the mode spacing within
1e-9 of this module's own eigensolve and 1e-8 (relative) of the exact
value 4 mu.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

TOL = 1e-8
TRACE_COLUMNS = ("t", "sx", "sy", "sz", "px", "py", "pz", "n_alpha", "n_beta",
                 "energy", "norm")
HEATMAP_COLUMNS = ("G", "t", "sx", "px", "n_alpha", "n_beta")

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}
SPIN_STATES = {
    "x": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "y": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "z": np.array([1, 0], dtype=complex),
}


def hamiltonian(G: float, mu: float, N: int) -> np.ndarray:
    """sqrt2 sx + sqrt2 (n_a + n_b) + g [(b + b^) sx + (a + a^) sy]."""
    a = np.diag(np.sqrt(np.arange(1, N, dtype=float)), 1)
    x = a + a.T
    n = np.diag(np.arange(N, dtype=float))
    i2, iN = np.eye(2), np.eye(N)
    g = -math.sqrt(2.0 * G) / (math.sqrt(math.pi) * mu ** 1.5)
    return (math.sqrt(2) * np.kron(PAULI["x"], np.eye(N * N))
            + math.sqrt(2) * (np.kron(i2, np.kron(n, iN)) + np.kron(i2, np.kron(iN, n)))
            + g * (np.kron(PAULI["x"], np.kron(iN, x)) + np.kron(PAULI["y"], np.kron(x, iN))))


def initial_state(direction: str, N: int) -> np.ndarray:
    vacuum = np.zeros(N * N, dtype=complex)
    vacuum[0] = 1.0
    return np.kron(SPIN_STATES[direction], vacuum)


def observables(H: np.ndarray, psi0: np.ndarray, times: np.ndarray, N: int,
                energy: bool = True, chunk: int = 1024) -> dict[str, np.ndarray]:
    """Spin components, mode populations, energy and norm at ``times``."""
    evals, evecs = np.linalg.eigh(H)
    c0 = evecs.conj().T @ psi0
    levels = np.arange(N, dtype=float)
    cols: dict[str, list] = {k: [] for k in ("sx", "sy", "sz", "n_alpha", "n_beta",
                                             "energy", "norm")}
    for lo in range(0, times.size, chunk):
        t = times[lo:lo + chunk]
        states = (np.exp(-1j * np.outer(t, evals)) * c0) @ evecs.T
        psi = states.reshape(t.size, 2, N, N)
        prob = np.abs(psi) ** 2
        cross = np.einsum("tab,tab->t", psi[:, 0].conj(), psi[:, 1])
        cols["sx"].append(2.0 * cross.real)
        cols["sy"].append(2.0 * cross.imag)
        cols["sz"].append(prob[:, 0].sum(axis=(1, 2)) - prob[:, 1].sum(axis=(1, 2)))
        cols["n_alpha"].append(np.einsum("tsab,a->t", prob, levels))
        cols["n_beta"].append(np.einsum("tsab,b->t", prob, levels))
        cols["norm"].append(np.sqrt(prob.sum(axis=(1, 2, 3))))
        if energy:
            cols["energy"].append(np.einsum("ti,ti->t", states.conj(), states @ H.T).real)
    out = {k: np.concatenate(v) for k, v in cols.items() if v}
    for s in ("x", "y", "z"):
        out["p" + s] = 0.5 * (1.0 + out["s" + s])
    return out


def time_grid(t_max: float, dt: float) -> np.ndarray:
    return dt * np.arange(int(math.floor(t_max / dt + 1e-9)) + 1)


def sample_indices(size: int, rng: random.Random, extra: int = 4) -> list[int]:
    fixed = {0, 1, size // 3, size - 1}
    return sorted(fixed | {rng.randrange(size) for _ in range(extra)})


def read_csv(path: Path) -> tuple[list[str], list[str]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), lines[1:]


def compare(problems: list[str], where: str, got: float, want: float, tol: float = TOL):
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        problems.append(f"{where}: got {float(got)!r}, reference {float(want)!r}")


def check_evolve(p: dict, outdirs: list[Path]) -> list[str]:
    problems: list[str] = []
    header, rows = read_csv(outdirs[0] / "trace.csv")
    times = time_grid(p["t_max"], p["dt"])
    if tuple(header) != TRACE_COLUMNS or len(rows) != times.size:
        return [f"trace.csv: header {header} with {len(rows)} rows, expected "
                f"{TRACE_COLUMNS} with {times.size}"]
    idx = sample_indices(times.size, random.Random(p["seed"]))
    ref = observables(hamiltonian(p["G"], p["mu"], p["N"]), initial_state(p["direction"], p["N"]),
                      times[idx], p["N"])
    ref["t"] = times[idx]
    for j, k in enumerate(idx):
        values = [float(v) for v in rows[k].split(",")]
        for col, got in zip(TRACE_COLUMNS, values):
            compare(problems, f"trace.csv row {k} {col}", got, ref[col][j])
    return problems


def check_sweep(p: dict, outdirs: list[Path]) -> list[str]:
    problems: list[str] = []
    header, rows = read_csv(outdirs[0] / "heatmap.csv")
    grid = np.geomspace(p["G_min"], p["G_max"], p["G_count"])
    times = time_grid(p["t_max"], p["dt"])
    if tuple(header) != HEATMAP_COLUMNS or len(rows) != grid.size * times.size:
        return [f"heatmap.csv: header {header} with {len(rows)} rows, expected "
                f"{HEATMAP_COLUMNS} with {grid.size * times.size}"]
    table = np.array([[float(v) for v in r.split(",")] for r in rows])
    table = table.reshape(grid.size, times.size, len(HEATMAP_COLUMNS))
    for gi, G in enumerate(grid):
        compare(problems, f"heatmap.csv G[{gi}]", table[gi, 0, 0], G, 1e-12)

    rng = random.Random(p["seed"])
    near_pi = int(np.argmin(np.abs(np.log(grid / math.pi))))
    for gi in sorted({0, near_pi, grid.size - 1}):
        idx = sample_indices(times.size, rng)
        ref = observables(hamiltonian(grid[gi], p["mu"], p["N"]),
                          initial_state(p["direction"], p["N"]), times[idx], p["N"],
                          energy=False)
        ref["t"], ref["G"] = times[idx], np.full(len(idx), grid[gi])
        for j, k in enumerate(idx):
            for c, col in enumerate(HEATMAP_COLUMNS):
                compare(problems, f"heatmap.csv G={grid[gi]!r} t={times[k]!r} {col}",
                        table[gi, k, c], ref[col][j])

    # diagnostics.csv must agree with the heatmap it summarizes
    header, diag = read_csv(outdirs[0] / "diagnostics.csv")
    if len(diag) != grid.size:
        return problems + [f"diagnostics.csv: {len(diag)} rows for {grid.size} G values"]
    after = times > p["t_min"]
    for gi, row in enumerate(diag):
        peak = float(row.split(",")[1])
        compare(problems, f"diagnostics.csv revival_peak G[{gi}]", peak,
                table[gi, after, 3].max(), 0.0)
    return problems


def check_convergence(p: dict, outdirs: list[Path]) -> list[str]:
    problems: list[str] = []
    header, rows = read_csv(outdirs[0] / "convergence.csv")
    n_list = p["N_list"]
    if len(rows) != len(n_list) - 1:
        return [f"convergence.csv: {len(rows)} rows for cutoffs {n_list}"]
    times = time_grid(p["t_max"], p["dt"])
    traces = [observables(hamiltonian(p["G"], p["mu"], N), initial_state(p["direction"], N),
                          times, N, energy=False) for N in n_list]
    for k, (row, lo, hi) in enumerate(zip(rows, traces, traces[1:])):
        n_lo, n_hi, dev = row.split(",")
        if (int(n_lo), int(n_hi)) != (n_list[k], n_list[k + 1]):
            problems.append(f"convergence.csv row {k}: cutoffs {n_lo},{n_hi}")
        want = max(float(np.abs(lo[c] - hi[c]).max())
                   for c in ("sx", "sy", "sz", "n_alpha", "n_beta"))
        compare(problems, f"convergence.csv row {k} max_deviation", float(dev), want)
    return problems


def bands(kx, ky, G, alpha_c, beta_c):
    """(-|f|, |f|) with f = J (sqrt2 + e^{i k.n1} + e^{i k.n2})."""
    s = math.sqrt(2.0 * math.pi * G)
    J = 1.0 + 1j * s * alpha_c - s * beta_c
    k_n1 = (-kx + ky) / math.sqrt(2)
    k_n2 = (kx + ky) / math.sqrt(2)
    mag = abs(J * (math.sqrt(2) + np.exp(1j * k_n1) + np.exp(1j * k_n2)))
    return -mag, mag


def mode_spacing(mu: float, N: int, levels: int) -> tuple[float, float]:
    """Mean gap and its largest deviation, lowest ``levels`` of c1(a^2 + a^2+) + c2(2n + 1)."""
    a = np.diag(np.sqrt(np.arange(1, N, dtype=float)), 1)
    c1, c2 = mu * mu / 2 - 2, mu * mu / 2 + 2
    H = c1 * (a @ a + a.T @ a.T) + c2 * np.diag(2.0 * np.arange(N) + 1.0)
    gaps = np.diff(np.linalg.eigvalsh(H)[:levels])
    return float(gaps.mean()), float(np.abs(gaps - gaps.mean()).max())


def check_bands_modes(p: dict, outdirs: list[Path]) -> list[str]:
    problems: list[str] = []
    lattice, gravity = outdirs
    header, rows = read_csv(lattice / "bands.csv")
    kx = np.linspace(p["kx_min"], p["kx_max"], p["kx_count"])
    ky = np.linspace(p["ky_min"], p["ky_max"], p["ky_count"])
    if len(rows) != kx.size * ky.size:
        return [f"bands.csv: {len(rows)} rows for a {kx.size}x{ky.size} grid"]
    rng = random.Random(p["seed"])
    picks = {0, len(rows) - 1} | {rng.randrange(len(rows)) for _ in range(64)}
    for r in sorted(picks):
        got = [float(v) for v in rows[r].split(",")]
        want_k = (kx[r // ky.size], ky[r % ky.size])
        want_e = bands(*want_k, p["lattice_G"], p["alpha_c"], p["beta_c"])
        for col, g, w in zip(("kx", "ky", "E_minus", "E_plus"), got, (*want_k, *want_e)):
            compare(problems, f"bands.csv row {r} {col}", g, w, 1e-12)

    report = dict(line.split("=", 1) for line in
                  (lattice / "fermi_report.txt").read_text().splitlines())
    s = math.sqrt(2.0 * math.pi * p["lattice_G"])
    u, v = s * p["alpha_c"], s * p["beta_c"]
    for tag in ("P_plus", "P_minus"):
        compare(problems, f"residual_{tag}", float(report[f"residual_{tag}"]), 0.0, 1e-12)
        for key, want in (("A", 1 - u), ("B", 1 + u), ("C", -v), ("D", -v)):
            compare(problems, f"fermi_report {key}_{tag}", float(report[f"{key}_{tag}"]), want)

    header, rows = read_csv(gravity / "gravity_report.csv")
    if len(rows) != len(p["mu_list"]):
        return problems + [f"gravity_report.csv: {len(rows)} rows for mu_list {p['mu_list']}"]
    for mu, row in zip(p["mu_list"], rows):
        got = dict(zip(header, (float(v) for v in row.split(","))))
        cosh2r, sinh2r = mu / 4 + 1 / mu, mu / 4 - 1 / mu
        spacing, dev = mode_spacing(mu, p["N_mode"], p["levels"])
        where = f"gravity_report.csv mu={mu!r}"
        for key, want, tol in (
                ("mu", mu, 0.0), ("cosh2r", cosh2r, 1e-15), ("sinh2r", sinh2r, 1e-15),
                ("r", 0.5 * math.asinh(sinh2r), 1e-15), ("identity_residual", 0.0, 1e-12),
                ("spacing", spacing, 1e-9), ("spacing_dev", dev, 1e-9),
                ("spacing_over_2mu", spacing / (2 * mu), 1e-9),
                ("spacing_over_4mu", spacing / (4 * mu), 1e-9),
                ("k_R", 1 / (math.sqrt(2) * math.pi * mu), 1e-15)):
            compare(problems, f"{where} {key}", got[key], want, tol)
        # the untruncated mode sector has equally spaced levels 4 mu apart
        compare(problems, f"{where} spacing vs 4 mu", got["spacing"] / (4 * mu), 1.0)
    return problems


CHECKS = {
    "sweep-crossover": check_sweep,
    "evolve-long": check_evolve,
    "convergence-cutoff": check_convergence,
    "bands-modes": check_bands_modes,
}
