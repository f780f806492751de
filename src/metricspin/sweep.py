"""Parameter sweeps over the coupling G with revival diagnostics.

A sweep runs one trace per G value (grid points are independent and may
run on a thread pool; results are merged by grid index so the output is
identical however it was scheduled) and assembles a long-format table
with one checksum per G.  Nothing in the pipeline is random, so the
grid fully determines its outputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .model import (
    ModelParams,
    ObservableTrace,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
)
from .serialize import render_csv, sha256_hex

HEATMAP_HEADER = "G,t,sx,px,n_alpha,n_beta"

#: diagnostics ignore times at or before this, i.e. the initial decay
DEFAULT_T_MIN = 2.0


@dataclass(frozen=True)
class SweepGrid:
    """G values plus the shared run parameters of a sweep."""

    G_values: tuple[float, ...]
    direction: str = "x"
    sign: int = 1
    mu: float = 1.0
    N: int = 14
    t_max: float = 100.0
    dt: float = 0.02

    def __post_init__(self):
        vals = tuple(float(g) for g in self.G_values)
        if not vals:
            raise ValueError("sweep grid must contain at least one G value")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("G values must be strictly increasing")
        object.__setattr__(self, "G_values", vals)
        for G in vals:
            self.params_at(G)       # ModelParams refuses any point no run could use

    def params_at(self, G: float) -> ModelParams:
        return ModelParams(G=G, mu=self.mu, N=self.N,
                           t_max=self.t_max, dt=self.dt)


def default_grid(count: int = 60, G_min: float = 0.01, G_max: float = 100.0,
                 **kwargs) -> SweepGrid:
    """Log-spaced grid straddling the G = pi crossover."""
    return SweepGrid(G_values=tuple(np.geomspace(G_min, G_max, count)), **kwargs)


@dataclass(frozen=True)
class SweepResult:
    """Traces in grid order, the long-format table and one checksum per G body."""

    grid: SweepGrid
    traces: tuple[ObservableTrace, ...]
    heatmap_csv: str
    run_checksums: tuple[str, ...]


def _failed_at(G: float, exc: Exception) -> Exception:
    """``exc`` re-made with the failing G in its message, keeping its type.

    The type carries the CLI exit code (a ``NumericalConsistencyError``
    must still exit 3); a type that cannot be built from one message
    falls back to ``RuntimeError``.
    """
    message = f"sweep run failed at G={G!r}: {exc}"
    try:
        return type(exc)(message)
    except TypeError:
        return RuntimeError(message)


def run_sweep(grid: SweepGrid, workers: int = 1) -> SweepResult:
    """Run one trace per G value; any single failure aborts the sweep."""

    def one(G: float) -> ObservableTrace:
        params = grid.params_at(G)
        h = build_minimal_hamiltonian(params)
        psi0 = initial_state(grid.direction, grid.sign, params.space)
        return observable_trace(h, psi0, params)

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    traces: list[ObservableTrace | None] = [None] * len(grid.G_values)
    if workers == 1:
        for i, G in enumerate(grid.G_values):
            try:
                traces[i] = one(G)
            except Exception as exc:
                raise _failed_at(G, exc) from exc
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(one, G)
                       for i, G in enumerate(grid.G_values)}
            for i, fut in futures.items():
                try:
                    traces[i] = fut.result()
                except Exception as exc:
                    raise _failed_at(grid.G_values[i], exc) from exc

    # one body per G; each run checksum is the sha256 of its body
    bodies = [render_csv(None, (np.full(tr.times.size, G), tr.times, tr.sx,
                                tr.px, tr.n_alpha, tr.n_beta))
              for G, tr in zip(grid.G_values, traces)]
    return SweepResult(grid=grid, traces=tuple(traces),
                       heatmap_csv=HEATMAP_HEADER + "\n" + "".join(bodies),
                       run_checksums=tuple(sha256_hex(b) for b in bodies))


@dataclass(frozen=True)
class RevivalDiagnostic:
    """Summary of how well the spin-x population returns after its decay."""

    revival_peak: float
    first_peak_time: float
    envelope_decay: float


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of plateau-tolerant local maxima of a 1-D series."""
    if values.size < 3:
        return np.array([], dtype=int)
    inner = np.arange(1, values.size - 1)
    keep = (values[inner] >= values[inner - 1]) & (values[inner] >= values[inner + 1])
    return inner[keep]


def revival_diagnostic(trace: ObservableTrace, t_min: float = DEFAULT_T_MIN) -> RevivalDiagnostic:
    """Scan the p_x series for its post-t_min maximum and envelope shape.

    The envelope is approximated by the sequence of local maxima of p_x;
    the first envelope peak is the first local maximum of that sequence
    (falling back to the post-t_min global maximum for monotone
    envelopes).  ``envelope_decay`` compares the best excursion in the
    final third of the window against the first third; 0 means no decay.
    """
    t = trace.times
    if t_min >= t[-1]:
        raise InsufficientDataError(
            f"t_min={t_min} leaves no samples in a trace ending at t={t[-1]}")
    px = trace.px
    after = t > t_min
    if not np.any(after):
        raise InsufficientDataError("no samples after t_min")
    revival_peak = float(px[after].max())

    peak_idx = _local_maxima(px)
    first_peak_time = float(t[after][np.argmax(px[after])])
    if peak_idx.size >= 3:
        node_vals = px[peak_idx]
        node_peaks = [j for j in range(1, peak_idx.size - 1)
                      if node_vals[j] > node_vals[j - 1]
                      and node_vals[j] >= node_vals[j + 1]
                      and t[peak_idx[j]] > t_min]
        if node_peaks:
            first_peak_time = float(t[peak_idx[node_peaks[0]]])

    third = max(1, t.size // 3)
    early = float(px[:third].max())
    late = float(px[-third:].max())
    envelope_decay = max(0.0, 1.0 - late / early) if early > 0 else 0.0
    return RevivalDiagnostic(revival_peak=revival_peak,
                             first_peak_time=first_peak_time,
                             envelope_decay=envelope_decay)
