"""Parameter sweeps over the coupling G with revival diagnostics.

A sweep runs one trace per G value through :func:`trace_at`, which names
the failing G in any error it raises.  :func:`run_sweep` runs them in
grid order in the calling thread; the ``sweep`` command maps one job per
G (trace, diagnostic and rows) over ``serialize._rendered``'s processes,
where a forked map's BLAS pin keeps each job's kernels and render in one
thread.  Nothing in the pipeline is random and every kernel pins OpenBLAS
to one thread, so the grid alone determines the output, however scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .model import (
    ModelParams,
    ObservableTrace,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
    spin_state,
)

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
        spin_state(self.direction, self.sign)
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
    if not (count >= 1 and 0 < G_min <= G_max):
        raise ValueError(f"need count >= 1 and 0 < G_min <= G_max, got count={count}, "
                         f"G_min={G_min}, G_max={G_max}")
    with np.errstate(over="ignore"):       # SweepGrid refuses a point that overflows
        G_values = tuple(np.geomspace(G_min, G_max, count))
    return SweepGrid(G_values=G_values, **kwargs)


def trace_at(grid: SweepGrid, G: float) -> ObservableTrace:
    """The trace of ``grid`` at ``G``; a failure is raised again naming G, keeping its type.

    The type carries the CLI exit code (a ``NumericalConsistencyError``
    must still exit 3, a ``MemoryError`` 2); a type that cannot be built
    from one message, such as numpy's ``_ArrayMemoryError``, falls back
    to ``MemoryError`` or else ``RuntimeError``.
    """
    try:
        h = build_minimal_hamiltonian(grid.params_at(G))
        return observable_trace(h, initial_state(grid.direction, grid.sign, grid.N))
    except Exception as exc:
        message = f"sweep run failed at G={G!r}: {exc}"
        try:
            failed = type(exc)(message)
        except TypeError:
            failed = (MemoryError if isinstance(exc, MemoryError) else RuntimeError)(message)
        raise failed from exc


def run_sweep(grid: SweepGrid) -> list[ObservableTrace]:
    """One trace per G value, in grid order, in the calling thread; a failure aborts."""
    return [trace_at(grid, G) for G in grid.G_values]


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


def check_t_min(t_min: float, times: np.ndarray) -> None:
    """Refuse a diagnostic window ``t > t_min`` that holds none of the sorted ``times``."""
    if not t_min < times[-1]:
        raise InsufficientDataError(
            f"t_min={t_min} leaves no samples in a trace ending at t={times[-1]}")


def revival_diagnostic(trace: ObservableTrace, t_min: float = DEFAULT_T_MIN) -> RevivalDiagnostic:
    """Scan the p_x series for its post-t_min maximum and envelope shape.

    The envelope is approximated by the sequence of local maxima of p_x;
    the first envelope peak is the first local maximum of that sequence
    (falling back to the post-t_min global maximum for monotone
    envelopes).  ``envelope_decay`` compares the best excursion in the
    final third of the window against the first third; 0 means no decay.
    """
    t = trace.times
    check_t_min(t_min, t)
    px = trace.px
    after = t > t_min
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
