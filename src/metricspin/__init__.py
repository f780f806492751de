"""Spin-1/2 probe coupled to two self-interacting bosonic fluctuation modes.

Exact parity-block dynamics of the minimal spin + two-mode model,
Bogoliubov analysis of the quadratic mode sector, brick-wall lattice
Bloch checks, and a deterministic sweep/CLI layer for reproducing the
coherent-to-decoherent crossover phenomenology.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ExtractionInvalidError,
    InsufficientDataError,
    NumericalConsistencyError,
)
from .gravity import (
    BogoliubovParams,
    QuadraticModeHamiltonian,
    bogoliubov_params,
    quadratic_site_hamiltonian,
    resonant_momentum,
    spectrum_spacing,
)
from .lattice import (
    FERMI_MINUS,
    FERMI_PLUS,
    LatticeCouplings,
    bloch_hamiltonian,
    dispersion,
    fermi_point_residual,
    low_energy_coefficients,
    structure_factor,
)
from .model import (
    MinimalHamiltonian,
    ModelParams,
    ObservableTrace,
    build_minimal_hamiltonian,
    coupling_strength,
    evolve,
    initial_state,
    observable_trace,
    symmetry_check,
    truncation_convergence,
)
from .operators import OperatorMatrix, SpaceSpec, StateVector
from .sweep import (
    RevivalDiagnostic,
    SweepGrid,
    SweepResult,
    default_grid,
    revival_diagnostic,
    run_sweep,
)
