"""Construction accepts a value or refuses it with ValueError, never otherwise.

Every constructor and argument check that the CLI calls before its work
is run on arbitrary finite floats and ints with every warning turned
into an error.  A call must return or raise ``ValueError``: an
``OverflowError``, a ``ZeroDivisionError`` or a numpy warning would
escape the CLI's exit-code contract.  Only construction is exercised, so
nothing large is allocated.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metricspin import (
    LatticeCouplings,
    ModelParams,
    bogoliubov_params,
    default_grid,
    low_energy_coefficients,
    quadratic_site_hamiltonian,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(min_value=-(2 ** 64), max_value=2 ** 64)


def built(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with warnings as errors; ``None`` if it raised ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args, **kwargs)
        except ValueError:
            return None


@settings(deadline=None)
@given(G=finite, mu=finite, N=ints, t_max=finite, dt=finite)
@example(G=1.0, mu=1.0, N=2, t_max=100.0, dt=1e-320)
@example(G=1.0, mu=1.0, N=2, t_max=1e308, dt=1e-5)
@example(G=1.0, mu=1.0, N=2, t_max=1e9, dt=1e-9)
def test_model_params(G, mu, N, t_max, dt):
    p = built(ModelParams, G=G, mu=mu, N=N, t_max=t_max, dt=dt)
    if p is not None:
        # the grid's last index t_max/dt must fit np.intp; never build the grid
        steps = p.t_max / p.dt
        assert math.isfinite(steps)
        assert math.floor(steps + 1e-9) + 1 <= np.iinfo(np.intp).max


@settings(deadline=None)
@given(count=st.integers(max_value=64), G_min=finite, G_max=finite)
@example(count=5, G_min=-1.0, G_max=100.0)
@example(count=3, G_min=1e-300, G_max=1.7976931348623157e308)
def test_default_grid(count, G_min, G_max):
    grid = built(default_grid, count, G_min, G_max, N=2, t_max=1.0, dt=0.5)
    if grid is not None:
        assert len(grid.G_values) == count
        assert all(math.isfinite(G) for G in grid.G_values)


@settings(deadline=None)
@given(mu=finite)
@example(mu=5e-324)
def test_bogoliubov_params(mu):
    bp = built(bogoliubov_params, mu)
    if bp is not None:
        assert all(math.isfinite(x) for x in (bp.r, bp.cosh2r, bp.sinh2r))


@settings(deadline=None)
@given(mu=finite, N=st.integers(max_value=4096))
def test_quadratic_site_hamiltonian(mu, N):
    built(quadratic_site_hamiltonian, mu, N)


@settings(deadline=None)
@given(G=finite, alpha_c=finite, beta_c=finite, which=st.sampled_from(["P+", "P-"]),
       step=finite)
@example(G=1e308, alpha_c=0.0, beta_c=0.0, which="P+", step=1e-5)
@example(G=1e300, alpha_c=0.0, beta_c=1e300, which="P+", step=1e-5)
def test_lattice_couplings_and_coefficients(G, alpha_c, beta_c, which, step):
    c = built(LatticeCouplings.from_background, G, alpha_c, beta_c)
    if c is None:
        return
    assert all(math.isfinite(abs(J)) for J in (c.Jx, c.Jy, c.Jz))
    coefficients = built(low_energy_coefficients, c, which, step=step)
    if coefficients is not None:
        assert all(math.isfinite(x) for x in coefficients)
