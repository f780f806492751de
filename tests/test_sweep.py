import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import metricspin.sweep as sweep_mod
from metricspin import (
    InsufficientDataError,
    ModelParams,
    ObservableTrace,
    SweepGrid,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
    revival_diagnostic,
    run_sweep,
)

SHORT = dict(N=8, t_max=6.0, dt=0.1)
COLUMNS = ("times", "sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm")


def short_grid(values):
    return SweepGrid(G_values=values, **SHORT)


def assert_same_traces(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        for name in COLUMNS:
            npt.assert_array_equal(getattr(ta, name), getattr(tb, name))


class TestSweepGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(G_values=())
        with pytest.raises(ValueError):
            SweepGrid(G_values=(0.1, 0.1))
        with pytest.raises(ValueError):
            SweepGrid(G_values=(0.2, 0.1))
        with pytest.raises(ValueError):
            SweepGrid(G_values=(-0.1, 0.2))
        with pytest.raises(ValueError, match="mu"):     # ModelParams checks each point
            SweepGrid(G_values=(0.1, 1.0), mu=1e-300)
        with pytest.raises(ValueError, match="cutoff N must be an integer"):
            SweepGrid(G_values=(0.1, 1.0), N=14.0)
        with pytest.raises(ValueError, match="direction"):
            SweepGrid(G_values=(0.1,), direction="w", sign=5)
        with pytest.raises(ValueError, match="direction"):
            SweepGrid(G_values=(0.1,), sign=0)

    @pytest.mark.parametrize("count,G_min,G_max", [
        (5, -1.0, 100.0), (5, 0.0, 1.0), (5, 2.0, 1.0), (0, 0.1, 1.0), (-3, 0.1, 1.0),
        (5, math.nan, 1.0),
    ])
    def test_default_grid_range_refused_without_warning(self, count, G_min, G_max):
        from metricspin import default_grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="G_min"):
                default_grid(count, G_min, G_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_g_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepGrid(G_values=(0.1, bad))

    def test_zero_coupling_allowed(self):
        grid = SweepGrid(G_values=(0.0, 0.1))
        assert grid.G_values[0] == 0.0

    def test_default_grid_straddles_crossover(self):
        from metricspin import default_grid
        grid = default_grid()
        assert len(grid.G_values) == 60
        assert grid.G_values[0] < math.pi < grid.G_values[-1]
        assert all(b > a for a, b in zip(grid.G_values, grid.G_values[1:]))


class TestRunSweep:
    def test_single_point_matches_standalone_trace(self):
        grid = short_grid((0.05,))
        traces = run_sweep(grid)
        params = ModelParams(G=0.05, **SHORT)
        h = build_minimal_hamiltonian(params)
        ref = observable_trace(h, initial_state("x", +1, params.N))
        assert_same_traces(traces, [ref])

    def test_zero_coupling_row_is_frozen(self):
        px = run_sweep(short_grid((0.0, 0.05)))[0].px
        assert np.abs(px - 1.0).max() <= 1e-10

    def test_deterministic_rerun(self):
        grid = short_grid((0.02, 0.2, 2.0))
        assert_same_traces(run_sweep(grid), run_sweep(grid))

    def test_failure_reports_offending_g(self, monkeypatch):
        calls = {"n": 0}
        real = sweep_mod.observable_trace

        def flaky(h, psi0):
            calls["n"] += 1
            if h.params.G == 0.2:
                raise RuntimeError("synthetic failure")
            return real(h, psi0)

        monkeypatch.setattr(sweep_mod, "observable_trace", flaky)
        with pytest.raises(RuntimeError, match="G=0.2"):
            run_sweep(short_grid((0.02, 0.2)))

def _synthetic_trace(times, px):
    sx = 2.0 * np.asarray(px) - 1.0
    zeros = np.zeros_like(times)
    return ObservableTrace(times=times, sx=sx, sy=zeros, sz=zeros,
                           n_alpha=zeros, n_beta=zeros,
                           energy=zeros, norm=np.ones_like(times))


class TestRevivalDiagnostic:
    def test_constant_population_keeps_peak_one(self):
        times = np.linspace(0.0, 20.0, 201)
        d = revival_diagnostic(_synthetic_trace(times, np.ones_like(times)), t_min=2.0)
        assert d.revival_peak == 1.0

    def test_collapse_and_revival_signal(self):
        # envelope dips at t=30 and fully revives at t=60; ripple on top
        times = np.linspace(0.0, 90.0, 3001)
        env = 1.0 - 0.6 * np.sin(math.pi * times / 60.0) ** 2
        px = env * (1.0 - 0.02 * (1.0 - np.cos(8.0 * times)))
        d = revival_diagnostic(_synthetic_trace(times, px), t_min=2.0)
        assert d.revival_peak == pytest.approx(px[times > 2.0].max(), abs=1e-12)
        assert 55.0 <= d.first_peak_time <= 65.0

    def test_decaying_signal_reports_decay(self):
        times = np.linspace(0.0, 50.0, 2001)
        px = 0.5 + 0.5 * np.exp(-times / 2.0)
        d = revival_diagnostic(_synthetic_trace(times, px), t_min=2.0)
        assert d.revival_peak < 0.9

    def test_peak_bounded_for_real_run(self):
        grid = short_grid((0.2,))
        d = revival_diagnostic(run_sweep(grid)[0], t_min=1.0)
        assert 0.0 <= d.revival_peak <= 1.0

    def test_insufficient_data(self):
        times = np.linspace(0.0, 5.0, 21)
        trace = _synthetic_trace(times, np.ones_like(times))
        with pytest.raises(InsufficientDataError):
            revival_diagnostic(trace, t_min=5.0)
        with pytest.raises(InsufficientDataError):
            revival_diagnostic(trace, t_min=7.0)

    @pytest.mark.parametrize("t_min,ok", [(0.85, True), (0.9, False), (0.95, False),
                                          (math.nan, False)])
    def test_t_min_rule_matches_the_grid(self, t_min, ok):
        # t_max=1, dt=0.3: the last grid time is 0.8999999999999999, below t_max
        params = ModelParams(G=0.5, N=4, t_max=1.0, dt=0.3)
        times = params.times
        if ok:
            sweep_mod.check_t_min(t_min, times)
            revival_diagnostic(_synthetic_trace(times, np.ones_like(times)), t_min=t_min)
            return
        with pytest.raises(InsufficientDataError, match="t_min"):
            sweep_mod.check_t_min(t_min, times)
        with pytest.raises(InsufficientDataError, match="t_min"):
            revival_diagnostic(_synthetic_trace(times, np.ones_like(times)), t_min=t_min)

    def test_weak_coupling_first_peak_matches_calibration(self):
        # the first envelope peak of the G = 0.05 run is the feature the
        # calibration run recorded at t = 62.98
        import json
        from pathlib import Path
        cal = json.loads((Path(__file__).parent / "fixtures"
                          / "revival_calibration.json").read_text())
        params = ModelParams(G=0.05, mu=1.0, N=14, t_max=100.0, dt=0.02)
        h = build_minimal_hamiltonian(params)
        trace = observable_trace(h, initial_state("x", +1, params.N))
        d = revival_diagnostic(trace, t_min=cal["t_min"])
        assert d.first_peak_time == pytest.approx(cal["first_peak_time_G005"],
                                                  abs=2 * params.dt)
