import math

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
from metricspin.serialize import sha256_hex, write_text

SHORT = dict(N=8, t_max=6.0, dt=0.1)


def short_grid(values):
    return SweepGrid(G_values=values, **SHORT)


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
        result = run_sweep(grid)
        params = ModelParams(G=0.05, **SHORT)
        h = build_minimal_hamiltonian(params)
        ref = observable_trace(h, initial_state("x", +1, params.space), params)
        got = result.traces[0]
        for name in ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm"):
            npt.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_zero_coupling_row_is_frozen(self):
        result = run_sweep(short_grid((0.0, 0.05)))
        px = result.traces[0].px
        assert np.abs(px - 1.0).max() <= 1e-10

    def test_deterministic_rerun(self):
        grid = short_grid((0.02, 0.2, 2.0))
        r1 = run_sweep(grid)
        for r2 in (run_sweep(grid), run_sweep(grid, workers=4)):
            assert r1.heatmap_csv == r2.heatmap_csv
            assert r1.run_checksums == r2.run_checksums

    def test_concurrent_matches_sequential(self):
        grid = short_grid((0.02, 0.2, 2.0, 20.0))
        seq = run_sweep(grid, workers=1)
        par = run_sweep(grid, workers=4)
        assert seq.heatmap_csv == par.heatmap_csv

    def test_workers_below_one_refused(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(short_grid((0.1,)), workers=0)

    def test_failure_reports_offending_g(self, monkeypatch):
        calls = {"n": 0}
        real = sweep_mod.observable_trace

        def flaky(h, psi0, params):
            calls["n"] += 1
            if params.G == 0.2:
                raise RuntimeError("synthetic failure")
            return real(h, psi0, params)

        monkeypatch.setattr(sweep_mod, "observable_trace", flaky)
        with pytest.raises(RuntimeError, match="G=0.2"):
            run_sweep(short_grid((0.02, 0.2)))

    def test_manifest_checksum_matches_csv(self):
        # each run checksum is the sha256 of that G's rows in the table
        result = run_sweep(short_grid((0.1, 0.3)))
        rows = result.heatmap_csv.splitlines(keepends=True)[1:]
        per_g = len(rows) // 2
        assert [sha256_hex("".join(rows[:per_g])), sha256_hex("".join(rows[per_g:]))] \
            == list(result.run_checksums)


class TestHeatmapExport:
    def test_row_count_and_header(self, tmp_path):
        grid = SweepGrid(G_values=(0.1, 1.0), N=4, t_max=0.4, dt=0.2)
        result = run_sweep(grid)
        path = write_text(tmp_path / "heatmap.csv", result.heatmap_csv)
        lines = path.read_text().splitlines()
        assert lines[0] == "G,t,sx,px,n_alpha,n_beta"
        assert len(lines) == 1 + 2 * 3  # header + |G| * |times|

    def test_reexport_is_byte_identical(self, tmp_path):
        p1 = write_text(tmp_path / "a.csv", run_sweep(short_grid((0.3,))).heatmap_csv)
        p2 = write_text(tmp_path / "b.csv", run_sweep(short_grid((0.3,))).heatmap_csv)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_sorted_by_g_then_t(self, tmp_path):
        grid = SweepGrid(G_values=(0.1, 1.0), N=4, t_max=0.4, dt=0.2)
        result = run_sweep(grid)
        path = write_text(tmp_path / "heatmap.csv", result.heatmap_csv)
        rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
        keys = [(float(g), float(t)) for g, t in rows]
        assert keys == sorted(keys)

    def test_io_error_carries_path(self, tmp_path):
        result = run_sweep(SweepGrid(G_values=(0.1,), N=4, t_max=0.4, dt=0.2))
        missing = tmp_path / "no" / "such" / "dir" / "heatmap.csv"
        with pytest.raises(OSError) as err:
            write_text(missing, result.heatmap_csv)
        assert str(missing) in str(err.value) or missing.name in str(err.value)


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
        assert d.envelope_decay == 0.0

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
        assert d.envelope_decay > 0.3
        assert d.revival_peak < 0.9

    def test_peak_bounded_for_real_run(self):
        grid = short_grid((0.2,))
        result = run_sweep(grid)
        d = revival_diagnostic(result.traces[0], t_min=1.0)
        assert 0.0 <= d.revival_peak <= 1.0

    def test_insufficient_data(self):
        times = np.linspace(0.0, 5.0, 21)
        trace = _synthetic_trace(times, np.ones_like(times))
        with pytest.raises(InsufficientDataError):
            revival_diagnostic(trace, t_min=5.0)
        with pytest.raises(InsufficientDataError):
            revival_diagnostic(trace, t_min=7.0)

    def test_weak_coupling_first_peak_matches_calibration(self):
        # the first envelope peak of the G = 0.05 run is the feature the
        # calibration run recorded at t = 62.98
        import json
        from pathlib import Path
        cal = json.loads((Path(__file__).parent / "fixtures"
                          / "revival_calibration.json").read_text())
        params = ModelParams(G=0.05, mu=1.0, N=14, t_max=100.0, dt=0.02)
        h = build_minimal_hamiltonian(params)
        trace = observable_trace(h, initial_state("x", +1, params.space), params)
        d = revival_diagnostic(trace, t_min=cal["t_min"])
        assert d.first_peak_time == pytest.approx(cal["first_peak_time_G005"],
                                                  abs=2 * params.dt)
