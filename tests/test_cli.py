import dataclasses
import errno
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import metricspin
import metricspin.cli as cli
import metricspin.serialize as serialize_mod
import metricspin.model as model_mod
import metricspin.sweep as sweep_mod
from metricspin.errors import NumericalConsistencyError
from metricspin.lattice import LatticeCouplings, dispersion
from metricspin.model import (
    ModelParams,
    ParityBlock,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
)
from metricspin.serialize import _BLOCK_ROWS, render_csv, write_partial
from metricspin.sweep import SweepGrid, revival_diagnostic, run_sweep
from oracles import csv_oracle

SQRT2 = math.sqrt(2.0)

FAST = ["--set", "t_max=5", "--set", "dt=0.1"]


def short_grid(values):
    return SweepGrid(G_values=values, N=8, t_max=6.0, dt=0.1)


def sha256_hex(data) -> str:
    return hashlib.sha256(data).hexdigest()


#: a diagnostic window that every time of a trace is in, one-point traces included
ALL_TIMES = -1.0


def heatmap_of(grid):
    """``heatmap.csv`` bytes and run checksums of ``grid``, as ``cmd_sweep`` renders them."""
    run_checksums = []
    blocks = cli._heatmap(grid, ALL_TIMES, [], run_checksums)
    return b"".join(blocks), run_checksums


def planted_sweep(monkeypatch, traces, G_values=None):
    """A grid whose trace at ``G_values[i]`` (default ``i``) is ``traces[i]``.

    ``cli.trace_at`` is replaced, so the heatmap's jobs, forked ones too,
    render the given traces; the grid's time grid is the first trace's."""
    G_values = tuple(range(len(traces))) if G_values is None else G_values
    by_G = dict(zip(G_values, traces))
    monkeypatch.setattr(cli, "trace_at", lambda grid, G: by_G[G])
    times = traces[0].times
    return SimpleNamespace(G_values=G_values, params_at=lambda G: SimpleNamespace(times=times))


def broken_hamiltonian(p: ModelParams):
    """``h`` with a planted entry off the five diagonals of block +1."""
    h = build_minimal_hamiltonian(p)
    m = h.blocks[0].entries.copy()
    m[0, 2] = m[2, 0] = 1e-3
    return dataclasses.replace(h, blocks=(ParityBlock(1, m), h.blocks[1]))


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


def read_manifest(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def non_finite_files(out):
    """Written files whose text contains nan or inf."""
    written = [f for f in out.rglob("*") if f.is_file()] if out.exists() else []
    return [f for f in written if re.search(rb"nan|inf", f.read_bytes(), re.IGNORECASE)]


class TestEvolveCommand:
    def test_header_contract(self, tmp_path):
        rc = cli.main(["evolve", "--out", str(tmp_path), *FAST])
        assert rc == 0
        header, _ = read_csv(tmp_path / "trace.csv")
        assert header == ["t", "sx", "sy", "sz", "px", "py", "pz",
                          "n_alpha", "n_beta", "energy", "norm"]

    def test_zero_coupling_all_columns_constant(self, tmp_path):
        rc = cli.main(["evolve", "--out", str(tmp_path), *FAST, "--set", "G=0"])
        assert rc == 0
        _, cols = read_csv(tmp_path / "trace.csv")
        for name, col in cols.items():
            if name != "t":
                assert np.abs(col - col[0]).max() <= 1e-10, name

    def test_y_start_precession_column(self, tmp_path):
        rc = cli.main(["evolve", "--out", str(tmp_path), "--set", "direction=y",
                       "--set", "G=0", "--set", "t_max=10", "--set", "dt=0.05"])
        assert rc == 0
        _, cols = read_csv(tmp_path / "trace.csv")
        npt.assert_allclose(cols["sy"], np.cos(2 * SQRT2 * cols["t"]), atol=1e-8)

    def test_weak_coupling_transverse_columns_empty(self, tmp_path):
        rc = cli.main(["evolve", "--out", str(tmp_path), "--set", "G=0.05",
                       "--set", "t_max=20", "--set", "dt=0.05"])
        assert rc == 0
        _, cols = read_csv(tmp_path / "trace.csv")
        assert np.abs(cols["sy"]).max() <= 1e-10
        assert np.abs(cols["sz"]).max() <= 1e-10

    def test_manifest_checksum_linkage(self, tmp_path):
        cli.main(["evolve", "--out", str(tmp_path), *FAST])
        manifest = read_manifest(tmp_path / "manifest.txt")
        digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
        assert manifest["checksum_sha256"] == digest
        assert manifest["checksum_sha256.trace.csv"] == digest
        assert manifest["command"] == "evolve"

    @pytest.mark.parametrize("direction, sign", [("x", "+"), ("y", "-"), ("z", "+")])
    def test_trace_bytes_match_per_element_rendering(self, tmp_path, direction, sign):
        # 2251 rows: more than one rendering block
        rc = cli.main(["evolve", "--out", str(tmp_path), "--set", f"direction={direction}",
                       "--set", f"sign={sign}", "--set", "G=2.5", "--set", "N=6",
                       "--set", "t_max=45", "--set", "dt=0.02"])
        assert rc == 0
        params = ModelParams(G=2.5, mu=1.0, N=6, t_max=45.0, dt=0.02)
        psi0 = initial_state(direction, 1 if sign == "+" else -1, params.N)
        tr = observable_trace(build_minimal_hamiltonian(params), psi0)
        columns = (tr.times, tr.sx, tr.sy, tr.sz, tr.px, tr.py, tr.pz,
                   tr.n_alpha, tr.n_beta, tr.energy, tr.norm)
        want = csv_oracle(cli.TRACE_HEADER, columns).encode()
        assert (tmp_path / "trace.csv").read_bytes() == want

    def test_rerun_is_byte_identical(self, tmp_path):
        cli.main(["evolve", "--out", str(tmp_path / "a"), *FAST])
        cli.main(["evolve", "--out", str(tmp_path / "b"), *FAST])
        assert ((tmp_path / "a" / "trace.csv").read_bytes()
                == (tmp_path / "b" / "trace.csv").read_bytes())


class TestConfigErrors:
    def test_unknown_key_named(self, tmp_path, capsys):
        rc = cli.main(["evolve", "--out", str(tmp_path), "--set", "bogus=1"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_value_named(self, tmp_path, capsys):
        rc = cli.main(["evolve", "--out", str(tmp_path), "--set", "N=zero"])
        assert rc == 2
        assert "N" in capsys.readouterr().err

    def test_missing_output_directory(self, capsys):
        rc = cli.main(["evolve"])
        assert rc == 2
        assert "out" in capsys.readouterr().err

    def test_config_file_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nG=0.0\nt_max=2\ndt=0.5\n")
        rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = read_manifest(tmp_path / "o" / "manifest.txt")
        assert manifest["G"] == "0.0"

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gee=0.0\n")
        rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "gee" in capsys.readouterr().err

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("G=0.5\nt_max=2\ndt=0.5\n")
        rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--set", "G=0"])
        assert rc == 0
        assert read_manifest(tmp_path / "o" / "manifest.txt")["G"] == "0.0"


class TestOversizedRuns:
    # each asks for one allocation beyond the 128 TiB x86-64 user address
    # space, which fails at once without touching that memory; the mode
    # sector is held as its diagonals, 8 bytes per level
    @pytest.mark.parametrize("argv", [
        ["gravity-check", "--set", "N_mode=100000000000000"],
        ["evolve", "--set", "N=2", "--set", "t_max=1e9", "--set", "dt=1e-9"],
    ])
    def test_memory_error_maps_to_2(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        rc = cli.main([*argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "too large" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_memory_error_maps_to_2(self, tmp_path, monkeypatch, capsys, render_cpus,
                                          cpus):
        # numpy's own error, which cannot be re-made from a message alone;
        # raised, not provoked, so no pages are ever committed; at two CPUs
        # it is raised in the forked job of G=0.2
        render_cpus(cpus)
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:                 # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError
        real = sweep_mod.observable_trace

        def starved(h, psi0):
            if h.params.G == 0.2:
                raise _ArrayMemoryError((10,), np.dtype(float))
            return real(h, psi0)

        monkeypatch.setattr(sweep_mod, "observable_trace", starved)
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--out", str(out), "--set", "G_list=0.02,0.2",
                       *FAST, "--set", "t_min=1", "--set", "N=4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run too large for memory") and "G=0.2" in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestNumericalFailureExitCode:
    def test_consistency_error_maps_to_3(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise NumericalConsistencyError("synthetic drift")

        monkeypatch.setattr(cli, "observable_trace", broken)
        rc = cli.main(["evolve", "--out", str(tmp_path), *FAST])
        assert rc == 3
        assert "drift" in capsys.readouterr().err

    @pytest.mark.parametrize("G", ["nan", "inf"])
    def test_non_finite_coupling_fails_without_output(self, tmp_path, G):
        out = tmp_path / "o"
        rc = cli.main(["evolve", "--out", str(out), *FAST, "--set", "N=4",
                       "--set", f"G={G}"])
        assert rc in (2, 3)
        written = list(out.rglob("*")) if out.exists() else []
        assert not any(b"nan" in f.read_bytes().lower() for f in written if f.is_file())

    def test_sweep_failure_keeps_its_exit_code(self, tmp_path, monkeypatch, capsys):
        real = sweep_mod.observable_trace

        def drifting(h, psi0):
            if h.params.G == 0.2:
                raise NumericalConsistencyError("synthetic drift")
            return real(h, psi0)

        monkeypatch.setattr(sweep_mod, "observable_trace", drifting)
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--out", str(out), "--set", "G_list=0.02,0.2",
                       *FAST, "--set", "t_min=1", "--set", "N=4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "G=0.2" in err and "drift" in err
        assert not out.exists() or not any(out.iterdir())

    # at two CPUs, G=0.02 is this process's job and G=0.2 the forked child's
    @pytest.mark.parametrize("G", [0.02, 0.2])
    def test_broken_block_in_a_forked_sweep_exits_3(self, tmp_path, monkeypatch, capsys,
                                                   render_cpus, forks, G):
        render_cpus(2)

        def planted(p: ModelParams):
            return broken_hamiltonian(p) if p.G == G else build_minimal_hamiltonian(p)

        monkeypatch.setattr(sweep_mod, "build_minimal_hamiltonian", planted)
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--out", str(out), "--set", "G_list=0.02,0.2",
                       *FAST, "--set", "t_min=1", "--set", "N=4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical consistency failure:") and err.count("\n") == 1
        assert f"G={G}" in err and "off the diagonals" in err
        assert len(forks) == 1
        assert snapshot(out) == {}
        TestRenderProcesses.assert_no_child_left()
        assert model_mod._ONE_BLAS_THREAD.users == 0       # the map released the pin


class TestNonFiniteConfigValues:
    @pytest.mark.parametrize("command,setting", [
        ("lattice", "lattice_G=nan"),
        ("lattice", "lattice_G=inf"),
        ("evolve", "dt=nan"),
        ("evolve", "mu=inf"),
        ("gravity-check", "mu_list=1,inf"),
        ("gravity-check", "mu_list=nan,2"),
        ("sweep", "G_list=0.1,nan"),
    ])
    def test_rejected_as_config_error(self, tmp_path, capsys, command, setting):
        out = tmp_path / "o"
        rc = cli.main([command, "--out", str(out), "--set", "N=4", "--set", "N_mode=12",
                       "--set", "levels=3", "--set", "kx_count=3", "--set", "ky_count=3",
                       "--set", setting])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert non_finite_files(out) == []


class TestSweepCommand:
    def test_single_point_matches_evolve(self, tmp_path):
        args = ["--set", "G=0.05", *FAST]
        assert cli.main(["evolve", "--out", str(tmp_path / "ev"), *args]) == 0
        assert cli.main(["sweep", "--out", str(tmp_path / "sw"),
                         "--set", "G_list=0.05", *FAST, "--set", "t_min=1"]) == 0
        _, ev = read_csv(tmp_path / "ev" / "trace.csv")
        _, sw = read_csv(tmp_path / "sw" / "heatmap.csv")
        for name in ("t", "sx", "px", "n_alpha", "n_beta"):
            npt.assert_array_equal(sw[name], ev[name])
        assert np.all(sw["G"] == 0.05)

    def test_outputs_and_diagnostics_header(self, tmp_path):
        rc = cli.main(["sweep", "--out", str(tmp_path),
                       "--set", "G_list=0.02,0.2", *FAST, "--set", "t_min=1"])
        assert rc == 0
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "G,revival_peak,first_peak_time"
        assert len(lines) == 3
        manifest = read_manifest(tmp_path / "manifest.txt")
        assert "checksum.run.000" in manifest
        assert "checksum.run.001" in manifest

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--set", "G_list=0.05,0.5", *FAST, "--set", "t_min=1"]
        cli.main(["sweep", "--out", str(tmp_path / "a"), *args])
        cli.main(["sweep", "--out", str(tmp_path / "b"), *args])
        for name in ("heatmap.csv", "diagnostics.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_workers_flag_does_not_change_output(self, tmp_path):
        args = ["--set", "G_list=0.05,0.5,5", *FAST, "--set", "t_min=1"]
        assert cli.main(["sweep", "--out", str(tmp_path / "a"), *args]) == 0
        assert cli.main(["sweep", "--out", str(tmp_path / "b"), "--workers", "4", *args]) == 0
        for name in ("heatmap.csv", "diagnostics.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        # every manifest line, each checksum.run.NNN included, but the time
        manifests = [read_manifest(tmp_path / run / "manifest.txt") for run in "ab"]
        for manifest in manifests:
            assert "checksum.run.002" in manifest
            del manifest["wall_time_s"]
        assert list(manifests[0].items()) == list(manifests[1].items())

    def test_heatmap_bytes_match_per_element_rendering(self, tmp_path):
        G_values = (0.0, 0.05, 3.5)
        rc = cli.main(["sweep", "--out", str(tmp_path), "--set", "G_list=0,0.05,3.5",
                       "--set", "N=6", "--set", "t_max=45", "--set", "dt=0.02",
                       "--set", "t_min=1"])
        assert rc == 0
        traces = run_sweep(SweepGrid(G_values=G_values, N=6, t_max=45.0, dt=0.02))
        parts = [(np.full(tr.times.size, G), tr.times, tr.sx, tr.px, tr.n_alpha, tr.n_beta)
                 for G, tr in zip(G_values, traces)]
        columns = [np.concatenate(col) for col in zip(*parts)]
        want = csv_oracle(cli.HEATMAP_HEADER, columns).encode()
        assert (tmp_path / "heatmap.csv").read_bytes() == want

    def test_run_checksums_hash_each_g_rows(self, tmp_path):
        rc = cli.main(["sweep", "--out", str(tmp_path), "--set", "G_list=0,0.05,3.5",
                       *FAST, "--set", "t_min=1"])
        assert rc == 0
        groups = {}
        for line in (tmp_path / "heatmap.csv").read_text().splitlines()[1:]:
            groups.setdefault(line.split(",", 1)[0], []).append(line)
        assert list(groups) == ["0.0", "0.05", "3.5"]
        manifest = read_manifest(tmp_path / "manifest.txt")
        for i, rows in enumerate(groups.values()):
            digest = hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest()
            assert manifest[f"checksum.run.{i:03d}"] == digest
        assert "checksum.run.003" not in manifest

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_peak_memory_is_flat_in_g_count(self, tmp_path):
        # each G's trace lives in its job alone: the command's peak resident
        # memory at 64 G of 5001 rows is that at 4 G, where holding every
        # trace would add 0.3 MB per G
        code = ("import sys; from metricspin import cli; "
                "assert cli.main(sys.argv[1:]) == 0; "
                "print(next(int(line.split()[1]) for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')))")
        env = {**os.environ, "PYTHONPATH": str(Path(metricspin.__file__).parents[1])}

        def peak_kb(G_count: int) -> int:
            proc = subprocess.run(
                [sys.executable, "-c", code, "sweep", "--out", str(tmp_path / str(G_count)),
                 "--set", "N=4", "--set", f"G_count={G_count}"],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout)

        small, large = peak_kb(4), peak_kb(64)
        assert large - small <= 1024, f"{small} kB at 4 G, {large} kB at 64 G"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, tmp_path, capsys, workers):
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--out", str(out), "--workers", workers, *FAST])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--workers" in err
        assert not out.exists()

    def test_bad_t_min(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--out", str(tmp_path), *FAST, "--set", "t_min=9"])
        assert rc == 2
        assert "t_min" in capsys.readouterr().err


class TestHeatmapExport:
    """``heatmap.csv`` and its run checksums, rendered from a sweep's traces."""

    def test_manifest_checksum_matches_csv(self):
        # each run checksum is the sha256 of that G's rows in the table
        heatmap, run_checksums = heatmap_of(short_grid((0.1, 0.3)))
        rows = heatmap.splitlines(keepends=True)[1:]
        per_g = len(rows) // 2
        assert [sha256_hex(b"".join(rows[:per_g])), sha256_hex(b"".join(rows[per_g:]))] \
            == run_checksums

    def test_run_checksums_match_each_g_rendered_alone(self):
        # each G's rows span two blocks; its run checksum is the sha256 of
        # those rows rendered on their own
        grid = SweepGrid(G_values=(0.05, 0.5, 5.0), N=4, t_max=41.0, dt=0.02)
        traces = run_sweep(grid)
        heatmap, run_checksums = heatmap_of(grid)
        per_g = traces[0].times.size
        assert per_g % _BLOCK_ROWS != 0 and 3 * per_g > _BLOCK_ROWS
        bodies = [b"".join(render_csv(None, (np.full(per_g, G), tr.times, tr.sx, tr.px,
                                             tr.n_alpha, tr.n_beta)))
                  for G, tr in zip(grid.G_values, traces)]
        assert heatmap == (cli.HEATMAP_HEADER + "\n").encode() + b"".join(bodies)
        assert run_checksums == [sha256_hex(b) for b in bodies]

    def test_diagnostics_are_those_of_each_g(self, render_cpus):
        # at two CPUs, every other G's diagnostic comes from a forked job
        render_cpus(2)
        grid = SweepGrid(G_values=(0.05, 0.5, 5.0), N=4, t_max=20.0, dt=0.02)
        diagnostics = []
        for _ in cli._heatmap(grid, 1.0, diagnostics, []):
            pass
        want = [revival_diagnostic(tr, t_min=1.0) for tr in run_sweep(grid)]
        assert diagnostics == [[d.revival_peak, d.first_peak_time] for d in want]

    def test_row_count_and_header(self):
        grid = SweepGrid(G_values=(0.1, 1.0), N=4, t_max=0.4, dt=0.2)
        lines = heatmap_of(grid)[0].decode().splitlines()
        assert lines[0] == "G,t,sx,px,n_alpha,n_beta"
        assert len(lines) == 1 + 2 * 3  # header + |G| * |times|

    def test_reexport_is_byte_identical(self):
        assert heatmap_of(short_grid((0.3,)))[0] == heatmap_of(short_grid((0.3,)))[0]

    def test_rows_sorted_by_g_then_t(self):
        grid = SweepGrid(G_values=(0.1, 1.0), N=4, t_max=0.4, dt=0.2)
        rows = [line.split(",")[:2] for line in heatmap_of(grid)[0].decode().splitlines()[1:]]
        keys = [(float(g), float(t)) for g, t in rows]
        assert keys == sorted(keys)

    def test_io_error_carries_path(self, tmp_path):
        heatmap = heatmap_of(SweepGrid(G_values=(0.1,), N=4, t_max=0.4, dt=0.2))[0]
        missing = tmp_path / "no" / "such" / "dir" / "heatmap.csv"
        with pytest.raises(OSError) as err:
            write_partial(missing, heatmap)
        assert str(missing) in str(err.value) or missing.name in str(err.value)


    @pytest.mark.parametrize("per_g", [1, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                       2 * _BLOCK_ROWS + 3])
    @pytest.mark.parametrize("G_count", [1, 3])
    def test_run_checksums_for_every_block_alignment(self, monkeypatch, per_g, G_count):
        # G boundaries before, on and after block boundaries, several G
        # in one block and one G over several blocks
        rng = np.random.default_rng(per_g + G_count)
        traces = [SimpleNamespace(times=np.arange(per_g) * 0.02, sx=rng.standard_normal(per_g),
                                  px=rng.standard_normal(per_g), n_alpha=np.zeros(per_g),
                                  n_beta=np.full(per_g, 0.5)) for _ in range(G_count)]
        grid = planted_sweep(monkeypatch, traces)
        heatmap, run_checksums = heatmap_of(grid)
        bodies = [b"".join(render_csv(None, (np.full(per_g, G), tr.times, tr.sx, tr.px,
                                             tr.n_alpha, tr.n_beta)))
                  for G, tr in zip(grid.G_values, traces)]
        assert heatmap == (cli.HEATMAP_HEADER + "\n").encode() + b"".join(bodies)
        assert run_checksums == [sha256_hex(b) for b in bodies]

    @staticmethod
    def random_traces(G_count, per_g):
        rng = np.random.default_rng(G_count)
        return [SimpleNamespace(times=np.arange(per_g) * 0.02, sx=rng.standard_normal(per_g),
                                px=rng.standard_normal(per_g), n_alpha=np.zeros(per_g),
                                n_beta=np.full(per_g, 0.5)) for _ in range(G_count)]

    def test_memory_does_not_grow_with_the_grid(self, monkeypatch, render_cpus):
        # each G is rendered and hashed on its own, so streaming the
        # heatmap holds no column of every G's rows; tracemalloc sees this
        # process only, so the render stays in it
        render_cpus(1)

        def peak(G_count, per_g=5001):
            grid = planted_sweep(monkeypatch, self.random_traces(G_count, per_g))
            tracemalloc.start()
            try:
                for _ in cli._heatmap(grid, ALL_TIMES, [], []):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= 1.1 * peak(2)

    def test_time_texts_cost_at_most_30_bytes_per_point(self, monkeypatch):
        # the t column is formatted, before the header is yielded, into one
        # 24 B-per-point array, 2048 points at a time, with no joined text or
        # bytes objects on the way
        per_g = 1_000_001
        flat = np.broadcast_to(0.5, (per_g,))
        trace = SimpleNamespace(times=np.arange(per_g) * 0.02, sx=flat, px=flat,
                                n_alpha=flat, n_beta=flat)
        blocks = cli._heatmap(planted_sweep(monkeypatch, [trace], (1.0,)), ALL_TIMES, [], [])
        tracemalloc.start()
        try:
            header = next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            blocks.close()
        assert header == (cli.HEATMAP_HEADER + "\n").encode()
        assert 24 * per_g <= peak <= 30 * per_g, f"{peak / per_g:.1f} B per point"

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_forked_heatmap_bytes_and_run_checksums(self, monkeypatch, render_cpus, forks,
                                                    cpus):
        # 5 G of three blocks each; the caller's own G and every child's
        # render their blocks in their own process
        grid = planted_sweep(monkeypatch, self.random_traces(5, 2 * _BLOCK_ROWS + 3))
        self.assert_forked_heatmap_as_one_process(grid, render_cpus, cpus)
        # one job per G; the t column is formatted in this process
        assert len(forks) == min(cpus, 5) - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_a_job_of_many_tabled_magnitudes_forks_no_further(self, monkeypatch, render_cpus,
                                                              forks, cpus):
        # one job per G, whose value columns repeat enough to have tables of
        # more than a block's worth of magnitudes; the job formats them in
        # its own process, and a child that forked would fail here
        rng = np.random.default_rng(11)
        per_g = _BLOCK_ROWS

        def column():
            return rng.choice(rng.standard_normal(1500), per_g)

        traces = [SimpleNamespace(times=np.arange(per_g) * 0.02, sx=column(), px=column(),
                                  n_alpha=column(), n_beta=column()) for _ in range(3)]
        values = np.concatenate([traces[0].sx, traces[0].px, traces[0].n_alpha,
                                 traces[0].n_beta])
        assert np.unique(np.abs(values)).size > _BLOCK_ROWS
        grid = planted_sweep(monkeypatch, traces, (0.5, 1.5, 2.5))
        self.assert_forked_heatmap_as_one_process(grid, render_cpus, cpus)
        assert len(forks) == min(cpus, 3) - 1

    @staticmethod
    def assert_forked_heatmap_as_one_process(grid, render_cpus, cpus):
        """At ``cpus`` render CPUs, the heatmap, run checksums and diagnostics
        are those of one process."""
        render_cpus(1)
        want_diagnostics, want_checksums = [], []
        want = b"".join(cli._heatmap(grid, ALL_TIMES, want_diagnostics, want_checksums))
        render_cpus(cpus)
        diagnostics, run_checksums = [], []
        assert b"".join(cli._heatmap(grid, ALL_TIMES, diagnostics, run_checksums)) == want
        assert run_checksums == want_checksums
        assert diagnostics == want_diagnostics


def snapshot(out):
    """Every file under ``out``, name -> bytes."""
    return {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}


class FullDisk:
    """An output file whose second write fails as it does on a full disk."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, block):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(block)


class TestRenderProcesses:
    """A run whose CSV render forks keeps the exit contract and leaves no child."""

    # 5001 rows: three blocks, one rendered by a child at two CPUs
    EVOLVE = ["evolve", "--set", "N=4", "--set", "t_max=100"]

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_memory_error_in_a_child_exits_2(self, tmp_path, monkeypatch, capsys,
                                             render_cpus, forks):
        render_cpus(2)
        parent, texts = os.getpid(), serialize_mod._texts

        def starved(values):
            if os.getpid() != parent:
                raise MemoryError("planted in a child")
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", starved)
        out = tmp_path / "o"
        assert cli.main([*self.EVOLVE, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: run too large for memory: planted in a child\n"
        assert len(forks) == 1
        assert snapshot(out) == {}      # no trace.csv, no .partial, no manifest
        self.assert_no_child_left()

    # at two CPUs the first fork fails; at three the second, after one child started
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failed_fork_exits_2(self, tmp_path, monkeypatch, capsys, render_cpus, cpus):
        render_cpus(cpus)
        fork, started = os.fork, []

        def no_process_left():
            if len(started) == cpus - 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            started.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", no_process_left)
        out = tmp_path / "o"
        assert cli.main([*self.EVOLVE, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run too large for memory: "
                              "cannot start a render process:") and err.count("\n") == 1
        assert len(started) == cpus - 2
        assert snapshot(out) == {}      # no trace.csv, no .partial, no manifest
        self.assert_no_child_left()

    def test_child_killed_by_a_signal_exits_2(self, tmp_path, monkeypatch, capsys, render_cpus,
                                              forks):
        # as the OOM killer would: G=1, the forked job, ends without a word
        render_cpus(2)
        parent, trace_at = os.getpid(), cli.trace_at

        def killed(grid, G):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return trace_at(grid, G)

        monkeypatch.setattr(cli, "trace_at", killed)
        out = tmp_path / "o"
        assert cli.main(["sweep", "--set", "N=4", "--set", "G_list=0.1,1", *FAST,
                         "--set", "t_min=1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: run too large for memory: a render process ended "
                       f"without its result (wait status {signal.SIGKILL})\n")
        assert len(forks) == 1
        assert snapshot(out) == {}
        self.assert_no_child_left()

    # the sweep forks once, for its G; its t column is formatted in this process
    @pytest.mark.parametrize("argv, forked", [
        (EVOLVE, 1),
        (["sweep", "--set", "N=4", "--set", "t_max=100", "--set", "G_list=0.1,1,3,10"], 1),
    ])
    def test_write_fault_mid_file_leaves_no_child(self, tmp_path, monkeypatch,
                                                  render_cpus, forks, argv, forked):
        render_cpus(2)
        monkeypatch.setattr(serialize_mod, "open", FullDisk, raising=False)
        out = tmp_path / "o"
        with pytest.raises(OSError) as err:
            cli.main([*argv, "--out", str(out)])
        assert err.value.errno == errno.ENOSPC
        assert len(forks) == forked
        # the traceback still holds the run's frames, so only the closed
        # generator can have ended the child
        self.assert_no_child_left()
        assert snapshot(out) == {}


class TestStreamedOutputs:
    """A run that fails while its CSVs stream leaves ``outdir`` as it found it."""

    # asymmetric k window: the E columns have no value table, so they are
    # formatted as the bands stream (6561 rows, four blocks)
    LATTICE = ["lattice", "--set", "kx_count=81", "--set", "ky_count=81",
               "--set", "kx_min=0.1", "--set", "kx_max=1.3",
               "--set", "ky_min=0.2", "--set", "ky_max=0.9"]
    # 3 x 2051 heatmap rows; each G's rows are their own two blocks
    SWEEP = ["sweep", "--set", "G_list=0.05,0.5,5", "--set", "N=4",
             "--set", "t_max=41", "--set", "dt=0.02", "--set", "t_min=1"]
    OTHER = ["--set", "lattice_G=0.02", "--set", "G_list=0.06,0.6,6"]

    @staticmethod
    def fail_at(monkeypatch, tmp_path, argv, out, share):
        """Make the CSV number format of ``argv`` run into ``out`` raise
        MemoryError in the call that formats the number ``share`` of the way
        through the run (0: the first, 1: the last).  Returns the names of
        the files in ``out`` at that moment."""
        count, seen, texts = [0], [], serialize_mod._texts

        def counting(values):
            count[0] += values.size
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", counting)
        assert cli.main([*argv, "--out", str(tmp_path / "count")]) == 0
        number, count[0] = max(1, round(share * count[0])), 0

        def failing(values):
            count[0] += values.size
            if count[0] >= number:
                seen.extend(sorted(f.name for f in out.iterdir()) if out.exists() else [])
                raise MemoryError("injected")
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", failing)
        return seen

    @pytest.mark.parametrize("command", ["LATTICE", "SWEEP"])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_failure_leaves_no_files(self, tmp_path, monkeypatch, capsys, command, share):
        out = tmp_path / "run"
        seen = self.fail_at(monkeypatch, tmp_path, getattr(self, command), out, share)
        assert cli.main([*getattr(self, command), "--out", str(out)]) == 2
        assert "run too large for memory" in capsys.readouterr().err
        if share > 0:                   # failed while a CSV streamed
            assert any(name.endswith(".csv.partial") for name in seen), seen
        assert snapshot(out) == {}

    @pytest.mark.parametrize("command", ["LATTICE", "SWEEP"])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_failure_keeps_an_earlier_run(self, tmp_path, monkeypatch, command, share):
        out = tmp_path / "run"
        assert cli.main([*getattr(self, command), "--out", str(out)]) == 0
        before = snapshot(out)
        # other values, so any file the failing run replaced would differ
        argv = [*getattr(self, command), *self.OTHER]
        self.fail_at(monkeypatch, tmp_path, argv, out, share)
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert snapshot(out) == before

    @pytest.mark.parametrize("command", ["LATTICE", "SWEEP"])
    def test_commit_fault_keeps_an_earlier_run_or_leaves_no_manifest(self, tmp_path,
                                                                    monkeypatch, command):
        # an OSError at each os.unlink and os.replace of the commit in turn;
        # a directory that holds a manifest must always match it
        argv = [*getattr(self, command), *self.OTHER]
        calls, fault = [], [None]
        unlink, replace = os.unlink, os.replace

        def faulty(name, real):
            def call(path, *args, **kwargs):
                calls.append((name, Path(path).name))
                if len(calls) == fault[0]:
                    raise OSError(errno.EIO, f"injected at {name}")
                return real(path, *args, **kwargs)
            return call

        def earlier_run(out):
            assert cli.main([*getattr(self, command), "--out", str(out)]) == 0
            calls.clear()
            return snapshot(out)

        monkeypatch.setattr(os, "unlink", faulty("unlink", unlink))
        monkeypatch.setattr(os, "replace", faulty("replace", replace))
        earlier_run(tmp_path / "count")
        assert cli.main([*argv, "--out", str(tmp_path / "count")]) == 0
        names = sorted(snapshot(tmp_path / "count"))
        # the old manifest goes first, the new one comes last
        assert calls[0] == ("unlink", "manifest.txt")
        assert calls[-1] == ("replace", "manifest.txt.partial")
        assert sorted(calls[1:]) == [("replace", f"{name}.partial") for name in names]
        for k in range(1, len(calls) + 1):
            out = tmp_path / f"fault{k}"
            before = earlier_run(out)
            fault[0] = k
            with pytest.raises(OSError, match="injected"):
                cli.main([*argv, "--out", str(out)])
            fault[0] = None
            after = snapshot(out)
            assert not any(name.endswith(".partial") for name in after), (k, sorted(after))
            assert after == before or "manifest.txt" not in after, (k, sorted(after))
        assert "manifest.txt" not in after      # the new files are in, the new manifest not


class TestLatticeCommand:
    def test_free_report(self, tmp_path):
        rc = cli.main(["lattice", "--out", str(tmp_path),
                       "--set", "kx_count=5", "--set", "ky_count=5"])
        assert rc == 0
        report = read_manifest(tmp_path / "fermi_report.txt")
        assert float(report["residual_P_plus"]) <= 1e-12
        assert float(report["residual_P_minus"]) <= 1e-12
        for tag in ("P_plus", "P_minus"):
            assert float(report[f"A_{tag}"]) == pytest.approx(1.0, abs=1e-9)
            assert float(report[f"B_{tag}"]) == pytest.approx(1.0, abs=1e-9)
            assert float(report[f"C_{tag}"]) == pytest.approx(0.0, abs=1e-9)
            assert float(report[f"D_{tag}"]) == pytest.approx(0.0, abs=1e-9)

    def test_beta_background_cross_terms(self, tmp_path):
        rc = cli.main(["lattice", "--out", str(tmp_path),
                       "--set", "kx_count=3", "--set", "ky_count=3",
                       "--set", "lattice_G=0.01", "--set", "beta_c=1"])
        assert rc == 0
        report = read_manifest(tmp_path / "fermi_report.txt")
        expected = -math.sqrt(0.02 * math.pi)
        assert float(report["C_P_plus"]) == pytest.approx(expected, abs=1e-6)
        assert float(report["D_P_plus"]) == pytest.approx(expected, abs=1e-6)

    def test_bands_shape(self, tmp_path):
        rc = cli.main(["lattice", "--out", str(tmp_path),
                       "--set", "kx_count=4", "--set", "ky_count=6"])
        assert rc == 0
        header, cols = read_csv(tmp_path / "bands.csv")
        assert header == ["kx", "ky", "E_minus", "E_plus"]
        assert cols["kx"].size == 24
        npt.assert_array_equal(cols["E_minus"], -cols["E_plus"])

    def test_bands_bytes_match_per_element_rendering(self, tmp_path):
        settings = {"kx_count": 5, "ky_count": 7, "lattice_G": 0.01,
                    "alpha_c": 0.3, "beta_c": 1.0, "kx_min": -2.5, "ky_max": 3.0}
        args = [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
        assert cli.main(["lattice", "--out", str(tmp_path), *args]) == 0
        # reference: one dispersion call per kx, every number rendered on
        # its own, row by row
        couplings = LatticeCouplings.from_background(0.01, 0.3, 1.0)
        kx = np.linspace(-2.5, math.sqrt(2.0) * math.pi, 5)
        ky = np.linspace(-math.sqrt(2.0) * math.pi, 3.0, 7)
        columns = [[], [], [], []]
        for x in kx:
            e_lo, e_hi = dispersion(np.stack([np.full_like(ky, x), ky], axis=-1), couplings)
            for col, part in zip(columns, (np.full_like(ky, x), ky, e_lo, e_hi)):
                col.extend(part)
        want = csv_oracle("kx,ky,E_minus,E_plus", columns).encode()
        assert (tmp_path / "bands.csv").read_bytes() == want

    @pytest.mark.parametrize("window", [
        ["ky_min=-1e308", "ky_max=1e308"],
        ["kx_min=-1.7e308", "kx_max=-1.6e308", "ky_min=1.6e308", "ky_max=1.7e308"],
    ])
    def test_overflowing_window_refused(self, tmp_path, capsys, window):
        # these wrote nan into every band cell, with numpy RuntimeWarnings
        out = tmp_path / "o"
        sets = [a for item in [*window, "kx_count=2", "ky_count=2"] for a in ("--set", item)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["lattice", *sets, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kx_min/kx_max/ky_min/ky_max:")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_degenerate_grid_rejected(self, tmp_path, capsys):
        rc = cli.main(["lattice", "--out", str(tmp_path), "--set", "kx_count=1"])
        assert rc == 2
        assert "kx_count" in capsys.readouterr().err


class TestGravityCheckCommand:
    def test_report_rows(self, tmp_path):
        rc = cli.main(["gravity-check", "--out", str(tmp_path)])
        assert rc == 0
        _, cols = read_csv(tmp_path / "gravity_report.csv")
        rows = {mu: i for i, mu in enumerate(cols["mu"])}
        i2 = rows[2.0]
        assert cols["r"][i2] == 0.0
        assert cols["spacing"][i2] == pytest.approx(8.0, abs=1e-9)
        i1 = rows[1.0]
        assert cols["identity_residual"][i1] <= 1e-12
        assert cols["k_R"][i1] == pytest.approx(0.22507907903927651, abs=1e-12)
        # measured spacing sits on the 4*mu hypothesis for every mass
        npt.assert_allclose(cols["spacing_over_4mu"], 1.0, atol=1e-7)

    def test_bad_mu_list(self, tmp_path, capsys):
        rc = cli.main(["gravity-check", "--out", str(tmp_path),
                       "--set", "mu_list=1,-2"])
        assert rc == 2
        assert "mu_list" in capsys.readouterr().err


class TestConvergenceCommand:
    def test_report(self, tmp_path):
        rc = cli.main(["convergence", "--out", str(tmp_path),
                       "--set", "N_list=6,8,10", *FAST, "--set", "G=0.05"])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N_low,N_high,max_deviation"
        assert len(lines) == 3

    def test_single_cutoff_rejected(self, tmp_path, capsys):
        rc = cli.main(["convergence", "--out", str(tmp_path), "--set", "N_list=6"])
        assert rc == 2
        assert "N_list" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "metricspin", "evolve", "--out", str(tmp_path),
         "--set", "t_max=1", "--set", "dt=0.5", "--set", "N=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "trace.csv").exists()


def test_cli_import_loads_no_scipy():
    # scipy.linalg costs about 0.4 s to import; only gravity-check uses it
    src = Path(metricspin.__file__).resolve().parents[1]
    code = ("import sys, metricspin.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def assert_refused(tmp_path, capsys, command, setting, extra):
    """Exit 2 with one ``config error:`` line naming the key, and no output."""
    out = tmp_path / "o"
    key = setting.split("=")[0]
    sets = [arg for item in [setting, *extra] for arg in ("--set", item)]
    rc = cli.main([command, *sets, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err), err
    assert not out.exists()


class TestOutOfRangeValues:
    """Finite values outside a formula's range exit 2 and write nothing."""

    PROBES = [
        ("evolve", "mu=1e-300", ()),          # mu^1.5 underflows to 0
        ("evolve", "mu=1e300", ()),           # mu^1.5 overflows
        ("convergence", "mu=1e300", ()),
        ("sweep", "mu=1e-300", ("G_count=2", "N=4", "t_max=3")),
        ("gravity-check", "mu_list=1e-300", ()),   # cosh^2 2r overflows
        ("gravity-check", "mu_list=1e200", ()),
        # a gap needs 2 levels, all within the lowest third of the cutoff
        ("gravity-check", "levels=1", ("N_mode=12",)),
        ("gravity-check", "levels=5", ("N_mode=12",)),
        ("lattice", "fd_step=0", ()),
        ("lattice", "fd_step=1e-320", ()),
        ("lattice", "fd_step=1e-17", ()),          # k0 + step rounds to k0
        ("lattice", "fd_step=-1e-5", ()),
        ("lattice", "fd_step=1e300", ()),          # gave C = D = -1 on the free lattice
        ("lattice", "fd_step=0.01", ()),           # biases the gradient by 8.3e-6
        # t_max/dt is inf, or has no array index
        ("evolve", "dt=1e-320", ("N=2",)),
        ("evolve", "dt=1e-300", ("N=2",)),
        ("evolve", "t_max=1e308", ("N=2", "dt=1e-5")),
        ("sweep", "dt=1e-320", ("N=2", "G_count=2")),
        ("convergence", "dt=1e-320", ("N_list=2,3",)),
        # the last grid time is 0.8999999999999999, below t_max
        ("sweep", "t_min=0.95", ("G_list=0.5", "t_max=1", "dt=0.3", "N=4")),
        # sqrt(2 pi G) = inf: the couplings would be NaN
        ("lattice", "lattice_G=1e308", ("kx_count=3", "ky_count=3")),
        ("lattice", "lattice_G=1e300", ("beta_c=1e300", "kx_count=3", "ky_count=3")),
        # the k-grid span overflows, or k.n1 does on a finite grid
        ("lattice", "ky_min=-1e308", ("ky_max=1e308", "kx_count=2", "ky_count=2")),
        ("lattice", "kx_min=-1.7e308", ("kx_max=-1.6e308", "ky_min=1.6e308",
                                        "ky_max=1.7e308", "kx_count=2", "ky_count=2")),
        ("sweep", "G_list=-1", ()),
        ("sweep", "G_list=0.5,0.1", ()),
        ("sweep", "G_min=-1", ()),
        ("convergence", "N_list=10,6", ()),
        ("convergence", "N_list=1,4", ()),
    ]

    @pytest.mark.parametrize("command,setting,extra", PROBES,
                             ids=[f"{c}-{s}" for c, s, _ in PROBES])
    def test_refused_as_config_error(self, tmp_path, capsys, command, setting, extra):
        assert_refused(tmp_path, capsys, command, setting, extra)

    @pytest.mark.parametrize("command,setting,extra", PROBES,
                             ids=[f"{c}-{s}" for c, s, _ in PROBES])
    def test_refused_before_any_work(self, tmp_path, monkeypatch, capsys,
                                     command, setting, extra):
        # every refusal happens while the inputs are built: assembling a
        # Hamiltonian, evaluating the bands or building a mode sector fails loudly
        def work(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        for module in (cli, sweep_mod, model_mod):
            monkeypatch.setattr(module, "build_minimal_hamiltonian", work)
        monkeypatch.setattr(cli, "dispersion", work)
        monkeypatch.setattr(cli, "quadratic_site_hamiltonian", work)
        assert_refused(tmp_path, capsys, command, setting, extra)

    def test_overflowing_mode_sector_refused(self, tmp_path, capsys):
        # cosh^2 2r is finite at mu = 1e153, the top level of the sector is
        # not; checked when each sector is built, before it is allocated
        assert_refused(tmp_path, capsys, "gravity-check", "mu_list=1,1e153", ("N_mode=200",))

    @pytest.mark.parametrize("command,args", [
        ("lattice", ["N=1", "kx_count=3", "ky_count=3"]),
        ("gravity-check", ["dt=0", "G=-1", "N_mode=12", "levels=3"]),
        ("convergence", ["N=1", "G_min=-1", "N_list=2,3", "t_max=1", "dt=0.5"]),
        ("sweep", ["G=-1", "G_list=0.1", "N=2", "t_max=3", "dt=0.5", "t_min=1"]),
    ])
    def test_keys_a_command_does_not_read_are_not_range_checked(self, tmp_path,
                                                               command, args):
        sets = [arg for item in args for arg in ("--set", item)]
        assert cli.main([command, *sets, "--out", str(tmp_path / "o")]) == 0

    def test_edge_mass_still_runs(self, tmp_path):
        # cosh 2r = 1e154 still squares to a finite number
        out = tmp_path / "o"
        assert cli.main(["gravity-check", "--out", str(out), "--set", "mu_list=1e-154",
                         "--set", "N_mode=12", "--set", "levels=3"]) == 0
        assert non_finite_files(out) == []


class TestManifestKeyOrder:
    """The ordered key list of each command's manifest.txt is a contract."""

    RUNS = {
        "evolve": ["--set", "N=4"],
        "sweep": ["--set", "N=4", "--set", "G_list=0.02,0.2", "--set", "t_min=1"],
        "lattice": ["--set", "kx_count=3", "--set", "ky_count=3"],
        "gravity-check": ["--set", "N_mode=12", "--set", "levels=3"],
        "convergence": ["--set", "N_list=4,5"],
    }
    KEYS = {
        "evolve": "command code_version direction sign G mu N t_max dt wall_time_s "
                  "checksum_sha256 checksum_sha256.trace.csv",
        "sweep": "command code_version direction sign mu N t_max dt G_count G_values "
                 "t_min wall_time_s checksum_sha256 checksum_sha256.heatmap.csv "
                 "checksum_sha256.diagnostics.csv checksum.run.000 checksum.run.001",
        "lattice": "command code_version lattice_G alpha_c beta_c kx_min kx_max ky_min "
                   "ky_max kx_count ky_count fd_step wall_time_s checksum_sha256 "
                   "checksum_sha256.bands.csv checksum_sha256.fermi_report.txt",
        "gravity-check": "command code_version mu_list N_mode levels wall_time_s "
                         "checksum_sha256 checksum_sha256.gravity_report.csv",
        "convergence": "command code_version direction sign G mu N_list t_max dt "
                       "wall_time_s checksum_sha256 checksum_sha256.convergence.csv",
    }

    def test_key_order_of_every_command(self, tmp_path):
        for command, args in self.RUNS.items():
            out = tmp_path / command
            assert cli.main([command, "--out", str(out), *args, *FAST]) == 0
            keys = [line.split("=", 1)[0]
                    for line in (out / "manifest.txt").read_text().splitlines()]
            assert keys == self.KEYS[command].split(), command
