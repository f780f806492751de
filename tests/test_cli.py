import dataclasses
import errno
import hashlib
import inspect
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import metricspin
import metricspin.cli as cli
import metricspin.lattice as lattice_mod
import metricspin.serialize as serialize_mod
import metricspin.model as model_mod
import metricspin.parallel as parallel_mod
import metricspin.sweep as sweep_mod
from metricspin.config import RunConfig, parse_config
from metricspin.errors import ConfigError, NumericalConsistencyError
from metricspin.lattice import LatticeCouplings, dispersion
from metricspin.model import (
    ModelParams,
    ParityBlock,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
)
from metricspin.serialize import _BLOCK_ROWS, fmt, render_csv
from metricspin.sweep import SweepGrid, revival_diagnostic, trace_at
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


class MisfitBlock(ParityBlock):
    """A block whose eigensolve sees an entry at offset 2 that its bands lack."""

    def dense(self):
        m = super().dense()
        m[0, 2] += 1e-3
        m[2, 0] += 1e-3
        return m


def broken_hamiltonian(p: ModelParams):
    """``h`` whose block +1 is solved with a planted entry off its five diagonals."""
    h = build_minimal_hamiltonian(p)
    return dataclasses.replace(h, blocks=(MisfitBlock(1, h.blocks[0].bands), h.blocks[1]))


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


def command_peak_kb(out: Path, argv: list[str]) -> int:
    """Peak resident memory (``VmHWM``, kB) of a fresh process that runs ``argv`` into ``out``."""
    code = ("import sys; from metricspin import cli; "
            "assert cli.main(sys.argv[1:]) == 0; "
            "print(next(int(line.split()[1]) for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')))")
    env = {**os.environ, "PYTHONPATH": str(Path(metricspin.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


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

    def test_config_file_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_max=2\nG 0.5\n")
        out = tmp_path / "o"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {cfg}:2: expected key=value, got 'G 0.5'\n"
        assert not out.exists()

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"G=0.0\n# \xff\n")
        out = tmp_path / "o"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}:")
        assert err.count("\n") == 1
        assert not out.exists()

    # an existing file, a path under a file, and a directory no one may make
    @pytest.mark.parametrize("out", ["file", "file/sub", "/proc/nope"])
    @pytest.mark.parametrize("command", ["evolve", "sweep"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, monkeypatch, capsys, command,
                                            out):
        if out.startswith("/proc") and not Path("/proc/self").is_dir():
            pytest.skip("needs /proc")
        (tmp_path / "file").write_bytes(b"kept")

        def work(*args, **kwargs):
            raise AssertionError("work started before the output directory was checked")

        for module in (cli, sweep_mod, model_mod):
            monkeypatch.setattr(module, "build_minimal_hamiltonian", work)
        out = out if out.startswith("/") else str(tmp_path / out)
        assert cli.main([command, "--out", out, "--set", "N=4", *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: key 'out': cannot make directory {out!r}:")
        assert err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_bytes() == b"kept"
        assert not Path(out).exists() or Path(out).is_file()

    # one and two missing parents, under a directory that existed and stays
    @pytest.mark.parametrize("parents", [["nest"], ["nest", "a"]])
    def test_failed_run_removes_the_parents_it_made(self, tmp_path, capsys, parents):
        kept = tmp_path / "kept"
        kept.mkdir()
        out = kept.joinpath(*parents, "b")
        assert cli.main(["evolve", "--out", str(out), "--set", "G=-1"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [kept] and not any(kept.iterdir())

    def test_failed_run_keeps_a_made_parent_that_gained_a_file(self, tmp_path, monkeypatch):
        out = tmp_path / "nest" / "a" / "b"

        def failing(cfg):
            (tmp_path / "nest" / "other").write_bytes(b"kept")
            raise ConfigError("planted")

        monkeypatch.setitem(cli.COMMANDS, "evolve", failing)
        assert cli.main(["evolve", "--out", str(out)]) == 2
        assert [p.name for p in (tmp_path / "nest").iterdir()] == ["other"]

    def test_out_whose_leaf_cannot_be_made_leaves_no_parent(self, tmp_path, capsys):
        out = tmp_path / "nest" / "a" / ("x" * 300)       # a name longer than NAME_MAX
        assert cli.main(["evolve", "--out", str(out)]) == 2
        assert "cannot make directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_override_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("G=0.5\nt_max=2\ndt=0.5\n")
        rc = cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                       "--set", "G=0"])
        assert rc == 0
        assert read_manifest(tmp_path / "o" / "manifest.txt")["G"] == "0.0"


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    model = {f.name: f.default for f in dataclasses.fields(ModelParams)}
    grid = {f.name: f.default for f in dataclasses.fields(SweepGrid)}
    for key in ("mu", "N", "t_max", "dt"):
        assert getattr(cfg, key) == model[key] == grid[key], key
    signature = inspect.signature(sweep_mod.default_grid).parameters
    assert (cfg.G_count, cfg.G_min, cfg.G_max) == tuple(
        signature[k].default for k in ("count", "G_min", "G_max"))
    assert cfg.t_min == sweep_mod.DEFAULT_T_MIN
    assert cfg.fd_step == lattice_mod.FD_STEP
    assert cfg.direction == grid["direction"]
    assert cli._sign_value(cfg) == grid["sign"]


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

    OVERFLOWING = [
        ["evolve", "--set", "N=3"],
        ["sweep", "--set", "N=3", "--set", "G_list=1,2", "--set", "t_min=0"],
        ["convergence", "--set", "N_list=2,3"],
    ]

    # every eigenvalue planted at 1e308, so E t overflows in the phase table
    # past t = 1.79 (ModelParams refuses a grid that could do so); at two
    # CPUs the sweep's second G is a forked child's
    @pytest.mark.parametrize("argv", OVERFLOWING)
    def test_an_overflowing_phase_exits_3_in_one_line(self, tmp_path, capfd, monkeypatch,
                                                      render_cpus, argv):
        render_cpus(2)
        solve = ParityBlock.eigensystem

        def planted(block):
            evals, evecs = solve(block)
            return np.full_like(evals, 1e308), evecs

        monkeypatch.setattr(ParityBlock, "eigensystem", planted)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            rc = cli.main([*argv, "--set", "t_max=5", "--set", "dt=0.1", "--out", str(out)])
        assert rc == 3 and not warned
        err = capfd.readouterr().err
        assert re.fullmatch(r"numerical consistency failure: .*overflow encountered.*\n", err)
        assert not out.exists()

    # two time points, 0 and 1e308: |E| t_max overflows, which ModelParams
    # refuses from a Gershgorin bound on |E| before any work
    @pytest.mark.parametrize("argv", OVERFLOWING)
    def test_a_grid_whose_phase_overflows_exits_2(self, tmp_path, capfd, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built")

        for module in (cli, model_mod, sweep_mod):
            monkeypatch.setattr(module, "build_minimal_hamiltonian", no_work)
        monkeypatch.setattr(model_mod, "_parity_block", no_work)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            rc = cli.main([*argv, "--set", "t_max=1e308", "--set", "dt=1e308",
                           "--out", str(out)])
        assert rc == 2 and not warned
        err = capfd.readouterr().err
        assert re.fullmatch(r"config error: (N_list: )?t_max=1e\+308 overflows the phases .*\n", err)
        assert not out.exists()

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
        assert f"G={G}" in err and "energy drifted" in err
        assert len(forks) == 1
        assert snapshot(out) == {}
        TestRenderProcesses.assert_no_child_left()
        assert parallel_mod._ONE_BLAS_THREAD.users == 0       # the map released the pin


class TestNonFiniteConfigValues:
    @pytest.mark.parametrize("command,setting", [
        ("lattice", "lattice_G=nan"),
        ("lattice", "lattice_G=inf"),
        ("evolve", "dt=nan"),
        ("evolve", "mu=inf"),
        ("gravity-check", "mu_list=1,inf"),
        ("gravity-check", "mu_list=nan,2"),
        ("sweep", "G_list=0.1,nan"),
        # values that do not parse, text choices outside their set, and an
        # override with no "="
        ("evolve", "N=abc"),
        ("evolve", "N=1e3"),
        ("evolve", "G=abc"),
        ("evolve", "direction=w"),
        ("evolve", "sign=0"),
        ("evolve", "G"),
        ("convergence", "N_list=3,x"),
        ("gravity-check", "mu_list=1,x"),
        ("gravity-check", "mu_list=,"),
    ])
    def test_rejected_as_config_error(self, tmp_path, capsys, command, setting):
        out = tmp_path / "o"
        rc = cli.main([command, "--out", str(out), "--set", "N=4", "--set", "N_mode=12",
                       "--set", "levels=3", "--set", "kx_count=3", "--set", "ky_count=3",
                       "--set", setting])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert setting.split("=")[0] in err
        assert not out.exists()


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

    @pytest.mark.parametrize("streamed", [0, 2], ids=["first", "after-one-G"])
    def test_diagnostics_before_the_heatmap_has_streamed_fails(self, streamed):
        cfg = parse_config(None, ["G_list=0.1,1", "N=4", "t_max=1", "dt=0.5", "t_min=0.5"])
        _, files, _ = cli.cmd_sweep(cfg)
        heatmap = files["heatmap.csv"]
        try:
            for _ in range(streamed):     # the header, then the first G's rows
                next(heatmap)
            with pytest.raises(ValueError):
                b"".join(files["diagnostics.csv"])
        finally:
            heatmap.close()

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
        grid = SweepGrid(G_values=G_values, N=6, t_max=45.0, dt=0.02)
        traces = [trace_at(grid, G) for G in grid.G_values]
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
        def peak_kb(G_count: int) -> int:
            return command_peak_kb(tmp_path / str(G_count),
                                   ["sweep", "--set", "N=4", "--set", f"G_count={G_count}"])

        small, large = peak_kb(4), peak_kb(64)
        assert large - small <= 1024, f"{small} kB at 4 G, {large} kB at 64 G"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_refused(self, tmp_path, monkeypatch, capsys, workers):
        def no_work(*args, **kwargs):
            raise AssertionError("a Hamiltonian was built")

        monkeypatch.setattr(sweep_mod, "build_minimal_hamiltonian", no_work)
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
        traces = [trace_at(grid, G) for G in grid.G_values]
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
        want = [revival_diagnostic(tr, t_min=1.0) for tr in [trace_at(grid, G) for G in grid.G_values]]
        assert diagnostics == [(d.revival_peak, d.first_peak_time) for d in want]

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
        with pytest.raises(ConfigError) as err:
            cli._write_outputs(missing.parent, "sweep", 0.0, [], {missing.name: [heatmap]})
        assert str(err.value) == f"cannot write {str(missing)!r}: {os.strerror(errno.ENOENT)}"


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

    # at two CPUs, G=1 is the forked child's job
    @pytest.mark.parametrize("planted, code", [
        (NumericalConsistencyError("planted"), 3),
        (MemoryError("planted"), 2),
        (ValueError("planted"), None),          # not a run failure: raised out of main
    ])
    def test_sweep_job_failure_is_the_same_at_one_and_two_cpus(self, tmp_path, monkeypatch,
                                                               capsys, render_cpus, forks,
                                                               planted, code):
        trace_at = cli.trace_at

        def failing(grid, G):
            if G == 1.0:
                raise planted
            return trace_at(grid, G)

        def outcome(call):
            try:
                return call()
            except Exception as exc:
                return type(exc), str(exc)

        monkeypatch.setattr(cli, "trace_at", failing)
        seen = []
        for cpus in (1, 2):
            render_cpus(cpus)
            heatmap = outcome(lambda: b"".join(cli._heatmap(short_grid((0.1, 1.0)),
                                                            ALL_TIMES, [], [])))
            assert heatmap == (type(planted), "planted")
            out = tmp_path / f"cpus{cpus}"
            rc = outcome(lambda: cli.main(["sweep", "--set", "N=4", "--set", "G_list=0.1,1",
                                           *FAST, "--set", "t_min=1", "--out", str(out)]))
            seen.append((rc, capsys.readouterr().err))
            assert not out.exists()
            self.assert_no_child_left()
        assert seen[0] == seen[1]
        assert seen[0][0] == (code if code is not None else (type(planted), "planted"))
        assert len(forks) == 2          # the heatmap's and the run's, at two CPUs

    # the sweep forks once, for its G; its t column is formatted in this process
    @pytest.mark.parametrize("argv, forked", [
        (EVOLVE, 1),
        (["sweep", "--set", "N=4", "--set", "t_max=100", "--set", "G_list=0.1,1,3,10"], 1),
    ])
    def test_write_fault_mid_file_leaves_no_child(self, tmp_path, monkeypatch, capsys,
                                                  render_cpus, forks, argv, forked):
        render_cpus(2)
        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        # the test holds the run's files, so only the closed generator can
        # have ended the child
        held, command = [], cli.COMMANDS[argv[0]]

        def holding(cfg):
            held.append(command(cfg))
            return held[0]

        monkeypatch.setitem(cli.COMMANDS, argv[0], holding)
        out = tmp_path / "o"
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert f"{os.strerror(errno.ENOSPC)}\n" in capsys.readouterr().err
        assert len(forks) == forked
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
    EVOLVE = ["evolve", "--set", "N=4", "--set", "t_max=5", "--set", "dt=0.1"]
    GRAVITY = ["gravity-check", "--set", "N_mode=12", "--set", "levels=3",
               "--set", "mu_list=1,2"]
    CONVERGENCE = ["convergence", "--set", "N_list=3,4", "--set", "t_max=5",
                   "--set", "dt=0.1"]
    # one key per command: lattice, sweep, evolve and convergence, gravity-check
    OTHER = ["--set", "lattice_G=0.02", "--set", "G_list=0.06,0.6,6", "--set", "G=0.4",
             "--set", "mu_list=0.5,4"]

    @staticmethod
    def fail_at(monkeypatch, tmp_path, argv, out, share):
        """Make the CSV number format of ``argv`` run into ``out`` raise
        MemoryError in the call that formats the number ``share`` of the way
        through the run (0: the first, 1: the last) of this process, or of a
        render child with as much work.  Returns a function that gives the
        names of the files in ``out`` at that moment."""
        count, seen, texts = [0], tmp_path / "seen", serialize_mod._texts

        def counting(values):
            count[0] += values.size
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", counting)
        assert cli.main([*argv, "--out", str(tmp_path / "count")]) == 0
        number, count[0] = max(1, round(share * count[0])), 0

        def failing(values):
            count[0] += values.size
            if count[0] >= number:
                with open(seen, "a") as fh:     # a render child's list outlives it here
                    fh.writelines(f"{f.name}\n" for f in (out.iterdir() if out.exists() else ()))
                raise MemoryError("injected")
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", failing)
        return lambda: sorted(seen.read_text().split()) if seen.exists() else []

    @pytest.mark.parametrize("command", ["LATTICE", "SWEEP"])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_failure_leaves_no_files(self, tmp_path, monkeypatch, capsys, command, share):
        out = tmp_path / "run"
        seen = self.fail_at(monkeypatch, tmp_path, getattr(self, command), out, share)
        assert cli.main([*getattr(self, command), "--out", str(out)]) == 2
        assert "run too large for memory" in capsys.readouterr().err
        if share > 0:                   # failed while a CSV streamed
            assert any(name.endswith(".csv.partial") for name in seen()), seen()
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

    @pytest.mark.parametrize("command", ["LATTICE", "SWEEP", "EVOLVE", "GRAVITY", "CONVERGENCE"])
    def test_commit_fault_keeps_an_earlier_run_or_leaves_no_manifest(self, tmp_path, capsys,
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
            assert cli.main([*argv, "--out", str(out)]) == 2
            fault[0] = None
            err = capsys.readouterr().err
            assert re.fullmatch(r"config error: cannot write '.*': injected at \w+\n", err), err
            after = snapshot(out)
            assert not any(name.endswith(".partial") for name in after), (k, sorted(after))
            assert after == before or "manifest.txt" not in after, (k, sorted(after))
        assert "manifest.txt" not in after      # the new files are in, the new manifest not

    @staticmethod
    def children(pid: int) -> list[int]:
        """The processes that ``pid`` forked and has not reaped."""
        path = Path(f"/proc/{pid}/task/{pid}/children")
        return [int(child) for child in path.read_text().split()] if path.exists() else []

    @staticmethod
    def running(pids) -> list[int]:
        """Those of ``pids`` that still run: neither gone nor a zombie."""
        stats = [Path(f"/proc/{pid}/stat") for pid in pids]
        return [pid for pid, stat in zip(pids, stats)
                if stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"]

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                        reason="needs /proc's children lists")
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
    def test_a_stopping_signal_mid_sweep_leaves_nothing(self, tmp_path, signum):
        # the default 60-G sweep takes seconds; the signal comes once its
        # heatmap streams and, given two CPUs, its render child runs
        out = tmp_path / "runs" / "run1"
        env = {**os.environ, "PYTHONPATH": str(Path(metricspin.__file__).parents[1])}
        # the signal at its default action, also where the suite runs with it
        # ignored (a shell's background job ignores SIGINT)
        proc = subprocess.Popen([sys.executable, "-m", "metricspin", "sweep", "--out", str(out)],
                                stderr=subprocess.PIPE, text=True, env=env,
                                preexec_fn=lambda: signal.signal(signum, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not ((out / "heatmap.csv.partial").exists()
                       and (self.children(proc.pid) or parallel_mod.usable_cpus() == 1)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            forked = self.children(proc.pid)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 128 + signum, err
        assert err == f"stopped by {signal.Signals(signum).name}\n"
        assert not (tmp_path / "runs").exists()
        assert not [pid for pid in forked if Path(f"/proc/{pid}").exists()]

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                        reason="needs /proc's children lists")
    @pytest.mark.skipif(parallel_mod.usable_cpus() < 2, reason="a render forks at 2 or more CPUs")
    def test_a_render_child_dies_with_a_killed_command(self, tmp_path):
        # each process's one G is an N=30 trace over 15,001 time points,
        # about 2 s; the command is killed as soon as it has forked
        env = {**os.environ, "PYTHONPATH": str(Path(metricspin.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "metricspin", "sweep", "--set", "N=30",
                                 "--set", "t_max=300", "--set", "G_count=2",
                                 "--out", str(tmp_path / "run")], env=env)
        forked = []
        try:
            deadline = time.monotonic() + 60
            while not forked:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
                forked = self.children(proc.pid)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 1
            while self.running(forked) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not self.running(forked)
        finally:
            proc.kill()
            proc.wait()
            for pid in self.running(forked):
                os.kill(pid, signal.SIGKILL)

    def test_a_signal_as_a_render_forks_stops_the_run_and_its_child(self, tmp_path,
                                                                     monkeypatch, capsys,
                                                                     render_cpus):
        # the signal comes as the fork returns in the command, before the
        # child's pid is recorded: its handler must wait until it is
        render_cpus(2)
        fork = os.fork

        def signalled():
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", signalled)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            rc = cli.main(["evolve", "--set", "N=4", "--set", "t_max=100",
                           "--out", str(tmp_path / "run")])
        finally:
            signal.signal(signal.SIGINT, previous)
        assert rc == 128 + signal.SIGINT
        assert capsys.readouterr().err == "stopped by SIGINT\n"
        TestRenderProcesses.assert_no_child_left()
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("ignored", [False, True])
    def test_a_sighup_stops_a_run_unless_it_was_ignored(self, tmp_path, monkeypatch, capsys,
                                                        ignored):
        evolve = cli.COMMANDS["evolve"]

        def hung_up(cfg):
            os.kill(os.getpid(), signal.SIGHUP)
            return evolve(cfg)

        monkeypatch.setitem(cli.COMMANDS, "evolve", hung_up)
        previous = signal.signal(signal.SIGHUP, signal.SIG_IGN if ignored else signal.SIG_DFL)
        try:
            rc = cli.main([*self.EVOLVE, "--out", str(tmp_path / "run")])
        finally:
            signal.signal(signal.SIGHUP, previous)
        if ignored:         # as under nohup
            assert rc == 0 and (tmp_path / "run" / "manifest.txt").exists()
        else:
            assert rc == 128 + signal.SIGHUP
            assert capsys.readouterr().err == "stopped by SIGHUP\n"
            assert not (tmp_path / "run").exists()

    def test_main_restores_the_signal_handlers(self, tmp_path):
        stops = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)
        before = [signal.getsignal(s) for s in stops]
        assert cli.main([*self.EVOLVE, "--out", str(tmp_path)]) == 0
        assert [signal.getsignal(s) for s in stops] == before


#: a bands grid whose |f| is 0.0 on its ky_min edge, in tabled and untabled blocks
ZERO_BAND = ["kx_count=101", "ky_count=61", "kx_min=-4.4", "kx_max=4.4",
             "ky_min=-1", "ky_max=4.4", "lattice_G=0.01", "beta_c=1"]


def zero_band_dispersion(k_grid, couplings):
    """:func:`dispersion` with |f| = 0.0 where ky is ``ZERO_BAND``'s ky_min, -1."""
    _, mag = dispersion(k_grid, couplings)
    mag = np.where(np.asarray(k_grid)[..., 1] == -1.0, 0.0, mag)
    return -mag, mag


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

    @pytest.mark.parametrize("grid", [
        ["kx_count=2", "ky_count=2"],
        ["kx_count=41", "ky_count=41"],         # the default: one job, no fork
        # 2257 rows, not a whole number of jobs; off centre, so few values repeat
        ["kx_count=37", "ky_count=61", "kx_min=-1.1", "lattice_G=0.01", "alpha_c=0.2"],
        # 7500 rows: the first kx row spans two jobs
        ["kx_count=3", "ky_count=2500", "lattice_G=0.01", "alpha_c=0.2"],
        # the pinned run of test_pinned_outputs
        ["kx_count=61", "ky_count=61", "kx_min=-4.4", "kx_max=4.4", "ky_min=-4.4", "ky_max=4.4"],
        # off centre in ky: E_plus is tabled in the block that spans kx = 0 alone
        ["kx_count=101", "ky_count=61", "kx_min=-4.4", "kx_max=4.4", "ky_min=-1", "ky_max=4.4"],
        ZERO_BAND,
    ])
    def test_bands_stream_matches_the_whole_grid_render(self, tmp_path, monkeypatch,
                                                        render_cpus, forks, grid):
        bands = zero_band_dispersion if grid == ZERO_BAND else dispersion
        monkeypatch.setattr(cli, "dispersion", bands)
        args = [a for item in grid for a in ("--set", item)]
        written = []
        for cpus in (1, 2):
            render_cpus(cpus)
            assert cli.main(["lattice", "--out", str(tmp_path / str(cpus)), *args]) == 0
            written.append((tmp_path / str(cpus) / "bands.csv").read_bytes())
        cfg = parse_config(None, grid)
        kx_grid, ky_grid = np.meshgrid(np.linspace(cfg.kx_min, cfg.kx_max, cfg.kx_count),
                                       np.linspace(cfg.ky_min, cfg.ky_max, cfg.ky_count),
                                       indexing="ij")
        couplings = LatticeCouplings.from_background(cfg.lattice_G, cfg.alpha_c, cfg.beta_c)
        e_lo, e_hi = bands(np.stack([kx_grid, ky_grid], axis=-1), couplings)
        want = csv_oracle(cli.BANDS_HEADER, [kx_grid.ravel(), ky_grid.ravel(),
                                             e_lo.ravel(), e_hi.ravel()]).encode()
        assert written == [want, want]
        assert len(forks) == (kx_grid.size > _BLOCK_ROWS)     # one map, at two CPUs
        if grid == ZERO_BAND:
            assert want.count(b",-0.0,0.0\n") == cfg.kx_count

    def test_bands_format_each_number_once(self, monkeypatch, render_cpus):
        # the axes once per file; per block, E_plus's distinct values where it
        # is tabled, else its rows; E_minus takes E_plus's texts
        render_cpus(1)      # counts the formatting of one process
        formatted, texts = [0], serialize_mod._texts

        def counting(values):
            formatted[0] += values.size
            return texts(values)

        monkeypatch.setattr(serialize_mod, "_texts", counting)
        kx, ky = np.linspace(-np.pi, np.pi, 81), np.linspace(-np.pi, np.pi, 61)
        couplings = LatticeCouplings.from_background(0.01, 0.0, 1.0)
        rows = b"".join(cli._bands(kx, ky, couplings))
        kx_grid, ky_grid = np.meshgrid(kx, ky, indexing="ij")
        e_lo, e_hi = dispersion(np.stack([kx_grid, ky_grid], axis=-1), couplings)
        assert rows == csv_oracle(cli.BANDS_HEADER, [kx_grid.ravel(), ky_grid.ravel(),
                                                     e_lo.ravel(), e_hi.ravel()]).encode()
        blocks = [e_hi.ravel()[lo:lo + _BLOCK_ROWS] for lo in range(0, e_hi.size, _BLOCK_ROWS)]
        distinct = [np.unique(b.view(np.int64)).size for b in blocks]
        tabled = [d <= serialize_mod._TABLE_SHARE * b.size for d, b in zip(distinct, blocks)]
        assert len(blocks) > 2 and any(tabled) and not all(tabled)
        want = kx.size + ky.size + sum(d if t else b.size
                                       for d, t, b in zip(distinct, tabled, blocks))
        assert formatted[0] == want

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_peak_memory_is_flat_in_the_grid(self, tmp_path):
        # the command's process holds the two axes and one job's rows: its
        # peak at 1201 x 1201 is that at 401 x 401, nine times fewer rows,
        # where the whole grid's columns alone would add 41 MB
        def peak_kb(count: int) -> int:
            return command_peak_kb(tmp_path / str(count), [
                "lattice", "--set", f"kx_count={count}", "--set", f"ky_count={count}"])

        small, large = peak_kb(401), peak_kb(1201)
        assert abs(large - small) <= 3 * 1024, f"{small} kB at 401^2, {large} kB at 1201^2"

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

    def test_grid_checked_at_each_cutoff(self, tmp_path):
        # the phase bound |E| t_max is finite at N=2 and 3 (|E| <= 4.9 and
        # 8.1), though not at the default N=14, which the run never uses
        argv = ["convergence", "--set", "N_list=2,3", "--set", "t_max=2e307",
                "--set", "dt=2e307", "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert non_finite_files(tmp_path / "o") == []

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


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("argv, name", [
    (["lattice", "--set", "kx_count=201", "--set", "ky_count=201"], "bands.csv"),
    (["evolve", "--set", "N=4", "--set", "t_max=100"], "trace.csv"),
])
def test_file_size_limit_exits_2_in_one_line(tmp_path, argv, name):
    # a write past RLIMIT_FSIZE fails with EFBIG once SIGXFSZ is ignored, as
    # one past a full disk or a quota fails with ENOSPC or EDQUOT
    code = ("import resource, signal, sys; from metricspin import cli; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (16384, hard)); "
            "sys.exit(cli.main(sys.argv[1:]))")
    out = tmp_path / "o"
    env = {**os.environ, "PYTHONPATH": str(Path(metricspin.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"config error: cannot write {str(out / name)!r}: "
                           f"{os.strerror(errno.EFBIG)}\n")
    assert not out.exists()
    assert not list(tmp_path.rglob("*.partial"))


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
        # 2 N^2 states past the largest array index
        ("evolve", "N=10000000000000000000", ()),
        ("evolve", "N=1" + "0" * 400, ()),
        ("sweep", "N=10000000000000000000", ("G_count=2",)),
        ("convergence", "N_list=2,10000000000000000000", ()),
        # |E| t_max overflows at the cutoff N=14, not at N=2
        ("convergence", "t_max=2e307", ("dt=2e307", "N_list=2,14")),
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
        monkeypatch.setattr(model_mod, "_parity_block", work)
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


# ---------------------------------------------------------------- drawn runs

#: texts that drawn numbers seldom hit: a double's extremes, a signed zero, non-numbers
EXTREME_TEXTS = ["1e300", "-1e300", "5e-324", "-0.0", "0", "nan", "x", ""]

ANY = st.floats(allow_nan=False, allow_infinity=False)


def text(value) -> str:
    return fmt(value) if isinstance(value, float) else str(value)


def as_text(values):
    return values.map(text)


def key(tame, bound=ANY):
    """A key's ``--set`` texts: tame ones, from ``tame``, and wild ones: a
    value within ``bound`` (the size keys'), any finite float or an extreme."""
    return as_text(tame), st.one_of(as_text(bound), as_text(ANY), st.sampled_from(EXTREME_TEXTS))


def listed(entries, bound=ANY, min_size=1):
    """A list key: distinct tame ``entries`` in increasing order, or up to four wild ones."""
    tame = st.lists(entries, min_size=min_size, max_size=4, unique=True)
    return (tame.map(lambda values: ",".join(map(text, sorted(values)))),
            st.lists(key(entries, bound)[1], max_size=4).map(",".join))


@st.composite
def time_grid(draw, wild):
    """``t_max`` and ``dt`` of at most 200 time points, each tame unless named in ``wild``.

    A wild ``dt`` is any float or extreme text; a wild ``t_max`` is, beside
    the tame one, a text that no ``dt`` turns into more time points."""
    dt = draw(key(st.floats(0.01, 1.0))["dt" in wild])
    try:
        t_max = fmt(draw(st.floats(1.0, 199.0)) * float(dt))
    except ValueError:      # dt does not parse
        t_max = "1"
    if "t_max" in wild:
        t_max = draw(st.one_of(st.just(t_max), as_text(st.floats(-2.0, 0.0)),
                               st.sampled_from(["-1e300", "5e-324", "nan", "x", ""])))
    return {"t_max": t_max, "dt": dt}


SHARED = {"direction": (st.sampled_from("xyz"), st.sampled_from(["w", "", "xy"])),
          "sign": (st.sampled_from("+-"), st.sampled_from(["0", "", "+-"])),
          "mu": key(st.floats(0.1, 10.0)), "N": key(st.integers(2, 6), st.integers(-1, 6))}
TIMED = ("evolve", "sweep", "convergence")

#: every key each command reads, tame and wild, drawn so that a run stays
#: small: N <= 6, at most 200 time points, k counts <= 50, N_mode <= 300,
#: G_count <= 4
COMMAND_KEYS = {
    "evolve": {**SHARED, "G": key(st.floats(0.0, 20.0))},
    "sweep": {**SHARED, "G_min": key(st.floats(1e-3, 1.0)), "G_max": key(st.floats(1.0, 100.0)),
              "G_count": key(st.integers(1, 4), st.integers(-1, 4)),
              "G_list": tuple(st.one_of(st.just(""), s) for s in listed(st.floats(0.0, 20.0))),
              "t_min": key(st.floats(0.0, 5.0))},
    "lattice": {**{k: key(st.floats(0.0, 0.1)) for k in ("lattice_G", "alpha_c", "beta_c")},
                "kx_min": key(st.floats(-4.4, 0.0)), "kx_max": key(st.floats(0.1, 4.4)),
                "ky_min": key(st.floats(-4.4, 0.0)), "ky_max": key(st.floats(0.1, 4.4)),
                "kx_count": key(st.integers(2, 50), st.integers(-1, 50)),
                "ky_count": key(st.integers(2, 50), st.integers(-1, 50)),
                "fd_step": key(st.floats(1e-6, 1e-4))},
    "gravity-check": {"mu_list": listed(st.floats(0.3, 5.0)),
                      "N_mode": key(st.integers(12, 300), st.integers(-1, 300)),
                      "levels": key(st.integers(2, 4), st.integers(-1, 200))},
    "convergence": {**{k: v for k, v in SHARED.items() if k != "N"},
                    "G": key(st.floats(0.0, 20.0)),
                    "N_list": listed(st.integers(2, 6), st.integers(-1, 6), min_size=2)},
}


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_drawn_run_exits_0_2_or_3(tmp_path_factory, capfd, command, data):
    # every key of the command is set: tame, or, for up to two keys, wild
    names = [*COMMAND_KEYS[command], *(("t_max", "dt") if command in TIMED else ())]
    wild = data.draw(st.sets(st.sampled_from(names), max_size=2))
    keys = {k: data.draw(texts[k in wild]) for k, texts in COMMAND_KEYS[command].items()}
    if command in TIMED:
        keys.update(data.draw(time_grid(wild)))
    base = tmp_path_factory.mktemp("drawn")
    with warnings.catch_warnings(record=True) as warned:     # each would be stderr lines
        warnings.simplefilter("always")
        rc = cli.main([command, "--out", str(base / "made" / "run"),
                       *(a for k, v in keys.items() for a in ("--set", f"{k}={v}"))])
    err = capfd.readouterr().err
    assert rc in (0, 2, 3) and err.count("\n") <= 1 and "Traceback" not in err, (rc, err)
    assert not warned, [str(w.message) for w in warned]
    assert (base / "made").exists() == (rc == 0)
