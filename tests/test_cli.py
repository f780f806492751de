import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import metricspin.cli as cli
import metricspin.sweep as sweep_mod
from metricspin.errors import NumericalConsistencyError
from metricspin.lattice import LatticeCouplings, dispersion
from metricspin.model import (
    ModelParams,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
)
from metricspin.sweep import HEATMAP_HEADER
from oracles import csv_oracle

SQRT2 = math.sqrt(2.0)

FAST = ["--set", "t_max=5", "--set", "dt=0.1"]


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
        psi0 = initial_state(direction, 1 if sign == "+" else -1, params.space)
        tr = observable_trace(build_minimal_hamiltonian(params), psi0, params)
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

        def drifting(h, psi0, params):
            if params.G == 0.2:
                raise NumericalConsistencyError("synthetic drift")
            return real(h, psi0, params)

        monkeypatch.setattr(sweep_mod, "observable_trace", drifting)
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--out", str(out), "--set", "G_list=0.02,0.2",
                       *FAST, "--set", "t_min=1", "--set", "N=4"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "G=0.2" in err and "drift" in err
        assert not out.exists() or not any(out.iterdir())


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
        cli.main(["sweep", "--out", str(tmp_path / "a"), *args])
        cli.main(["sweep", "--out", str(tmp_path / "b"), "--workers", "4", *args])
        assert ((tmp_path / "a" / "heatmap.csv").read_bytes()
                == (tmp_path / "b" / "heatmap.csv").read_bytes())

    def test_heatmap_bytes_match_per_element_rendering(self, tmp_path):
        G_values = (0.0, 0.05, 3.5)
        rc = cli.main(["sweep", "--out", str(tmp_path), "--set", "G_list=0,0.05,3.5",
                       "--set", "N=6", "--set", "t_max=45", "--set", "dt=0.02",
                       "--set", "t_min=1"])
        assert rc == 0
        result = sweep_mod.run_sweep(sweep_mod.SweepGrid(G_values=G_values, N=6,
                                                         t_max=45.0, dt=0.02))
        parts = [(np.full(tr.times.size, G), tr.times, tr.sx, tr.px, tr.n_alpha, tr.n_beta)
                 for G, tr in zip(G_values, result.traces)]
        columns = [np.concatenate(col) for col in zip(*parts)]
        want = csv_oracle(HEATMAP_HEADER, columns).encode()
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


class TestOutOfRangeValues:
    """Finite values outside a formula's range exit 2 and write nothing."""

    PROBES = [
        ("evolve", "mu=1e-300", ()),          # mu^1.5 underflows to 0
        ("evolve", "mu=1e300", ()),           # mu^1.5 overflows
        ("convergence", "mu=1e300", ()),
        ("sweep", "mu=1e-300", ("G_count=2", "N=4", "t_max=3")),
        ("gravity-check", "mu_list=1e-300", ()),   # cosh^2 2r overflows
        ("gravity-check", "mu_list=1e200", ()),
        ("lattice", "fd_step=0", ()),
        ("lattice", "fd_step=1e-320", ()),
        ("lattice", "fd_step=1e-17", ()),          # k0 + step rounds to k0
        ("lattice", "fd_step=-1e-5", ()),
    ]

    @pytest.mark.parametrize("command,setting,extra", PROBES,
                             ids=[f"{c}-{s}" for c, s, _ in PROBES])
    def test_refused_as_config_error(self, tmp_path, capsys, command, setting, extra):
        out = tmp_path / "o"
        key = setting.split("=")[0]
        sets = [arg for item in [setting, *extra] for arg in ("--set", item)]
        rc = cli.main([command, *sets, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert re.search(rf"\b{key}\b", err), err
        assert not out.exists()

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
