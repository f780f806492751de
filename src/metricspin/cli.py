"""Command-line entry point: evolve, sweep, lattice, gravity-check, convergence.

Every command is deterministic given its config file.  Exit codes are a
stable contract: 0 success, 2 config error, 3 numerical-consistency
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, parse_config, parse_float_list, parse_int_list
from .errors import ConfigError, ExtractionInvalidError, NumericalConsistencyError
from .gravity import (
    bogoliubov_params,
    quadratic_site_hamiltonian,
    resonant_momentum,
    spectrum_spacing,
)
from .lattice import (
    LatticeCouplings,
    dispersion,
    fermi_point_residual,
    low_energy_coefficients,
)
from .model import (
    ModelParams,
    build_minimal_hamiltonian,
    initial_state,
    observable_trace,
    truncation_convergence,
)
from .serialize import fmt, render_csv, render_manifest, sha256_hex, write_text
from .sweep import SweepGrid, default_grid, revival_diagnostic, run_sweep

TRACE_HEADER = "t,sx,sy,sz,px,py,pz,n_alpha,n_beta,energy,norm"
DIAGNOSTICS_HEADER = "G,revival_peak,first_peak_time"
BANDS_HEADER = "kx,ky,E_minus,E_plus"
GRAVITY_HEADER = ("mu,r,cosh2r,sinh2r,identity_residual,"
                  "spacing,spacing_dev,spacing_over_2mu,spacing_over_4mu,k_R")
CONVERGENCE_HEADER = "N_low,N_high,max_deviation"


def _sign_value(cfg: RunConfig) -> int:
    return 1 if cfg.sign == "+" else -1


def _model_params(cfg: RunConfig) -> ModelParams:
    try:
        return ModelParams(G=cfg.G, mu=cfg.mu, N=cfg.N, t_max=cfg.t_max, dt=cfg.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_outputs(outdir: Path, command: str, config_pairs, files: dict[str, str],
                   wall_time: float, extra_pairs=()):
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        write_text(outdir / name, text)
    primary = next(iter(files))
    digests = {name: sha256_hex(text) for name, text in files.items()}
    pairs = [("command", command), ("code_version", __version__)]
    pairs.extend(config_pairs)
    pairs.append(("wall_time_s", f"{wall_time:.3f}"))
    pairs.append(("checksum_sha256", digests[primary]))
    pairs.extend((f"checksum_sha256.{name}", d) for name, d in digests.items())
    pairs.extend(extra_pairs)
    write_text(outdir / "manifest.txt", render_manifest(pairs))


def cmd_evolve(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    params = _model_params(cfg)
    h = build_minimal_hamiltonian(params)
    psi0 = initial_state(cfg.direction, _sign_value(cfg), params.space)
    trace = observable_trace(h, psi0, params)
    config_pairs = [
        ("direction", cfg.direction), ("sign", cfg.sign),
        ("G", fmt(cfg.G)), ("mu", fmt(cfg.mu)), ("N", str(cfg.N)),
        ("t_max", fmt(cfg.t_max)), ("dt", fmt(cfg.dt)),
    ]
    columns = (trace.times, trace.sx, trace.sy, trace.sz, trace.px, trace.py,
               trace.pz, trace.n_alpha, trace.n_beta, trace.energy, trace.norm)
    _write_outputs(outdir, "evolve", config_pairs,
                   {"trace.csv": render_csv(TRACE_HEADER, columns)},
                   time.perf_counter() - t0)
    return 0


def _sweep_grid(cfg: RunConfig) -> SweepGrid:
    shared = dict(direction=cfg.direction, sign=_sign_value(cfg), mu=cfg.mu, N=cfg.N,
                  t_max=cfg.t_max, dt=cfg.dt)
    try:
        if cfg.G_list.strip():
            return SweepGrid(G_values=parse_float_list(cfg.G_list, "G_list"), **shared)
        return default_grid(cfg.G_count, cfg.G_min, cfg.G_max, **shared)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_sweep(cfg: RunConfig, outdir: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    if workers < 1:
        raise ConfigError(f"option '--workers' must be >= 1, got {workers}")
    grid = _sweep_grid(cfg)
    if cfg.t_min >= cfg.t_max:
        raise ConfigError("key 't_min' must be below t_max")
    result = run_sweep(grid, workers=workers)
    diags = [revival_diagnostic(trace, t_min=cfg.t_min) for trace in result.traces]
    diag_columns = (np.array(grid.G_values),
                    np.array([d.revival_peak for d in diags]),
                    np.array([d.first_peak_time for d in diags]))
    files = {
        "heatmap.csv": result.heatmap_csv,
        "diagnostics.csv": render_csv(DIAGNOSTICS_HEADER, diag_columns),
    }
    config_pairs = [
        ("direction", cfg.direction), ("sign", cfg.sign),
        ("mu", fmt(cfg.mu)), ("N", str(cfg.N)),
        ("t_max", fmt(cfg.t_max)), ("dt", fmt(cfg.dt)),
        ("G_count", str(len(grid.G_values))),
        ("G_values", ",".join(fmt(v) for v in grid.G_values)),
        ("t_min", fmt(cfg.t_min)),
    ]
    extra = [(f"checksum.run.{i:03d}", c) for i, c in enumerate(result.run_checksums)]
    _write_outputs(outdir, "sweep", config_pairs, files,
                   time.perf_counter() - t0, extra_pairs=extra)
    return 0


def cmd_lattice(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    if cfg.kx_count < 2 or cfg.ky_count < 2:
        raise ConfigError("keys 'kx_count'/'ky_count' must be >= 2 per axis")
    if cfg.lattice_G < 0:
        raise ConfigError(f"key 'lattice_G' must be non-negative, got {cfg.lattice_G}")
    couplings = LatticeCouplings.from_background(cfg.lattice_G, cfg.alpha_c, cfg.beta_c)
    res_p, res_m = fermi_point_residual(couplings)
    report = [("residual_P_plus", fmt(res_p)), ("residual_P_minus", fmt(res_m))]
    for which, tag in (("P+", "P_plus"), ("P-", "P_minus")):
        try:
            A, B, C, D = low_energy_coefficients(couplings, which, step=cfg.fd_step)
        except ValueError as exc:
            raise ConfigError(f"key 'fd_step': {exc}") from exc
        report.extend([(f"A_{tag}", fmt(A)), (f"B_{tag}", fmt(B)),
                       (f"C_{tag}", fmt(C)), (f"D_{tag}", fmt(D))])
    kx = np.linspace(cfg.kx_min, cfg.kx_max, cfg.kx_count)
    ky = np.linspace(cfg.ky_min, cfg.ky_max, cfg.ky_count)
    kx_grid, ky_grid = np.meshgrid(kx, ky, indexing="ij")
    e_lo, e_hi = dispersion(np.stack([kx_grid, ky_grid], axis=-1), couplings)
    band_columns = (kx_grid.ravel(), ky_grid.ravel(), e_lo.ravel(), e_hi.ravel())
    files = {
        "bands.csv": render_csv(BANDS_HEADER, band_columns),
        "fermi_report.txt": render_manifest(report),
    }
    config_pairs = [
        ("lattice_G", fmt(cfg.lattice_G)), ("alpha_c", fmt(cfg.alpha_c)),
        ("beta_c", fmt(cfg.beta_c)),
        ("kx_min", fmt(cfg.kx_min)), ("kx_max", fmt(cfg.kx_max)),
        ("ky_min", fmt(cfg.ky_min)), ("ky_max", fmt(cfg.ky_max)),
        ("kx_count", str(cfg.kx_count)), ("ky_count", str(cfg.ky_count)),
        ("fd_step", fmt(cfg.fd_step)),
    ]
    _write_outputs(outdir, "lattice", config_pairs, files, time.perf_counter() - t0)
    return 0


def cmd_gravity_check(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    mus = parse_float_list(cfg.mu_list, "mu_list")
    if not mus:
        raise ConfigError("key 'mu_list' must name at least one mass value")
    try:
        bps = [bogoliubov_params(mu) for mu in mus]
    except ValueError as exc:
        raise ConfigError(f"key 'mu_list': {exc}") from exc
    if cfg.N_mode < 4:
        raise ConfigError(f"key 'N_mode' must be >= 4, got {cfg.N_mode}")
    if cfg.levels < 2 or cfg.levels > cfg.N_mode // 3:
        raise ConfigError("key 'levels' must satisfy 2 <= levels <= N_mode//3")
    rows = []
    for mu, bp in zip(mus, bps):
        residual = abs(bp.cosh2r ** 2 - bp.sinh2r ** 2 - 1.0)
        ham = quadratic_site_hamiltonian(mu, cfg.N_mode)
        spacing, dev = spectrum_spacing(ham, cfg.levels)
        rows.append((mu, bp.r, bp.cosh2r, bp.sinh2r, residual, spacing, dev,
                     spacing / (2.0 * mu), spacing / (4.0 * mu),
                     resonant_momentum(mu)))
    config_pairs = [("mu_list", cfg.mu_list), ("N_mode", str(cfg.N_mode)),
                    ("levels", str(cfg.levels))]
    _write_outputs(outdir, "gravity-check", config_pairs,
                   {"gravity_report.csv": render_csv(GRAVITY_HEADER,
                                                      np.array(rows, dtype=float).T)},
                   time.perf_counter() - t0)
    return 0


def cmd_convergence(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    n_list = parse_int_list(cfg.N_list, "N_list")
    if len(n_list) < 2:
        raise ConfigError("key 'N_list' must name at least two cutoffs")
    params = _model_params(cfg)
    try:
        pairs = truncation_convergence(params, cfg.direction, _sign_value(cfg), n_list)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi, dev = zip(*pairs)
    columns = (np.array(lo), np.array(hi), np.array(dev, dtype=float))
    config_pairs = [
        ("direction", cfg.direction), ("sign", cfg.sign),
        ("G", fmt(cfg.G)), ("mu", fmt(cfg.mu)), ("N_list", cfg.N_list),
        ("t_max", fmt(cfg.t_max)), ("dt", fmt(cfg.dt)),
    ]
    _write_outputs(outdir, "convergence", config_pairs,
                   {"convergence.csv": render_csv(CONVERGENCE_HEADER, columns)},
                   time.perf_counter() - t0)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricspin",
        description="Spin-1/2 probe coupled to two bosonic fluctuation modes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("evolve", "sweep", "lattice", "gravity-check", "convergence"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="concurrent sweep workers")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.out is not None:
            cfg.out = args.out
        if not cfg.out:
            raise ConfigError("no output directory: set key 'out' or pass --out")
        outdir = Path(cfg.out)
        if args.command == "evolve":
            return cmd_evolve(cfg, outdir)
        if args.command == "sweep":
            return cmd_sweep(cfg, outdir, workers=args.workers)
        if args.command == "lattice":
            return cmd_lattice(cfg, outdir)
        if args.command == "gravity-check":
            return cmd_gravity_check(cfg, outdir)
        return cmd_convergence(cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: run too large for memory: {exc}", file=sys.stderr)
        return 2
    except (NumericalConsistencyError, ExtractionInvalidError) as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
