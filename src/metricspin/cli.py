"""Command-line entry point: evolve, sweep, lattice, gravity-check, convergence.

Every command is deterministic given its config file.  Exit codes are a
stable contract: 0 success, 2 config error, 3 numerical-consistency
failure.  Each command builds all its library inputs, which refuse
out-of-range values, before any work; :func:`_refused_as` names the key.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, serialize
from .config import RunConfig, parse_config, parse_float_list, parse_int_list
from .errors import ConfigError, ExtractionInvalidError, NumericalConsistencyError
from .gravity import (
    bogoliubov_params,
    check_levels,
    quadratic_site_hamiltonian,
    resonant_momentum,
    spectrum_spacing,
)
from .lattice import (
    LatticeCouplings,
    check_k_window,
    dispersion,
    fermi_point_residual,
    low_energy_coefficients,
)
from .model import (
    ModelParams,
    build_minimal_hamiltonian,
    convergence_params,
    initial_state,
    observable_trace,
    truncation_convergence,
)
from .serialize import _rendered, fmt, render_csv, render_manifest, write_partial
from .sweep import SweepGrid, check_t_min, default_grid, revival_diagnostic, trace_at

TRACE_HEADER = "t,sx,sy,sz,px,py,pz,n_alpha,n_beta,energy,norm"
HEATMAP_HEADER = "G,t,sx,px,n_alpha,n_beta"
DIAGNOSTICS_HEADER = "G,revival_peak,first_peak_time"
BANDS_HEADER = "kx,ky,E_minus,E_plus"
GRAVITY_HEADER = ("mu,r,cosh2r,sinh2r,identity_residual,"
                  "spacing,spacing_dev,spacing_over_2mu,spacing_over_4mu,k_R")
CONVERGENCE_HEADER = "N_low,N_high,max_deviation"


def _sign_value(cfg: RunConfig) -> int:
    return 1 if cfg.sign == "+" else -1


@contextmanager
def _refused_as(*keys: str):
    """Re-raise a library ``ValueError`` in the block as a ``ConfigError`` naming ``keys``.

    With no keys the message names the key already (``ModelParams`` fields
    are config keys).  Wrap input building only, never work: a numpy
    ``ValueError`` mid-run is a fault, not a config error.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{'/'.join(keys)}: {exc}" if keys else str(exc)) from exc


def _model_params(cfg: RunConfig, **fields) -> ModelParams:
    with _refused_as():
        return ModelParams(mu=cfg.mu, t_max=cfg.t_max, dt=cfg.dt, **fields)


def _config_pairs(cfg: RunConfig, *keys: str) -> list[tuple[str, str]]:
    """Manifest pairs of config ``keys``: floats as ``fmt`` renders them, the rest as text."""
    values = [getattr(cfg, k) for k in keys]
    return [(k, fmt(v) if isinstance(v, float) else str(v)) for k, v in zip(keys, values)]


def _write_outputs(outdir: Path, command: str, config_pairs, files, t0: float,
                   run_checksums=()):
    """Write ``files`` (name -> iterable of bytes blocks, the primary first) and the manifest.

    Every file goes to ``<name>.partial`` first, its sha256 taken as it is
    written; a sweep's ``run_checksums`` fill as its heatmap streams.
    ``wall_time_s`` runs from ``t0`` to the last file written.  Then the
    old manifest is removed, the files are renamed into place and the new
    manifest last, so a manifest always matches its directory.  A failure
    removes every partial file, and ``outdir`` if this run made it and it is empty.
    """
    made = not outdir.exists()
    outdir.mkdir(parents=True, exist_ok=True)
    digests, partials = {}, []
    try:
        for name, blocks in files.items():
            digest = hashlib.sha256()
            partials.append(write_partial(outdir / name, blocks, digest))
            digests[name] = digest.hexdigest()
        pairs = [("command", command), ("code_version", __version__), *config_pairs,
                 ("wall_time_s", f"{time.perf_counter() - t0:.3f}"),
                 ("checksum_sha256", next(iter(digests.values()))),
                 *((f"checksum_sha256.{name}", d) for name, d in digests.items()),
                 *((f"checksum.run.{i:03d}", c) for i, c in enumerate(run_checksums))]
        partials.append(write_partial(outdir / "manifest.txt", render_manifest(pairs)))
        (outdir / "manifest.txt").unlink(missing_ok=True)
        for partial in partials:
            partial.replace(partial.with_suffix(""))
    except BaseException:
        for partial in partials:
            partial.unlink(missing_ok=True)
        if made and not any(outdir.iterdir()):
            outdir.rmdir()
        raise


def cmd_evolve(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    params = _model_params(cfg, G=cfg.G, N=cfg.N)
    h = build_minimal_hamiltonian(params)
    trace = observable_trace(h, initial_state(cfg.direction, _sign_value(cfg), params.N))
    config_pairs = _config_pairs(cfg, "direction", "sign", "G", "mu", "N", "t_max", "dt")
    columns = (trace.times, trace.sx, trace.sy, trace.sz, trace.px, trace.py,
               trace.pz, trace.n_alpha, trace.n_beta, trace.energy, trace.norm)
    _write_outputs(outdir, "evolve", config_pairs,
                   {"trace.csv": render_csv(TRACE_HEADER, columns)}, t0)
    return 0


def _sweep_grid(cfg: RunConfig) -> SweepGrid:
    shared = dict(direction=cfg.direction, sign=_sign_value(cfg), mu=cfg.mu, N=cfg.N,
                  t_max=cfg.t_max, dt=cfg.dt)
    if cfg.G_list.strip():
        with _refused_as("G_list"):
            return SweepGrid(G_values=parse_float_list(cfg.G_list, "G_list"), **shared)
    with _refused_as("G_count", "G_min", "G_max"):
        return default_grid(cfg.G_count, cfg.G_min, cfg.G_max, **shared)


def _heatmap(grid: SweepGrid, t_min: float, diagnostics: list, run_checksums: list):
    """``heatmap.csv`` in blocks: the header, then each G's rows, one :func:`_rendered` job per G.

    A job builds its G's trace and returns the trace's revival peak and
    first peak time as two float64s, then its rows, rendered in one
    :func:`render_csv` call (inside the job that render stays in one
    process).  In grid order, the two go onto ``diagnostics`` and the
    rows' sha256 onto ``run_checksums``.  Every point shares one time
    grid, so the t column is formatted once, into one fixed-width array,
    before the header."""
    times = grid.params_at(grid.G_values[0]).times
    t_text = serialize._texts(times)     # the one hook that formats every CSV float
    yield (HEATMAP_HEADER + "\n").encode()

    def job(G: float) -> bytes:
        tr = trace_at(grid, G)
        d = revival_diagnostic(tr, t_min=t_min)
        rows = render_csv(None, (np.full(times.size, G), t_text, tr.sx, tr.px,
                                 tr.n_alpha, tr.n_beta))
        return b"".join([np.array([d.revival_peak, d.first_peak_time]).tobytes(), *rows])

    for data in _rendered(job, grid.G_values):
        diagnostics.append(np.frombuffer(data, count=2).tolist())
        run_checksums.append(hashlib.sha256(memoryview(data)[16:]).hexdigest())
        yield memoryview(data)[16:]
        del data                # not held while the next job runs


def cmd_sweep(cfg: RunConfig, outdir: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    if workers < 1:     # accepted for compatibility: a sweep runs on every usable CPU
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    # against the time grid that every point shares, before any G value
    with _refused_as():
        check_t_min(cfg.t_min, _model_params(cfg, G=0.0, N=cfg.N).times)
    grid = _sweep_grid(cfg)
    diagnostics, run_checksums = [], []

    def diagnostics_csv():      # once the heatmap has streamed, so its G are all done
        yield from render_csv(DIAGNOSTICS_HEADER, (np.array(grid.G_values),
                                                   *map(np.array, zip(*diagnostics))))

    files = {"heatmap.csv": _heatmap(grid, cfg.t_min, diagnostics, run_checksums),
             "diagnostics.csv": diagnostics_csv()}
    config_pairs = [
        *_config_pairs(cfg, "direction", "sign", "mu", "N", "t_max", "dt"),
        ("G_count", str(len(grid.G_values))),
        ("G_values", ",".join(fmt(v) for v in grid.G_values)),
        *_config_pairs(cfg, "t_min"),
    ]
    _write_outputs(outdir, "sweep", config_pairs, files, t0, run_checksums)
    return 0


def cmd_lattice(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    if cfg.kx_count < 2 or cfg.ky_count < 2:
        raise ConfigError("keys 'kx_count'/'ky_count' must be >= 2 per axis")
    with _refused_as("lattice_G", "alpha_c", "beta_c"):
        couplings = LatticeCouplings.from_background(cfg.lattice_G, cfg.alpha_c, cfg.beta_c)
    with _refused_as("kx_min", "kx_max", "ky_min", "ky_max"):
        check_k_window(cfg.kx_min, cfg.kx_max, cfg.ky_min, cfg.ky_max)
    res_p, res_m = fermi_point_residual(couplings)
    report = [("residual_P_plus", fmt(res_p)), ("residual_P_minus", fmt(res_m))]
    for which, tag in (("P+", "P_plus"), ("P-", "P_minus")):
        with _refused_as("fd_step"):
            A, B, C, D = low_energy_coefficients(couplings, which, step=cfg.fd_step)
        report.extend([(f"A_{tag}", fmt(A)), (f"B_{tag}", fmt(B)),
                       (f"C_{tag}", fmt(C)), (f"D_{tag}", fmt(D))])
    kx = np.linspace(cfg.kx_min, cfg.kx_max, cfg.kx_count)
    ky = np.linspace(cfg.ky_min, cfg.ky_max, cfg.ky_count)
    kx_grid, ky_grid = np.meshgrid(kx, ky, indexing="ij")
    e_lo, e_hi = dispersion(np.stack([kx_grid, ky_grid], axis=-1), couplings)
    band_columns = (kx_grid.ravel(), ky_grid.ravel(), e_lo.ravel(), e_hi.ravel())
    files = {
        "bands.csv": render_csv(BANDS_HEADER, band_columns),
        "fermi_report.txt": [render_manifest(report)],
    }
    config_pairs = _config_pairs(cfg, "lattice_G", "alpha_c", "beta_c", "kx_min", "kx_max",
                                 "ky_min", "ky_max", "kx_count", "ky_count", "fd_step")
    _write_outputs(outdir, "lattice", config_pairs, files, t0)
    return 0


def cmd_gravity_check(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    mus = parse_float_list(cfg.mu_list, "mu_list")
    if not mus:
        raise ConfigError("key 'mu_list' must name at least one mass value")
    with _refused_as("mu_list"):
        bps = [bogoliubov_params(mu) for mu in mus]
    # before a sector of N_mode levels is built; it also keeps N_mode >= 6,
    # above quadratic_site_hamiltonian's 4
    with _refused_as("levels", "N_mode"):
        check_levels(cfg.levels, cfg.N_mode)
    rows = []
    for mu, bp in zip(mus, bps):
        residual = abs(bp.cosh2r ** 2 - bp.sinh2r ** 2 - 1.0)
        with _refused_as("mu_list", "N_mode"):     # checked before it allocates
            ham = quadratic_site_hamiltonian(mu, cfg.N_mode)
        spacing, dev = spectrum_spacing(ham, cfg.levels)
        rows.append((mu, bp.r, bp.cosh2r, bp.sinh2r, residual, spacing, dev,
                     spacing / (2.0 * mu), spacing / (4.0 * mu),
                     resonant_momentum(mu)))
    config_pairs = _config_pairs(cfg, "mu_list", "N_mode", "levels")
    _write_outputs(outdir, "gravity-check", config_pairs,
                   {"gravity_report.csv": render_csv(GRAVITY_HEADER,
                                                      np.array(rows, dtype=float).T)},
                   t0)
    return 0


def cmd_convergence(cfg: RunConfig, outdir: Path) -> int:
    t0 = time.perf_counter()
    n_list = parse_int_list(cfg.N_list, "N_list")
    params = _model_params(cfg, G=cfg.G)     # N comes from each cutoff
    with _refused_as("N_list"):
        convergence_params(params, n_list)
    pairs = truncation_convergence(params, cfg.direction, _sign_value(cfg), n_list)
    lo, hi, dev = zip(*pairs)
    columns = (np.array(lo), np.array(hi), np.array(dev, dtype=float))
    config_pairs = _config_pairs(cfg, "direction", "sign", "G", "mu", "N_list", "t_max", "dt")
    _write_outputs(outdir, "convergence", config_pairs,
                   {"convergence.csv": render_csv(CONVERGENCE_HEADER, columns)}, t0)
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
                           help="kept for compatibility (>= 1): a sweep runs on every usable CPU")
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
