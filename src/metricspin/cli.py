"""Command-line entry point: evolve, sweep, lattice, gravity-check, convergence.

Every run takes one path through :func:`main`: parse the arguments and
the config, make the output directory, start the clock, call the
command, and commit what it returns in one :func:`_write_outputs` call.
A command (one entry of :data:`COMMANDS`) maps its config to its
manifest config pairs and its files; it builds all its library inputs,
which refuse out-of-range values, before any work, and
:func:`_refused_as` names the key.  Every command is deterministic given
its config.  Exit codes are a stable contract: 0 success, 2 config
error (a run too large for memory, or whose files cannot be written,
included), 3 numerical-consistency failure (numpy's warning of an
overflow or invalid value included); a run stopped by SIGINT,
SIGTERM or SIGHUP cleans up as a failed run does and exits with 128 plus
the signal's number.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import signal
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, parallel, serialize
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
from .serialize import fmt, render_csv, render_manifest
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


def _write_outputs(outdir: Path, command: str, t0: float, config_pairs, files,
                   run_checksums=()):
    """Write ``files`` (name -> iterable of bytes blocks, the primary first) and the manifest.

    Each file streams into ``<name>.partial``, its sha256 taken as it is
    written; a sweep's ``run_checksums`` fill as its heatmap streams.
    ``wall_time_s`` runs from ``t0`` to the last file written.  Then the
    old manifest is removed, the files are renamed into place and the new
    manifest last, so a manifest always matches its directory.  An
    ``OSError`` of a file operation (a full disk, a quota, a file size
    limit) is a ``ConfigError`` naming the file; one of the blocks passes
    as it is.  On any failure every partial file is removed and every
    block generator closed, which stops its render processes.
    """
    digests, partials = {}, []

    def writing(path: Path, call, *args):
        """``call(*args)``, whose ``OSError`` is raised as a ``ConfigError`` naming ``path``."""
        try:
            return call(*args)
        except OSError as exc:
            raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc

    def stream(name: str, blocks) -> str:
        """Write ``blocks`` to ``<name>.partial``; return their sha256."""
        path, partial, digest = outdir / name, outdir / f"{name}.partial", hashlib.sha256()
        partials.append((partial, path))
        with writing(path, open, partial, "wb") as fh:
            for block in blocks:
                writing(path, fh.write, block)
                digest.update(block)
                del block       # not held while the next block renders
            writing(path, fh.close)     # writes what is still buffered, a short file's all
        return digest.hexdigest()

    try:
        for name, blocks in files.items():
            digests[name] = stream(name, blocks)
        pairs = [("command", command), ("code_version", __version__), *config_pairs,
                 ("wall_time_s", f"{time.perf_counter() - t0:.3f}"),
                 ("checksum_sha256", next(iter(digests.values()))),
                 *((f"checksum_sha256.{name}", d) for name, d in digests.items()),
                 *((f"checksum.run.{i:03d}", c) for i, c in enumerate(run_checksums))]
        stream("manifest.txt", (render_manifest(pairs),))
        manifest = outdir / "manifest.txt"
        writing(manifest, lambda: manifest.unlink(missing_ok=True))
        for partial, path in partials:
            writing(path, partial.replace, path)
    except BaseException:
        for partial, _ in partials:
            partial.unlink(missing_ok=True)
        for blocks in files.values():
            if hasattr(blocks, "close"):
                blocks.close()
        raise


def cmd_evolve(cfg: RunConfig):
    params = _model_params(cfg, G=cfg.G, N=cfg.N)
    h = build_minimal_hamiltonian(params)
    trace = observable_trace(h, initial_state(cfg.direction, _sign_value(cfg), params.N))
    config_pairs = _config_pairs(cfg, "direction", "sign", "G", "mu", "N", "t_max", "dt")
    columns = (trace.times, trace.sx, trace.sy, trace.sz, trace.px, trace.py,
               trace.pz, trace.n_alpha, trace.n_beta, trace.energy, trace.norm)
    return config_pairs, {"trace.csv": render_csv(TRACE_HEADER, columns)}


def _sweep_grid(cfg: RunConfig) -> SweepGrid:
    shared = dict(direction=cfg.direction, sign=_sign_value(cfg), mu=cfg.mu, N=cfg.N,
                  t_max=cfg.t_max, dt=cfg.dt)
    if cfg.G_list.strip():
        with _refused_as("G_list"):
            return SweepGrid(G_values=parse_float_list(cfg.G_list, "G_list"), **shared)
    with _refused_as("G_count", "G_min", "G_max"):
        return default_grid(cfg.G_count, cfg.G_min, cfg.G_max, **shared)


def _heatmap(grid: SweepGrid, t_min: float, diagnostics: list, run_checksums: list):
    """``heatmap.csv`` in blocks: the header, then each G's rows, a fork map job per G.

    A job builds its G's trace and returns the trace's revival peak and
    first peak time, and its rows, rendered in one :func:`render_csv`
    call (inside the job that render stays in one process).  In grid
    order, the two go onto ``diagnostics`` and the rows' sha256 onto
    ``run_checksums``.  Every point shares one time grid, so the t column
    is formatted once, before the header, into texts as wide as the longest."""
    times = grid.params_at(grid.G_values[0]).times
    # _texts: the one hook that formats every CSV float
    t_text = serialize.narrowed(serialize._texts(times))
    yield (HEATMAP_HEADER + "\n").encode()

    def job(G: float) -> tuple:
        tr = trace_at(grid, G)
        d = revival_diagnostic(tr, t_min=t_min)
        rows = render_csv(None, (np.full(times.size, G), t_text, tr.sx, tr.px,
                                 tr.n_alpha, tr.n_beta))
        return d.revival_peak, d.first_peak_time, b"".join(rows)

    for peak, first_peak_time, rows in parallel._rendered(job, grid.G_values):
        diagnostics.append((peak, first_peak_time))
        run_checksums.append(hashlib.sha256(rows).hexdigest())
        yield rows
        del rows                # not held while the next job runs


def cmd_sweep(cfg: RunConfig):
    # against the time grid that every point shares, before any G value
    with _refused_as():
        check_t_min(cfg.t_min, _model_params(cfg, G=0.0, N=cfg.N).times)
    grid = _sweep_grid(cfg)
    diagnostics, run_checksums = [], []

    def diagnostics_csv():      # after the heatmap: a G not yet streamed raises ValueError
        peaks = np.reshape(diagnostics, (len(grid.G_values), 2)).T
        yield from render_csv(DIAGNOSTICS_HEADER, (np.array(grid.G_values), *peaks))

    files = {"heatmap.csv": _heatmap(grid, cfg.t_min, diagnostics, run_checksums),
             "diagnostics.csv": diagnostics_csv()}
    config_pairs = [
        *_config_pairs(cfg, "direction", "sign", "mu", "N", "t_max", "dt"),
        ("G_count", str(len(grid.G_values))),
        ("G_values", ",".join(fmt(v) for v in grid.G_values)),
        *_config_pairs(cfg, "t_min"),
    ]
    return config_pairs, files, run_checksums


def _bands(kx: np.ndarray, ky: np.ndarray, couplings: LatticeCouplings):
    """``bands.csv`` in blocks, streamed by :func:`serialize.render_rows` over the kx-major grid.

    Block ``[lo, hi)`` maps its flat range of rows to ``(i, j) =
    divmod(row, ky.size)`` and evaluates the bands on those points alone,
    so no process holds more than the two axes, their texts and one
    block's rows, at any grid size.  Each number is formatted once: the
    axes once per file, into texts that the blocks index, and a block's
    upper band |f| as :func:`serialize.float_texts` says.  Its lower band
    -|f| is those texts with a ``-`` in front, which is ``repr``'s text
    since |f| is finite (``-0.0`` included)."""
    kx_text, ky_text = (serialize.narrowed(serialize._texts(k)) for k in (kx, ky))

    def block(lo: int, hi: int) -> tuple:
        i, j = np.divmod(np.arange(lo, hi), ky.size)
        _, mag = dispersion(np.stack([kx[i], ky[j]], axis=-1), couplings)
        (upper,) = serialize.float_texts([mag])
        lower = np.full((upper.size, upper.itemsize + 1), ord("-"), dtype=np.uint8)
        lower[:, 1:] = upper.view(np.uint8).reshape(upper.size, upper.itemsize)
        return kx_text[i], ky_text[j], lower.view(f"S{upper.itemsize + 1}")[:, 0], upper

    return serialize.render_rows(BANDS_HEADER, kx.size * ky.size, block)


def cmd_lattice(cfg: RunConfig):
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
    files = {"bands.csv": _bands(kx, ky, couplings),
             "fermi_report.txt": [render_manifest(report)]}
    config_pairs = _config_pairs(cfg, "lattice_G", "alpha_c", "beta_c", "kx_min", "kx_max",
                                 "ky_min", "ky_max", "kx_count", "ky_count", "fd_step")
    return config_pairs, files


def cmd_gravity_check(cfg: RunConfig):
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
    return config_pairs, {"gravity_report.csv": render_csv(GRAVITY_HEADER,
                                                            np.array(rows, dtype=float).T)}


def cmd_convergence(cfg: RunConfig):
    n_list = parse_int_list(cfg.N_list, "N_list")
    params = _model_params(cfg, G=cfg.G)     # N comes from each cutoff
    with _refused_as("N_list"):
        convergence_params(params, n_list)
    pairs = truncation_convergence(params, cfg.direction, _sign_value(cfg), n_list)
    lo, hi, dev = zip(*pairs)
    columns = (np.array(lo), np.array(hi), np.array(dev, dtype=float))
    config_pairs = _config_pairs(cfg, "direction", "sign", "G", "mu", "N_list", "t_max", "dt")
    return config_pairs, {"convergence.csv": render_csv(CONVERGENCE_HEADER, columns)}


#: command name -> function from its config to ``(config_pairs, files[, run_checksums])``
COMMANDS = {"evolve": cmd_evolve, "sweep": cmd_sweep, "lattice": cmd_lattice,
            "gravity-check": cmd_gravity_check, "convergence": cmd_convergence}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricspin",
        description="Spin-1/2 probe coupled to two bosonic fluctuation modes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="kept for compatibility (>= 1): a sweep runs on every usable CPU")
    return parser


def _output_directory(out: str) -> tuple[Path, list[Path]]:
    """``out`` as a directory, made with its parents if missing, and those made, deepest first."""
    outdir = Path(out)
    made = list(itertools.takewhile(lambda d: not d.exists(), (outdir, *outdir.parents)))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:      # a file, under a file, or where no directory can be made
        _remove_empty(made)
        raise ConfigError(f"key 'out': cannot make directory {out!r}: {exc.strerror}") from exc
    return outdir, made


def _remove_empty(made: list[Path]) -> None:
    """Remove the directories ``made``, deepest first, while each is empty (or missing)."""
    for directory in made:
        if os.path.isdir(directory):        # False, not an error, for a name too long
            if any(directory.iterdir()):
                return
            directory.rmdir()


class _Stopped(BaseException):
    """A stopping signal, raised in the main thread by :func:`_stopping_signals`."""

    def __init__(self, signum: int):
        super().__init__(signal.Signals(signum).name)
        self.signum = signum


def _stop(signum, frame):
    raise _Stopped(signum)


@contextmanager
def _stopping_signals():
    """In the block, SIGINT, SIGTERM and SIGHUP raise :class:`_Stopped`, so that
    a stopped run unwinds through the ``finally`` blocks of a failed one.

    Only a signal left to its default action is taken (a run under
    ``nohup`` still ignores SIGHUP), and only in the main thread, the one
    where Python runs signal handlers."""
    taken = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
            if signal.getsignal(signum) in (signal.SIG_DFL, signal.default_int_handler):
                taken[signum] = signal.signal(signum, _stop)
    try:
        yield
    finally:
        for signum, handler in taken.items():
            signal.signal(signum, handler)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made = []
    with _stopping_signals(), warnings.catch_warnings():
        # numpy warns of a number that overflowed or is not one; no output may
        # hold it, so the run fails there, in one stderr line like any other
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = parse_config(args.config, args.overrides)
            if args.out is not None:
                cfg.out = args.out
            if not cfg.out:
                raise ConfigError("no output directory: set key 'out' or pass --out")
            workers = getattr(args, "workers", 1)
            if workers < 1:     # accepted for compatibility: a sweep runs on every usable CPU
                raise ConfigError(f"--workers must be >= 1, got {workers}")
            outdir, made = _output_directory(cfg.out)
            t0 = time.perf_counter()
            _write_outputs(outdir, args.command, t0, *COMMANDS[args.command](cfg))
            return 0
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"config error: run too large for memory: {exc}", file=sys.stderr)
            return 2
        except (NumericalConsistencyError, ExtractionInvalidError, RuntimeWarning) as exc:
            print(f"numerical consistency failure: {exc}", file=sys.stderr)
            return 3
        except _Stopped as exc:
            print(f"stopped by {exc}", file=sys.stderr)
            return 128 + exc.signum
        finally:        # a run that succeeded left its manifest, so this removes a failed one's
            _remove_empty(made)


if __name__ == "__main__":
    sys.exit(main())
