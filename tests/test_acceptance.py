"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them on
success).  Crossover thresholds come from
fixtures/revival_calibration.json, written by the first full sweep and
regenerated with fixtures/generate_calibration.py.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import metricspin.cli as cli
from metricspin import (
    LatticeCouplings,
    ModelParams,
    bogoliubov_params,
    build_minimal_hamiltonian,
    coupling_strength,
    default_grid,
    evolve,
    fermi_point_residual,
    initial_state,
    low_energy_coefficients,
    observable_trace,
    quadratic_site_hamiltonian,
    revival_diagnostic,
    run_sweep,
    symmetry_check,
    truncation_convergence,
)

from oracles import minimal_hamiltonian_oracle

SQRT2 = math.sqrt(2.0)
FIXTURES = Path(__file__).parent / "fixtures"
CALIBRATION = json.loads((FIXTURES / "revival_calibration.json").read_text())

DEFAULTS = dict(mu=1.0, N=14, t_max=100.0, dt=0.02)

# traces produced while running the suite; criterion 7 re-checks them all
_TRACE_LOG: dict[str, object] = {}
_NAMED_CACHE: dict[float, object] = {}


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _named_trace(G: float):
    if G not in _NAMED_CACHE:
        params = ModelParams(G=G, **DEFAULTS)
        h = build_minimal_hamiltonian(params)
        psi0 = initial_state("x", +1, params.N)
        _NAMED_CACHE[G] = observable_trace(h, psi0)
        _TRACE_LOG[f"x-start G={G:.6g}"] = _NAMED_CACHE[G]
    return _NAMED_CACHE[G]


def test_c01_hyperbolic_identity():
    mus = np.geomspace(0.1, 10.0, 50)
    t0 = time.perf_counter()
    worst = max(abs(bogoliubov_params(mu).cosh2r ** 2
                    - bogoliubov_params(mu).sinh2r ** 2 - 1.0) for mu in mus)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1e-3
    _report(1, "hyperbolic identity over 50 masses", ok,
            f"worst residual {worst:.2e}, {elapsed * 1e3:.3f} ms")


def test_c02_fermi_points():
    free = LatticeCouplings.free()
    t0 = time.perf_counter()
    res_p, res_m = fermi_point_residual(free)
    elapsed = time.perf_counter() - t0
    ok = res_p <= 1e-12 and res_m <= 1e-12 and elapsed < 1e-3
    _report(2, "free-coupling band touching at P+/P-", ok,
            f"|f| = {res_p:.2e}, {res_m:.2e}, {elapsed * 1e3:.3f} ms")


def test_c03_low_energy_coefficients():
    s = math.sqrt(2.0 * math.pi * 0.01)
    t0 = time.perf_counter()
    free = low_energy_coefficients(LatticeCouplings.free(), "P+")
    alpha = low_energy_coefficients(
        LatticeCouplings.from_background(0.01, alpha_c=1.0), "P+")
    beta = low_energy_coefficients(
        LatticeCouplings.from_background(0.01, beta_c=1.0), "P+")
    both = low_energy_coefficients(
        LatticeCouplings.from_background(0.01, alpha_c=1.0, beta_c=1.0), "P-")
    elapsed = time.perf_counter() - t0
    errs = [
        max(abs(np.array(free) - [1.0, 1.0, 0.0, 0.0])),
        max(abs(np.array(alpha) - [1.0 - s, 1.0 + s, 0.0, 0.0])),
        max(abs(np.array(beta) - [1.0, 1.0, -s, -s])),
        max(abs(np.array(both) - [1.0 - s, 1.0 + s, -s, -s])),
    ]
    ok = max(errs) <= 1e-6 and elapsed < 1e-2
    _report(3, "linearized band coefficients A,B,C,D", ok,
            f"worst error {max(errs):.2e}, {elapsed * 1e3:.2f} ms")


def test_c04_coupling_calibration():
    g = coupling_strength(math.pi, 1.0)
    err = abs(abs(g) - SQRT2)
    _report(4, "coupling magnitude sqrt(2) at G=pi", err <= 1e-12,
            f"|g| - sqrt2 = {err:.2e}")


def test_c05_frozen_dynamics():
    params = ModelParams(G=7.3, **DEFAULTS)
    # one untimed run first, so the timed one does not include waking idle
    # BLAS threads after the single-threaded work that precedes it
    observable_trace(build_minimal_hamiltonian(params, g=0.0),
                     initial_state("x", +1, params.N))
    t0 = time.perf_counter()
    h = build_minimal_hamiltonian(params, g=0.0)
    psi0 = initial_state("x", +1, params.N)
    trace = observable_trace(h, psi0)
    elapsed = time.perf_counter() - t0
    _TRACE_LOG["frozen g=0"] = trace
    worst = max(float(np.abs(getattr(trace, n) - getattr(trace, n)[0]).max())
                for n in ("sx", "sy", "sz", "n_alpha", "n_beta"))
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(5, "no evolution with coupling forced to zero", ok,
            f"max drift {worst:.2e}, {elapsed:.2f} s")


def test_c06_symmetry_sector():
    t0 = time.perf_counter()
    worst_spin = 0.0
    worst_comm = 0.0
    for G in CALIBRATION["named_G"]:
        trace = _named_trace(G)
        worst_spin = max(worst_spin, float(np.abs(trace.sy).max()),
                         float(np.abs(trace.sz).max()))
        params = ModelParams(G=G, **DEFAULTS)
        worst_comm = max(worst_comm, symmetry_check(build_minimal_hamiltonian(params)))
    elapsed = time.perf_counter() - t0
    ok = worst_spin <= 1e-10 and worst_comm <= 1e-12 and elapsed < 5.0
    _report(6, "spin-y/z stay empty for x starts at every coupling", ok,
            f"max|sy|,|sz| = {worst_spin:.2e}, commutator {worst_comm:.2e}, "
            f"{elapsed:.2f} s")


def test_c08_precession_peaks():
    params = ModelParams(G=1.0, mu=1.0, N=6, t_max=25.0, dt=0.02)
    h = build_minimal_hamiltonian(params, g=0.0)
    psi0 = initial_state("y", +1, params.N)
    trace = observable_trace(h, psi0)
    _TRACE_LOG["precession g=0"] = trace
    err_curve = float(np.abs(trace.sy - np.cos(2 * SQRT2 * trace.times)).max())

    # peak positions located as roots of d<sy>/dt, against k pi / sqrt(2)
    sy = np.kron(np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.eye(params.N * params.N))
    H = minimal_hamiltonian_oracle(params.G, params.mu, params.N, g=0.0)
    K = 1j * (H @ sy - sy @ H)

    def dsy(t):
        state = evolve(h, psi0, [t])[0]
        return float(np.vdot(state.amplitudes, K @ state.amplitudes).real)

    period = math.pi / SQRT2
    worst_peak = 0.0
    for k in range(1, 11):
        t_pred = k * period
        root = scipy.optimize.brentq(dsy, t_pred - period / 4,
                                     t_pred + period / 4, xtol=1e-13)
        worst_peak = max(worst_peak, abs(root - t_pred))
    ok = worst_peak <= 1e-8 and err_curve <= 1e-8
    _report(8, "closed-form precession cos(2 sqrt2 t)", ok,
            f"peak error {worst_peak:.2e} over 10 periods, curve {err_curve:.2e}")


def test_c09_truncation_convergence():
    t0 = time.perf_counter()
    params = ModelParams(G=0.05, mu=1.0, N=14, t_max=50.0, dt=0.02)
    pairs = truncation_convergence(params, "x", +1, [14, 20])
    elapsed = time.perf_counter() - t0
    dev = pairs[0][2]
    ok = dev <= 1e-6 and elapsed < 30.0
    _report(9, "cutoff 14 vs 20 agreement at weak coupling", ok,
            f"max deviation {dev:.2e}, {elapsed:.1f} s")


@pytest.fixture(scope="module")
def default_sweep():
    grid = default_grid()
    t0 = time.perf_counter()
    traces = run_sweep(grid)
    elapsed = time.perf_counter() - t0
    return grid, traces, elapsed


def test_c10_crossover_phenomenology(default_sweep):
    grid, traces, elapsed = default_sweep
    cal = CALIBRATION
    t_min = cal["t_min"]
    keep = cal["revival_keep_threshold"]
    lost = cal["reattain_threshold"]

    weak, strong = [], []
    for G, trace in zip(grid.G_values, traces):
        peak = revival_diagnostic(trace, t_min=t_min).revival_peak
        if G <= cal["weak_side_max_G"]:
            weak.append(peak)
        if G >= cal["strong_side_min_G"]:
            strong.append(peak)
    named_peaks = [revival_diagnostic(_named_trace(G), t_min=t_min).revival_peak
                   for G in cal["named_G"]]

    ok_weak = min(weak) >= keep
    ok_strong = max(strong) < lost
    ok_mono = all(a >= b for a, b in zip(named_peaks, named_peaks[1:]))
    # regression against the committed calibration run
    ok_regress = (
        abs(min(weak) - cal["weak_side_min_revival"]) <= 1e-6
        and abs(max(strong) - cal["strong_side_max_peak"]) <= 1e-6
        and max(abs(p - q) for p, q in zip(named_peaks,
                                           cal["named_revival_peaks"])) <= 1e-6
    )
    ok = ok_weak and ok_strong and ok_mono and ok_regress and elapsed < 300.0
    _report(10, "revival crossover across the coupling grid", ok,
            f"weak min {min(weak):.4f} >= {keep}, strong max {max(strong):.4f} "
            f"< {lost}, named peaks non-increasing {ok_mono}, sweep {elapsed:.0f} s")


def test_calibration_generator_reproduces_fixture(tmp_path):
    # the generator runs on a 2-point grid; its named-G entries do not
    # depend on the grid and must reproduce the committed fixture
    spec = importlib.util.spec_from_file_location(
        "generate_calibration", FIXTURES / "generate_calibration.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    out = tmp_path / "calibration.json"
    generator.main(out, count=2)
    got = json.loads(out.read_text())
    assert got["grid"]["count"] == 2
    assert got["named_G"] == CALIBRATION["named_G"]
    assert np.abs(np.subtract(got["named_revival_peaks"],
                              CALIBRATION["named_revival_peaks"])).max() <= 1e-6
    assert abs(got["first_peak_time_G005"] - CALIBRATION["first_peak_time_G005"]) <= 1e-6


def test_c11_quadratic_spectrum(capsys=None):
    levels = 8
    spacings = {}
    worst_var = 0.0
    for mu in (0.5, 1.0, 2.0, 4.0):
        h = quadratic_site_hamiltonian(mu, 80)
        dense = np.diag(h.diagonal) + np.diag(h.pair, 2) + np.diag(h.pair, -2)
        evals = np.sort(np.linalg.eigvalsh(dense))[:levels]
        gaps = np.diff(evals)
        worst_var = max(worst_var, float(gaps.var() / gaps.mean() ** 2))
        spacings[mu] = float(gaps.mean())
    ratio_errs = [abs(spacings[2 * mu] / spacings[mu] - 2.0) for mu in (0.5, 1.0, 2.0)]
    # record which prefactor hypothesis the truncated diagonalization supports
    over_2mu = max(abs(spacings[mu] / (2 * mu) - 1.0) for mu in spacings)
    over_4mu = max(abs(spacings[mu] / (4 * mu) - 1.0) for mu in spacings)
    verdict = "4*mu" if over_4mu < over_2mu else "2*mu"
    ok = worst_var < 1e-8 and max(ratio_errs) <= 1e-6
    _report(11, "uniform interior spacing, proportional to the mass", ok,
            f"var/gap^2 {worst_var:.2e}, ratio error {max(ratio_errs):.2e}, "
            f"measured spacing supports {verdict} (dev {min(over_4mu, over_2mu):.1e})")


def test_c12_determinism(tmp_path):
    args = ["--set", "G_list=0.05,0.5,5", "--set", "N=8",
            "--set", "t_max=6", "--set", "dt=0.1", "--set", "t_min=1"]
    assert cli.main(["sweep", "--out", str(tmp_path / "a"), *args]) == 0
    assert cli.main(["sweep", "--out", str(tmp_path / "b"), *args]) == 0
    same_sweep = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("heatmap.csv", "diagnostics.csv"))

    ev = ["--set", "G=0.46", "--set", "N=10", "--set", "t_max=5", "--set", "dt=0.1"]
    assert cli.main(["evolve", "--out", str(tmp_path / "c"), *ev]) == 0
    assert cli.main(["evolve", "--out", str(tmp_path / "d"), *ev]) == 0
    same_trace = ((tmp_path / "c" / "trace.csv").read_bytes()
                  == (tmp_path / "d" / "trace.csv").read_bytes())
    _report(12, "re-running a manifest reproduces files byte for byte",
            same_sweep and same_trace,
            f"sweep identical {same_sweep}, trace identical {same_trace}")


def test_c07_conservation_suite():
    # norm and energy constancy are enforced inside observable_trace for
    # every run; re-verify explicitly on the traces this suite produced
    assert len(_TRACE_LOG) >= 5, "expected the other criteria to log traces"
    worst_norm = 0.0
    worst_energy = 0.0
    for trace in _TRACE_LOG.values():
        worst_norm = max(worst_norm, float(np.abs(trace.norm - 1.0).max()))
        drift = float(np.abs(trace.energy - trace.energy[0]).max())
        worst_energy = max(worst_energy, drift / (1.0 + abs(trace.energy[0])))
    ok = worst_norm <= 1e-10 and worst_energy <= 1e-8
    _report(7, "norm and energy conserved on every logged run", ok,
            f"{len(_TRACE_LOG)} traces, worst norm {worst_norm:.2e}, "
            f"worst relative energy {worst_energy:.2e}")
