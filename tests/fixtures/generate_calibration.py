"""Regenerate revival_calibration.json from a fresh sweep.

The crossover thresholds quoted by the acceptance suite are calibration
constants: the first full run of the default sweep fixed them and this
script reproduces that run.  Run from the repository root:

    python tests/fixtures/generate_calibration.py

``main(out, count)`` writes the payload to ``out`` (the fixture by
default) from a ``count``-point default grid; the named-G entries do not
depend on the grid.
"""

import json
import math
from pathlib import Path

import metricspin as ms
from metricspin.sweep import trace_at

T_MIN = 2.0
NAMED_G = (0.05, 0.46, math.pi, 10.0)
FIXTURE = Path(__file__).with_name("revival_calibration.json")


def main(out: Path = FIXTURE, count: int = 60):
    grid = ms.default_grid(count)
    traces = [trace_at(grid, G) for G in grid.G_values]
    diags = [ms.revival_diagnostic(tr, t_min=T_MIN) for tr in traces]

    weak = [d.revival_peak for G, d in zip(grid.G_values, diags) if G <= 0.1]
    strong = [d.revival_peak for G, d in zip(grid.G_values, diags) if G >= 10.0]

    named_peaks = []
    first_peak_time_g005 = None
    for G in NAMED_G:
        params = ms.ModelParams(G=G, mu=grid.mu, N=grid.N,
                                t_max=grid.t_max, dt=grid.dt)
        h = ms.build_minimal_hamiltonian(params)
        psi0 = ms.initial_state(grid.direction, grid.sign, grid.N)
        d = ms.revival_diagnostic(ms.observable_trace(h, psi0), t_min=T_MIN)
        named_peaks.append(d.revival_peak)
        if G == 0.05:
            first_peak_time_g005 = d.first_peak_time

    payload = {
        "comment": "crossover thresholds calibrated by the first full sweep; "
                   "regenerate with generate_calibration.py",
        "t_min": T_MIN,
        "revival_keep_threshold": 0.98,
        "reattain_threshold": 0.9,
        "weak_side_max_G": 0.1,
        "strong_side_min_G": 10.0,
        "weak_side_min_revival": min(weak),
        "strong_side_max_peak": max(strong),
        "named_G": list(NAMED_G),
        "named_revival_peaks": named_peaks,
        "first_peak_time_G005": first_peak_time_g005,
        "grid": {"count": len(grid.G_values), "G_min": grid.G_values[0],
                 "G_max": grid.G_values[-1], "N": grid.N, "mu": grid.mu,
                 "t_max": grid.t_max, "dt": grid.dt},
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    for key in ("weak_side_min_revival", "strong_side_max_peak",
                "named_revival_peaks", "first_peak_time_G005"):
        print(f"  {key} = {payload[key]}")


if __name__ == "__main__":
    main()
