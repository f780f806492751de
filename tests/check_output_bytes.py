"""Fingerprint of the output bytes of a fixed list of runs.

    python tests/check_output_bytes.py

Runs each command below through ``metricspin.cli.main``, in this process,
into a temporary directory, and prints one ``label file sha256`` line per
output file, then ``label manifest key=value`` for each manifest line but
``wall_time_s`` (the manifest itself holds that time, so its own sha256 is
not printed).  Two trees, thread counts or CPU sets that write the same
bytes print the same text, so ``diff`` of two outputs is the byte check
of a refactor.  The runs cover both parity blocks at N = 14 and 20 (the
byte budget shortens chunks above d = 196), a long trace at the
crossover, the default 60-point sweep, pipelined convergence cutoffs,
``lattice`` and ``gravity-check``; they take about 3.5 s on a 2-vCPU Xeon.
Exits 1 if a run fails.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
from pathlib import Path

#: (label, command, overrides)
RUNS = [
    ("evolve", "evolve", []),
    ("evolve-y-N20", "evolve", ["direction=y", "N=20", "t_max=5"]),
    ("evolve-z-G10", "evolve", ["direction=z", "G=10"]),
    ("evolve-G-pi", "evolve", [f"G={math.pi!r}", "t_max=400"]),
    ("sweep", "sweep", []),
    ("sweep-N8", "sweep", ["N=8", "G_count=4"]),
    ("convergence", "convergence", []),
    ("convergence-z", "convergence", ["direction=z", "N_list=14,20,26", "G=10", "t_max=5"]),
    ("convergence-y", "convergence", ["direction=y", "N_list=2,4,6,8"]),
    ("lattice", "lattice", []),
    ("gravity-check", "gravity-check", []),
]


def fingerprint(label: str, outdir: Path) -> list[str]:
    """The ``label file sha256`` and manifest lines of one run's directory."""
    lines = [f"{label} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
             for path in sorted(outdir.iterdir()) if path.name != "manifest.txt"]
    manifest = (outdir / "manifest.txt").read_text().splitlines()
    return lines + [f"{label} manifest {line}" for line in manifest
                    if not line.startswith("wall_time_s=")]


def main() -> int:
    from metricspin.cli import main as run

    with tempfile.TemporaryDirectory() as tmp:
        for label, command, overrides in RUNS:
            outdir = Path(tmp) / label
            args = [command, "--out", str(outdir)]
            for setting in overrides:
                args += ["--set", setting]
            code = run(args)
            if code != 0:
                print(f"{label}: exit {code}")
                return 1
            print("\n".join(fingerprint(label, outdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
