"""Output bytes pinned across commits.

Every other determinism test compares two runs of the same code.  These
sha256 values were recorded with the renderer that formatted each
distinct value once per 2048-row block, before it formatted each once per
file, so a change to how any CSV is rendered fails here.  The model pins
OpenBLAS to one thread, so the bytes are the same under any
``OPENBLAS_NUM_THREADS``; CI runs this file under ``=1`` and ``=2``.
"""

import hashlib

import pytest

from metricspin import cli

RUNS = {
    "evolve": ["--set", "N=6", "--set", "t_max=20"],
    "sweep": ["--set", "N=6", "--set", "G_count=3", "--set", "t_max=5"],
    "convergence": ["--set", "N_list=4,6", "--set", "t_max=5", "--set", "direction=z"],
    # 3,721 rows: two blocks, which index the kx and ky texts formatted once
    # for the file; E_minus writes E_plus's texts with a "-" in front
    "lattice": ["--set", "kx_count=61", "--set", "ky_count=61",
                "--set", "kx_min=-4.4", "--set", "kx_max=4.4",
                "--set", "ky_min=-4.4", "--set", "ky_max=4.4"],
    "gravity-check": [],
}

PINNED = {
    "evolve": {
        "trace.csv": "513dbbf7505ab98d19fc8192e59f430b567e24e3e0b5dca7dc66ba664e95d0f8",
    },
    "sweep": {
        "heatmap.csv": "4e6ba7f67bd139c576b116fc062652828e6db90f97d38db27f067ffc91115d01",
        "diagnostics.csv": "8bc30575b8692b3553ba70ac9f84772e35afaa8404ba29748d38b836e16e602f",
    },
    "convergence": {
        "convergence.csv": "11453069dada76aca70e3ec0f8484c4efee10ff8e5e0543d92605d8247c5a77c",
    },
    "lattice": {
        "bands.csv": "81534d801784c1972d619ea1d8347d85b5a5f73dcc97b798f2bf8b90f7ed64cb",
        "fermi_report.txt": "75ee2f78c6f79b33fd0540f9730fb0cbe35797d9a2f23c0fdec10face357f2d9",
    },
    "gravity-check": {
        "gravity_report.csv": "e8b6869925d5411ecace446fce1d82bae4050c7bc6c0bc9ebf994147c458b432",
    },
}

#: the sha256 of each G's rows in the pinned heatmap
PINNED_RUNS = [
    "b87f21ffe6fb23ea01ad6e34ba6ea0247ea637a4399fd271dfcc146af99e8929",
    "5d44528a16c212730567edc4d68f27d4a830b0e2dcf2e50b53d9fb034824a4be",
    "c0217659a72dacfc20ea9b719ab63760aad017df4c97108810a04cb1cc210ecf",
]


def _run(tmp_path, command):
    out = tmp_path / command
    assert cli.main([command, *RUNS[command], "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", list(RUNS))
def test_output_bytes_match_pinned_checksums(tmp_path, command):
    out = _run(tmp_path, command)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED[command]}
    assert got == PINNED[command]
    assert sorted(p.name for p in out.iterdir()) == sorted([*PINNED[command], "manifest.txt"])


def test_run_checksums_match_pinned(tmp_path):
    manifest = (_run(tmp_path, "sweep") / "manifest.txt").read_text().splitlines()
    runs = [line.split("=", 1)[1] for line in manifest if line.startswith("checksum.run.")]
    assert runs == PINNED_RUNS
