"""Smoke test of the benchmark at tiny sizes (N=4, 5 time points, 5x5 k-grid).

    python3 -m pytest bench/test_smoke.py -q

Every workload, untraced and traced, must pass its correctness gate and
print every metric that BENCHMARK.json declares, with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines), m["name"]


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_zero_is_canonical_and_seeds_repeat(workload):
    canonical, _ = run.workload_inputs(workload, 0, run.FULL)
    again, _ = run.workload_inputs(workload, 7, run.FULL)
    assert again == run.workload_inputs(workload, 7, run.FULL)[0]
    assert again != canonical
    text = " ".join(canonical[0])
    expected = {"sweep-crossover": "G_min=0.01 --set G_max=100.0 --set G_count=8",
                "evolve-long": "G=3.141592653589793",
                "convergence-cutoff": "G=10.0 --set N_list=10,14,20",
                "bands-modes": "lattice_G=0.01"}[workload]
    assert expected in text


@pytest.mark.parametrize("seed", range(1, 40))
def test_shifted_inputs_stay_in_their_regime(seed):
    _, sweep = run.workload_inputs("sweep-crossover", seed, run.FULL)
    step = 4.0 / (sweep["G_count"] - 1)
    assert abs(math.log10(sweep["G_min"]) + 2.0) <= step / 2
    grid = [sweep["G_min"] * (sweep["G_max"] / sweep["G_min"]) ** (i / (sweep["G_count"] - 1))
            for i in range(sweep["G_count"])]
    assert min(grid) < math.pi < max(grid)
    assert abs(run.workload_inputs("evolve-long", seed, run.FULL)[1]["G"] / math.pi - 1) <= 0.05
    assert 5.0 <= run.workload_inputs("convergence-cutoff", seed, run.FULL)[1]["G"] <= 15.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "evolve-long", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
