#!/usr/bin/env python3
"""metricspin benchmark: four CLI workloads, end to end and per layer.

    python3 bench/run.py --workload sweep-crossover --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all             # every workload, both modes

Run from the root of a checkout.  Each sample runs the public
``metricspin`` CLI entry point in a fresh process (bench/child.py), one
sample at a time (closed loop, one client), until ``--seconds`` have
passed.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced samples and reports the per-layer metrics
computed from spans (bench/spans.py).  Every sample is checked: exit
codes, no NaN or inf in any output, file bytes matching the manifest
checksums, and checksums identical across the run's samples.  The first
sample is also compared with the independent dense reference
(bench/reference.py).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import cycle, repeat
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: every run, set-up included, must end well inside this many seconds
RUN_LIMIT_S = 170.0
NON_FINITE = re.compile(rb"\b(nan|inf)\b", re.IGNORECASE)


# ---------------------------------------------------------------- workloads
# Why each workload exists is recorded in bench/README.md.  Seed 0 gives the
# canonical inputs; another seed moves them within the same regime so a
# claim can be re-checked on inputs it was not tuned on.  The program only
# ever sees the generated --set overrides.

SWEEP_LOG_SPAN = (-2.0, 2.0)     # G from 0.01 to 100, straddling G = pi
FULL = {"N": 14, "t_max": 100.0, "dt": 0.02, "G_count": 8, "evolve_t_max": 400.0,
        "N_list": (10, 14, 20), "k_count": 401, "N_mode": 600, "levels": 40}
TINY = {"N": 4, "t_max": 1.0, "dt": 0.25, "G_count": 3, "evolve_t_max": 1.0,
        "N_list": (3, 4), "k_count": 5, "N_mode": 120, "levels": 8}
MU_LIST = (0.5, 1.0, 2.0, 4.0, 8.0)
K_EDGE = math.sqrt(2.0) * math.pi


def _offset(seed: int) -> float:
    """0 for seed 0, else a seeded draw from [-0.5, 0.5)."""
    return 0.0 if seed == 0 else random.Random(seed).random() - 0.5


def _sets(params: dict, keys) -> list[str]:
    out = []
    for k in keys:
        v = params[k]
        text = ",".join(_num(x) for x in v) if isinstance(v, tuple) else _num(v)
        out += ["--set", f"{k}={text}"]
    return out


def _num(v) -> str:
    """A --set value: strings and ints as they are, floats as shortest repr."""
    if isinstance(v, (str, int)):
        return str(v)
    return repr(float(v))


def workload_inputs(name: str, seed: int, size: dict) -> tuple[list[list[str]], dict]:
    """CLI argument lists (without --out) and the parameters the check needs."""
    off = _offset(seed)
    model = {"seed": seed, "mu": 1.0, "N": size["N"], "t_max": size["t_max"], "dt": size["dt"]}
    if name == "sweep-crossover":
        count = size["G_count"]
        lo, hi = SWEEP_LOG_SPAN
        shift = off * (hi - lo) / (count - 1)   # a fraction of one log step
        p = {**model, "direction": "x", "G_count": count, "t_min": 2.0 * size["t_max"] / 100.0,
             "G_min": 10.0 ** (lo + shift), "G_max": 10.0 ** (hi + shift)}
        keys = ("G_min", "G_max", "G_count", "N", "t_max", "dt", "t_min", "direction", "mu")
        return [["sweep", "--workers", "1", *_sets(p, keys)]], p
    if name == "evolve-long":
        p = {**model, "direction": "x", "t_max": size["evolve_t_max"],
             "G": math.pi * (1.0 + 0.1 * off)}
        keys = ("G", "N", "t_max", "dt", "direction", "mu")
        return [["evolve", *_sets(p, keys)]], p
    if name == "convergence-cutoff":
        p = {**model, "direction": "z", "N_list": size["N_list"], "G": 10.0 * 10.0 ** (0.3 * off)}
        keys = ("G", "N_list", "t_max", "dt", "direction", "mu")
        return [["convergence", *_sets(p, keys)]], p
    if name == "bands-modes":
        p = {"seed": seed, "lattice_G": 0.01 * 10.0 ** off, "alpha_c": 0.0, "beta_c": 1.0,
             "kx_min": -K_EDGE, "kx_max": K_EDGE, "ky_min": -K_EDGE, "ky_max": K_EDGE,
             "kx_count": size["k_count"], "ky_count": size["k_count"],
             "N_mode": size["N_mode"], "levels": size["levels"], "mu_list": MU_LIST}
        lattice = ("lattice_G", "alpha_c", "beta_c", "kx_min", "kx_max", "ky_min", "ky_max",
                   "kx_count", "ky_count")
        return [["lattice", *_sets(p, lattice)],
                ["gravity-check", *_sets(p, ("N_mode", "levels", "mu_list"))]], p
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-crossover", "evolve-long", "convergence-cutoff", "bands-modes")


# ---------------------------------------------------------------- samples

@dataclass
class Sample:
    index: int
    traced: bool
    duration: float                 # parent's view: process start to exit
    setup_s: float = math.nan
    wall_s: float = math.nan
    peak_rss_mb: float = math.nan
    problems: list[str] = field(default_factory=list)
    checksums: dict[str, str] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    env: dict | None = None
    outdirs: list[Path] = field(default_factory=list)


def read_manifest(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def check_outputs(outdirs: list[Path]) -> tuple[list[str], dict[str, str]]:
    """NaN/inf scan and manifest checksum verification of one sample."""
    problems, checksums = [], {}
    for i, d in enumerate(outdirs):
        manifest = read_manifest(d / "manifest.txt")
        checksums.update({f"{i}:{k}": v for k, v in manifest.items() if k.startswith("checksum")})
        for f in sorted(d.iterdir()):
            data = f.read_bytes()
            if NON_FINITE.search(data):
                problems.append(f"{f.name}: NaN or inf in output")
            if f.name != "manifest.txt" and \
                    manifest.get(f"checksum_sha256.{f.name}") != hashlib.sha256(data).hexdigest():
                problems.append(f"{f.name}: bytes do not match the manifest checksum")
    return problems, checksums


def run_sample(index: int, traced: bool, commands: list[list[str]], work: Path,
               timeout: float, want_env: bool) -> Sample:
    sample_dir = work / f"sample{index:03d}"
    outdirs = [sample_dir / f"out{i}" for i in range(len(commands))]
    spec_path, report_path = sample_dir / "spec.json", sample_dir / "report.json"
    sample_dir.mkdir(parents=True)
    spec_path.write_text(json.dumps({
        "src": str(SRC), "trace": traced, "run": index, "env": want_env,
        "report": str(report_path),
        "commands": [cmd + ["--out", str(d)] for cmd, d in zip(commands, outdirs)],
    }))
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return Sample(index, traced, time.monotonic() - t0, outdirs=outdirs,
                      problems=[f"sample timed out after {timeout:.0f} s"])
    s = Sample(index, traced, time.monotonic() - t0, outdirs=outdirs)
    if proc.returncode != 0 or not report_path.is_file():
        s.problems.append(f"sample process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return s
    report = json.loads(report_path.read_text())
    s.setup_s = report["t_first_call"] - t0
    s.wall_s = report["t_end"] - report["t_first_call"]
    s.peak_rss_mb = report["peak_rss_mb"]
    s.spans, s.env = report["spans"], report["env"]
    if any(code != 0 for code in report["codes"]):
        s.problems.append(f"metricspin exit codes {report['codes']}: {proc.stderr.strip()[-2000:]}")
        return s
    problems, s.checksums = check_outputs(outdirs)
    s.problems += problems
    return s


def work_dir(name: str, seed: int, trace: bool) -> Path:
    return OUT / f"{name}-seed{seed}-trace{int(trace)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: dict,
                 started: float) -> tuple[list[Sample], list[str], dict]:
    """Closed loop of samples for ``seconds``; returns samples, run-level problems, inputs."""
    commands, params = workload_inputs(name, seed, size)
    work = work_dir(name, seed, trace)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    modes = cycle((False, True)) if trace else repeat(False)
    samples: list[Sample] = []
    first: Sample | None = None
    t_begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_begin
        have_all_modes = len(samples) >= (2 if trace else 1)
        estimate = statistics.median(s.duration for s in samples) if samples else 0.0
        if have_all_modes and elapsed + estimate > seconds:
            break
        s = run_sample(len(samples), next(modes), commands, work,
                       RUN_LIMIT_S - (time.monotonic() - started), want_env=not samples)
        samples.append(s)
        if s.problems and not s.checksums:
            break                    # the program did not run; more samples would not either
        if first is None and not s.problems:
            first = s                # its outputs are kept for the reference check
        else:
            for d in s.outdirs:
                shutil.rmtree(d, ignore_errors=True)

    run_problems: list[str] = []
    if first is not None:
        for s in samples:
            if s is not first and s.checksums and s.checksums != first.checksums:
                s.problems.append("output checksums differ from the run's first sample")
        # imported here: numpy set-up belongs to no sample and starts after them
        import reference as ref
        try:
            run_problems = ref.CHECKS[name](params, first.outdirs)
        except Exception as exc:  # malformed output: report it as a miss, keep the result line
            run_problems = [f"reference check could not read the outputs: {exc!r}"]
        for d in first.outdirs:
            shutil.rmtree(d, ignore_errors=True)
    else:
        run_problems = ["no clean sample to compare with the reference"]
    (work / "spans.json").write_text(json.dumps([sp for s in samples for sp in s.spans]))
    return samples, run_problems, {"commands": commands, "params": params}


# ---------------------------------------------------------------- metrics

def end_to_end(samples: list[Sample]) -> dict[str, tuple[float, int]]:
    plain = [s for s in samples if not s.traced and not math.isnan(s.wall_s)]
    return {m: (statistics.median(getattr(s, m) for s in plain), len(plain))
            for m in ("wall_s", "setup_s", "peak_rss_mb")} if plain else {}


def per_layer(samples: list[Sample]) -> dict[str, tuple[float, int]]:
    traced = [s for s in samples if s.traced and s.spans]
    plain = [s for s in samples if not s.traced and not math.isnan(s.wall_s)]
    if not traced or not plain:
        return {}
    per_sample, points = [], []
    for s in traced:
        numbers, latencies = spans.sample_metrics(s.spans)
        per_sample.append(numbers)
        points += latencies
    out = {k: (statistics.median(n[k] for n in per_sample), len(per_sample))
           for k in per_sample[0]}
    out["model.point_s.p50"] = (spans.percentile(points, 50), len(points))
    out["model.point_s.p80"] = (spans.percentile(points, 80), len(points))
    out["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                               - statistics.median(s.wall_s for s in plain), len(traced))
    return out


def report(spec: dict, name: str, seed: int, seconds: float, trace: bool, size: dict,
           started: float) -> dict:
    samples, run_problems, inputs = run_workload(name, seed, seconds, trace, size, started)
    attempted = len(samples)
    failed = attempted if run_problems else sum(1 for s in samples if s.problems)
    values = per_layer(samples) if trace else end_to_end(samples)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    env = next((s.env for s in samples if s.env), None)

    print(f"# workload {name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for argv in inputs["commands"]:
        print("# input: metricspin " + " ".join(argv))
    print("# env: " + json.dumps(env, sort_keys=True))
    for s in samples:
        for p in s.problems:
            print(f"# FAIL sample {s.index}: {p}")
    for p in run_problems:
        print(f"# FAIL reference: {p}")
    for metric, unit in units.items():
        value, n = values.get(metric, (math.nan, 0))
        print(f"{metric:28s} {value:14.6g} {unit:8s} median of n={n}")
    print(f"{'error_rate':28s} {failed / max(attempted, 1):14.6g} {'ratio':8s} "
          f"{failed} failed of {attempted} attempted")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "inputs": inputs["params"], "attempted": attempted, "failed": failed,
              "problems": run_problems + [p for s in samples for p in s.problems],
              "samples": [{"traced": s.traced, "wall_s": s.wall_s, "setup_s": s.setup_s,
                           "peak_rss_mb": s.peak_rss_mb, "problems": s.problems}
                          for s in samples],
              "metrics": {k: {"value": v, "n": n} for k, (v, n) in values.items()}}
    (work_dir(name, seed, trace) / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return {"correct": failed == 0 and set(units) <= set(values),
            "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": values[m][0], "unit": u}
                        for m, u in units.items() if m in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: N=4, 5 time points, 5x5 k-grid (smoke test)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "metricspin" / "cli.py").is_file():
        print(f"no metricspin sources under {SRC} (or no BENCHMARK.json); run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    size = TINY if args.size == "tiny" else FULL
    if args.workload != "all":
        result = report(spec, args.workload, args.seed, seconds, bool(args.trace), size, started)
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = report(spec, name, args.seed, seconds, trace, size, time.monotonic())
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
