"""One benchmark sample: run metricspin CLI commands in this fresh process.

    python3 bench/child.py SPEC.json

SPEC.json gives the checkout's ``src`` directory, the CLI argument lists
to run in order through ``metricspin.cli.main`` (the ``metricspin``
console entry point), whether to record spans, and where to write the
report.  Clock readings use ``time.monotonic``, which is system-wide, so
the parent can subtract its own reading taken just before it started
this process.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

#: prefixes of BLAS and OpenMP runtime variables; read, never set
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "GOTO_", "MKL_", "BLIS_", "VECLIB_",
                       "NUMEXPR_")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Machine and library facts that decide whether two results compare."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_ENV_PREFIXES)},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    ``ru_maxrss`` alone would not do: Linux folds the parent's high-water
    mark into it at exec, so a sample would report the benchmark's own
    peak whenever that is larger.  ``VmHWM`` counts this address space only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_commands(main, commands) -> list[int]:
    codes = []
    for argv in commands:
        try:
            codes.append(int(main(argv) or 0))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 1)
        except Exception:  # report as a failed run; the parent counts it
            traceback.print_exc()
            codes.append(1)
    return codes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    # set-up: interpreter, numpy (and its BLAS), scipy, metricspin
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import metricspin
    from metricspin import cli

    if not Path(metricspin.__file__).resolve().is_relative_to(src):
        print(f"metricspin was imported from {metricspin.__file__}, not {src}",
              file=sys.stderr)
        return 1

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder(spec["run"])
        spans.instrument(recorder)

    t_first_call = time.monotonic()
    if recorder is None:
        codes = run_commands(cli.main, spec["commands"])
    else:
        _, codes = recorder.call(spans.ROOT, run_commands, (cli.main, spec["commands"]))
    t_end = time.monotonic()

    report = {
        "codes": codes,
        "t_first_call": t_first_call,
        "t_end": t_end,
        "peak_rss_mb": peak_rss_mb(),
        "spans": recorder.spans if recorder is not None else [],
        "env": environment() if spec["env"] else None,
    }
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
