"""The model's OpenBLAS pin and its chunk threads.

Every eigensolve and chunk product runs with numpy's OpenBLAS at one
thread.  The first running kernel owns the caller's thread count, the
BLAS thread budget: a trace that gets it runs its chunks on that many
threads, started for the call.  A sweep maps one job per G over forked
processes and holds the budget while it forks, so each job runs its
trace's chunks itself; a sweep in one process leaves each trace the
budget.  So the output bytes must not depend on ``OPENBLAS_NUM_THREADS``,
the caller's thread count must be what it was after any kernel, and
chunk threads must call no function of ``metricspin.model`` (a profiler
that wraps those functions keeps one span stack per process).
"""

import dataclasses
import functools
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import metricspin
from metricspin import (
    ModelParams,
    NumericalConsistencyError,
    build_minimal_hamiltonian,
    evolve,
    initial_state,
    observable_trace,
    run_sweep,
)
from metricspin import cli, model, serialize, sweep
from metricspin.model import _ONE_BLAS_THREAD, ParityBlock
from metricspin.sweep import SweepGrid

from oracles import dense_trace_oracle

SRC = Path(metricspin.__file__).resolve().parents[1]
COLUMNS = ("sx", "sy", "sz", "n_alpha", "n_beta", "energy", "norm")

#: the default evolve, a small sweep, and a z-start convergence whose N=20
#: blocks (d = 400) give different chunk products under 1 and 2 BLAS threads
RUNS = [
    ["evolve"],
    ["sweep", "--set", "N=8", "--set", "G_count=4", "--set", "t_max=5"],
    ["convergence", "--set", "N_list=14,20", "--set", "t_max=5", "--set", "direction=z"],
]

RUN_ALL = ("import json, sys; from metricspin import cli; "
           "runs, out = json.loads(sys.argv[1]), sys.argv[2]; "
           "sys.exit(max(cli.main([*run, '--out', f'{out}/{i}']) "
           "for i, run in enumerate(runs)))")


def csv_bytes(out: Path, threads: str | None) -> dict[str, bytes]:
    """Every CSV that ``RUNS`` write in a fresh process under ``threads``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(RUNS), str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}


def test_output_bytes_do_not_depend_on_openblas_threads(tmp_path):
    one = csv_bytes(tmp_path / "1", "1")
    assert len(one) == 4                # trace, heatmap, diagnostics, convergence
    for threads in ("2", None):
        other = csv_bytes(tmp_path / str(threads), threads)
        assert other.keys() == one.keys()
        for name in one:
            assert other[name] == one[name], f"{name} differs under {threads}"


def test_non_model_commands_never_load_the_thread_calls(tmp_path):
    code = ("import sys; from metricspin import cli, model; "
            f"cli.main(['lattice', '--out', {str(tmp_path / 'l')!r}, "
            "'--set', 'kx_count=5', '--set', 'ky_count=5']); "
            f"cli.main(['gravity-check', '--out', {str(tmp_path / 'g')!r}, "
            "'--set', 'N_mode=12', '--set', 'levels=3']); "
            "print(model._ONE_BLAS_THREAD.calls)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS thread count set to 2, then restored; yields its getter."""
    with _ONE_BLAS_THREAD:
        calls = _ONE_BLAS_THREAD.calls
    if not calls:
        pytest.skip("numpy's BLAS exports no thread-count calls")
    get, set_ = calls
    old = get()
    set_(2)
    yield get
    set_(old)


def broken_hamiltonian(p: ModelParams):
    """``h`` with a planted entry off the five diagonals of block +1."""
    h = build_minimal_hamiltonian(p)
    m = h.blocks[0].entries.copy()
    m[0, 2] = m[2, 0] = 1e-3
    return dataclasses.replace(h, blocks=(ParityBlock(1, m), h.blocks[1]))


class TestPinHygiene:
    def test_kernels_restore_the_callers_thread_count(self, two_blas_threads):
        p = ModelParams(G=1.0, N=6, t_max=20.0, dt=0.05)
        h = build_minimal_hamiltonian(p)
        observable_trace(h, initial_state("z", 1, p.N))
        assert two_blas_threads() == 2
        evolve(h, initial_state("y", 1, p.N), [0.0, 1.5, 7.0])
        assert two_blas_threads() == 2
        with pytest.raises(NumericalConsistencyError, match="off the diagonals"):
            observable_trace(broken_hamiltonian(p), initial_state("x", 1, p.N))
        assert two_blas_threads() == 2
        assert _ONE_BLAS_THREAD.users == 0

    def test_concurrent_traces_match_serial_ones(self, two_blas_threads):
        # at d = 400 one unpinned product or eigensolve changes the bits, so a
        # trace ending must not restore the count under one still running;
        # switching threads as often as it can: more plain threads than cores,
        # of which the first to start a trace owns the budget and runs chunk
        # threads beside the others
        grid = SweepGrid(G_values=(0.5, 3.0, 10.0, 30.0), direction="z", N=20, t_max=10.0)
        serial = run_sweep(grid)

        def both():
            with ThreadPoolExecutor(4) as pool:
                concurrent.append(list(pool.map(lambda G: sweep.trace_at(grid, G),
                                                 grid.G_values)))

        concurrent = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=both)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(concurrent) == 1
        assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0
        for traces in concurrent:
            assert len(traces) == len(serial)
            for a, b in zip(serial, traces):
                for name in COLUMNS:
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_failing_sweep_restores_the_callers_thread_count(self, monkeypatch,
                                                            two_blas_threads):
        grid = SweepGrid(G_values=(0.5, 1.0, 3.0, 10.0), N=6, t_max=5.0)

        def planted(p: ModelParams):
            return broken_hamiltonian(p) if p.G == 3.0 else build_minimal_hamiltonian(p)

        monkeypatch.setattr(sweep, "build_minimal_hamiltonian", planted)
        with pytest.raises(NumericalConsistencyError, match="G=3.0.*off the diagonals"):
            run_sweep(grid)
        assert two_blas_threads() == 2
        assert _ONE_BLAS_THREAD.users == 0

    def test_kernel_without_thread_calls_matches_dense_oracle(self, monkeypatch):
        monkeypatch.setattr(_ONE_BLAS_THREAD, "calls", False)
        p = ModelParams(G=3.0, mu=1.3, N=5, t_max=30.0, dt=0.05)
        tr = observable_trace(build_minimal_hamiltonian(p), initial_state("z", -1, p.N))
        ref = dense_trace_oracle(p.G, p.mu, p.N, p.times, "z", -1)
        for name in COLUMNS:
            assert np.abs(getattr(tr, name) - ref[name]).max() <= 1e-10, name


def test_worker_threads_call_no_model_function(monkeypatch, two_blas_threads):
    # as a profiler would: every metricspin function reached through the
    # module's globals is wrapped, and each call records its thread
    callers = []

    def recording(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            callers.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for name, obj in list(vars(model).items()):
        if inspect.isfunction(obj) and obj.__module__.startswith("metricspin"):
            monkeypatch.setattr(model, name, recording(obj))
    # 40 chunks, both blocks occupied, so every column is reduced
    p = ModelParams(G=3.0, N=8, t_max=100.0, dt=0.02)
    observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
    assert {"_check_state", "_mode_factors", "_block_amplitudes"} <= {n for n, _ in callers}
    assert {ident for _, ident in callers} == {threading.get_ident()}


@pytest.fixture
def chunk_threads(monkeypatch):
    """The threads that run ``_Propagator.chunk``, recorded as they call it."""
    threads = set()
    chunk = model._Propagator.chunk

    def recording(self, *args):
        threads.add(threading.current_thread())
        return chunk(self, *args)

    monkeypatch.setattr(model._Propagator, "chunk", recording)
    return threads


def is_chunk_thread(thread: threading.Thread) -> bool:
    return thread.name.startswith("metricspin-chunk")


def test_trace_starts_chunk_threads_for_the_call(two_blas_threads, chunk_threads):
    # 40 chunks under a budget of 2 threads
    p = ModelParams(G=3.0, N=8, t_max=100.0, dt=0.02)
    observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
    if model.usable_cpus() > 1:
        assert any(map(is_chunk_thread, chunk_threads))
    assert not any(map(is_chunk_thread, threading.enumerate()))


#: a sweep of four G values, each trace 8 chunks of 128 steps at N=8
SWEEP = ["sweep", "--set", "N=8", "--set", "G_list=0.5,1,3,10", "--set", "t_max=20"]


def test_sweep_workers_are_its_only_threads(tmp_path, monkeypatch, two_blas_threads,
                                            chunk_threads, render_cpus):
    # the sweep's map holds the budget while it forks, so each job, this
    # process's included, runs its trace's chunks itself
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    render_cpus(2)
    assert cli.main([*SWEEP, "--out", str(tmp_path)]) == 0
    assert chunk_threads == {threading.current_thread()}
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


def test_sweep_in_one_process_leaves_traces_their_chunk_threads(tmp_path, monkeypatch,
                                                                 two_blas_threads,
                                                                 chunk_threads, render_cpus):
    # a map of width one takes no pin: each trace owns the budget in turn
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    render_cpus(1)
    assert cli.main([*SWEEP, "--out", str(tmp_path)]) == 0
    assert any(map(is_chunk_thread, chunk_threads))
    assert not any(map(is_chunk_thread, threading.enumerate()))
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


def test_sweep_on_one_core_runs_in_the_calling_thread(tmp_path, monkeypatch, chunk_threads,
                                                      forks):
    for module in (model, serialize):
        monkeypatch.setattr(module, "usable_cpus", lambda: 1)
    assert cli.main([*SWEEP, "--out", str(tmp_path / "one")]) == 0
    assert chunk_threads == {threading.current_thread()} and forks == []
    monkeypatch.undo()
    assert cli.main([*SWEEP, "--out", str(tmp_path / "all")]) == 0
    for name in ("heatmap.csv", "diagnostics.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_sweep_workers_capped_at_the_cpu_count(tmp_path, render_cpus, forks):
    # --workers selects nothing: eight G at two CPUs fork one child
    render_cpus(2)
    argv = ["sweep", "--set", "N=4", "--set", "G_count=8", "--set", "t_max=5"]
    assert cli.main([*argv, "--workers", "4", "--out", str(tmp_path)]) == 0
    assert len(forks) == 1


def test_chunk_thread_that_cannot_start_exits_2(tmp_path, monkeypatch, capsys,
                                                two_blas_threads):
    # a trace with a budget of two threads and 40 chunks starts a chunk
    # thread, which fails as it does when no memory is left for its stack
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)

    def cannot_start(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", cannot_start)
    out = tmp_path / "o"
    assert cli.main(["evolve", "--out", str(out), "--set", "N=8"]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: run too large for memory: "
                   "cannot start a chunk thread: can't start new thread\n")
    assert not out.exists()
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


def sx_at_end(p: ModelParams) -> tuple[float, int]:
    tr = observable_trace(build_minimal_hamiltonian(p), initial_state("x", 1, p.N))
    return float(tr.sx[-1]), _ONE_BLAS_THREAD.users


def test_forked_child_runs_traces(two_blas_threads):
    # a child forked while the pin is held has none of the kernels that hold
    # it, so it must start with the pin free
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    p = ModelParams(G=1.0, N=6, t_max=20.0)
    want = sx_at_end(p)
    with _ONE_BLAS_THREAD, multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(sx_at_end, (p,)).get(timeout=60) == want
