"""The OpenBLAS pin and the chunk threads of ``metricspin.parallel``.

Every eigensolve and chunk product runs with numpy's OpenBLAS at one
thread.  The pin also says how many CPUs its holder may use: the first
holder gets the usable CPUs (the affinity set), so a trace that gets
more than one runs its chunks on that many workers, the calling thread
and chunk threads started for the call; a holder that enters while the
pin is held gets one.  A convergence run prepares each next cutoff in
the calling thread while the chunk threads propagate the current one.
A sweep maps one job per G over forked processes and holds the pin
while it forks, so each job, in this process and in each child (which
inherits the held pin), runs its trace's chunks itself and calls no
OpenBLAS thread function; a sweep in one process leaves each trace the
usable CPUs.  So
the output bytes must not depend on ``OPENBLAS_NUM_THREADS``, the
caller's thread count must be what it was after any kernel, and chunk
threads must call no function of ``metricspin.model`` (a profiler that
wraps those functions keeps one span stack per process).
"""

import dataclasses
import functools
import inspect
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
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
)
from metricspin import cli, model, parallel, sweep
from metricspin.model import ParityBlock
from metricspin.parallel import _ONE_BLAS_THREAD
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
    code = ("import sys; from metricspin import cli, parallel; "
            f"cli.main(['lattice', '--out', {str(tmp_path / 'l')!r}, "
            "'--set', 'kx_count=5', '--set', 'ky_count=5']); "
            f"cli.main(['gravity-check', '--out', {str(tmp_path / 'g')!r}, "
            "'--set', 'N_mode=12', '--set', 'levels=3']); "
            "print(parallel._ONE_BLAS_THREAD.calls)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"


def caller_blas_threads(count: int):
    """The caller's OpenBLAS thread count set to ``count``, then restored; yields its getter."""
    with _ONE_BLAS_THREAD:
        calls = _ONE_BLAS_THREAD.calls
    if not calls:
        pytest.skip("numpy's BLAS exports no thread-count calls")
    get, set_ = calls
    old = get()
    set_(count)
    yield get
    set_(old)


@pytest.fixture
def two_blas_threads():
    yield from caller_blas_threads(2)


@pytest.fixture
def one_blas_thread():
    yield from caller_blas_threads(1)


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
        # of which the first to take the pin gets the usable CPUs and runs
        # chunk threads beside the others
        grid = SweepGrid(G_values=(0.5, 3.0, 10.0, 30.0), direction="z", N=20, t_max=10.0)
        serial = [sweep.trace_at(grid, G) for G in grid.G_values]

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
            [sweep.trace_at(grid, G) for G in grid.G_values]
        assert two_blas_threads() == 2
        assert _ONE_BLAS_THREAD.users == 0

    def test_kernel_without_thread_calls_matches_dense_oracle(self, monkeypatch):
        monkeypatch.setattr(_ONE_BLAS_THREAD, "calls", False)
        p = ModelParams(G=3.0, mu=1.3, N=5, t_max=30.0, dt=0.05)
        tr = observable_trace(build_minimal_hamiltonian(p), initial_state("z", -1, p.N))
        ref = dense_trace_oracle(p.G, p.mu, p.N, p.times, "z", -1)
        for name in COLUMNS:
            assert np.abs(getattr(tr, name) - ref[name]).max() <= 1e-10, name


def test_worker_threads_call_no_model_function(monkeypatch, two_blas_threads, render_cpus):
    # as a profiler would: every metricspin function reached through the
    # module's globals is wrapped, and each call records its thread; at two
    # usable CPUs a trace and a convergence run, whose calling thread
    # prepares each next cutoff while a chunk thread propagates this one
    render_cpus(2)
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
    del callers[:]
    model.truncation_convergence(p, "z", 1, [6, 8, 10])
    assert {"_prepared", "_parity_block", "initial_state", "_traced"} <= {n for n, _ in callers}
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
    # 40 chunks on the usable CPUs
    p = ModelParams(G=3.0, N=8, t_max=100.0, dt=0.02)
    observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
    if parallel.usable_cpus() > 1:
        assert any(map(is_chunk_thread, chunk_threads))
    assert not any(map(is_chunk_thread, threading.enumerate()))


@pytest.mark.parametrize("cpus", [1, 2])
def test_chunk_threads_follow_the_usable_cpus(monkeypatch, one_blas_thread, chunk_threads,
                                              render_cpus, cpus):
    # OPENBLAS_NUM_THREADS=1 sizes nothing: 40 chunks run on the calling
    # thread and one chunk thread at two usable CPUs, and in the calling
    # thread alone at one
    pools, executor = [], parallel.ThreadPoolExecutor

    def recorded(workers, **kwargs):
        pools.append(workers)
        return executor(workers, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", recorded)
    render_cpus(cpus)
    p = ModelParams(G=3.0, N=8, t_max=100.0, dt=0.02)
    observable_trace(build_minimal_hamiltonian(p), initial_state("z", 1, p.N))
    assert pools == ([1] if cpus == 2 else [])
    if cpus == 1:
        assert chunk_threads == {threading.current_thread()}
    assert one_blas_thread() == 1 and _ONE_BLAS_THREAD.users == 0


FIVE = ("sx", "sy", "sz", "n_alpha", "n_beta")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("direction,sign", [("x", 1), ("y", -1), ("z", 1)])
def test_pipelined_cutoffs_match_one_trace_at_a_time(monkeypatch, render_cpus, cpus,
                                                     direction, sign):
    # each cutoff past the first is prepared in the calling thread, as the
    # lead of the previous cutoff's chunk map, before that thread takes a
    # chunk; the deviations are those of one observable_trace per cutoff,
    # bit for bit
    render_cpus(cpus)
    p = ModelParams(G=10.0, N=2, t_max=30.0, dt=0.05)      # 601 points, 5 chunks
    N_list = [2, 4, 6, 8]
    traces = [observable_trace(build_minimal_hamiltonian(dataclasses.replace(p, N=N)),
                               initial_state(direction, sign, N)) for N in N_list]
    want = [(lo, hi, max(float(np.abs(getattr(a, name) - getattr(b, name)).max())
                         for name in FIVE))
            for lo, hi, a, b in zip(N_list, N_list[1:], traces, traces[1:])]

    events, prepared, traced, chunk = [], model._prepared, model._traced, model._Propagator.chunk

    def preparing(params, *args):
        events.append(("prepare", params.N, threading.current_thread()))
        return prepared(params, *args)

    def tracing(params, *args):
        events.append(("map", params.N, threading.current_thread()))
        return traced(params, *args)

    def chunking(self, *args):
        events.append(("chunk", math.isqrt(self.dim), threading.current_thread()))
        return chunk(self, *args)

    monkeypatch.setattr(model, "_prepared", preparing)
    monkeypatch.setattr(model, "_traced", tracing)
    monkeypatch.setattr(model._Propagator, "chunk", chunking)
    assert model.truncation_convergence(p, direction, sign, N_list) == want
    caller = threading.current_thread()
    assert {t for kind, _, t in events if kind != "chunk"} == {caller}
    assert [(kind, N) for kind, N, _ in events if kind != "chunk"] == \
        [("prepare", 2), ("map", 2), ("prepare", 4), ("map", 4), ("prepare", 6),
         ("map", 6), ("prepare", 8), ("map", 8)]
    for N, following in zip(N_list, N_list[1:]):
        lead = events.index(("prepare", following, caller))
        # the calling thread takes cutoff N's chunks only once its lead is done
        assert all(i > lead for i, (kind, n, t) in enumerate(events)
                   if (kind, n, t) == ("chunk", N, caller))
        if cpus == 1:
            assert ("chunk", N) not in {(kind, n) for kind, n, _ in events[:lead]}
    assert all(t is caller or is_chunk_thread(t) for _, _, t in events)
    assert not any(map(is_chunk_thread, threading.enumerate()))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("plant", ["eigensolver", "off-band"])
def test_failing_lead_raises_once_the_chunk_threads_finish(monkeypatch, two_blas_threads,
                                                          render_cpus, cpus, plant):
    # cutoff 8 cannot be prepared: its eigensolver fails, or its block +1
    # has weight off the five diagonals; observable_trace at that cutoff
    # raises the same type.  Cutoff 6's chunks are slowed down, so its chunk
    # thread is still running when the lead fails; the failure empties the
    # queue and is raised once no chunk thread is left
    render_cpus(cpus)
    p = ModelParams(G=3.0, N=6, t_max=100.0, dt=0.02)      # 40 chunks at N=6
    real_eigh, real_block = np.linalg.eigh, model._parity_block

    def eigh(m, *args, **kwargs):
        if m.shape[0] == 64:
            raise np.linalg.LinAlgError("synthetic non-convergence")
        return real_eigh(m, *args, **kwargs)

    def block(N, g, sign):
        b = real_block(N, g, sign)
        if N == 8 and sign == 1:
            m = b.entries.copy()
            m[0, 2] = m[2, 0] = 1e-3
            b = ParityBlock(sign, m)
        return b

    if plant == "eigensolver":
        monkeypatch.setattr(np.linalg, "eigh", eigh)
    else:
        monkeypatch.setattr(model, "_parity_block", block)
    with pytest.raises(NumericalConsistencyError) as alone:
        observable_trace(build_minimal_hamiltonian(dataclasses.replace(p, N=8)),
                         initial_state("z", 1, 8))

    ran, chunk, threaded, left = [], model._Propagator.chunk, model._threaded, []

    def slow(self, *args):
        time.sleep(0.005)
        ran.append(self.dim)
        return chunk(self, *args)

    def watched(*args):
        try:
            return threaded(*args)
        except BaseException:
            left.append([t for t in threading.enumerate() if is_chunk_thread(t)])
            raise

    monkeypatch.setattr(model._Propagator, "chunk", slow)
    monkeypatch.setattr(model, "_threaded", watched)
    with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
        model.truncation_convergence(p, "z", 1, [6, 8])
    assert left == [[]]
    assert ran.count(36) < 40 and (cpus == 2 or ran.count(36) == 0)
    assert not any(map(is_chunk_thread, threading.enumerate()))
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


#: a sweep of four G values, each trace 8 chunks of 128 steps at N=8
SWEEP = ["sweep", "--set", "N=8", "--set", "G_list=0.5,1,3,10", "--set", "t_max=20"]


def test_sweep_workers_are_its_only_threads(tmp_path, two_blas_threads, chunk_threads,
                                            render_cpus):
    # the sweep's map holds the pin while it forks, so each job, this
    # process's included, runs its trace's chunks itself
    render_cpus(2)
    assert cli.main([*SWEEP, "--out", str(tmp_path)]) == 0
    assert chunk_threads == {threading.current_thread()}
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


def test_sweep_in_one_process_leaves_traces_their_chunk_threads(tmp_path, two_blas_threads,
                                                                 chunk_threads, render_cpus,
                                                                 forks):
    # a one-G sweep is a map of one job, which takes no pin: its trace
    # gets the usable CPUs
    render_cpus(2)
    argv = ["sweep", "--set", "N=8", "--set", "G_list=3", "--set", "t_max=20"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert any(map(is_chunk_thread, chunk_threads)) and forks == []
    assert not any(map(is_chunk_thread, threading.enumerate()))
    assert two_blas_threads() == 2 and _ONE_BLAS_THREAD.users == 0


def test_sweep_on_one_core_runs_in_the_calling_thread(tmp_path, monkeypatch, chunk_threads,
                                                      render_cpus, forks):
    render_cpus(1)
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
    # a trace with two usable CPUs and 40 chunks starts a chunk
    # thread, which fails as it does when no memory is left for its stack
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

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
    # a child forked while the pin is held keeps it held: its traces are
    # nested, and the one holder it inherited is never released there
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    p = ModelParams(G=1.0, N=6, t_max=20.0)
    sx, users = sx_at_end(p)
    assert users == 0
    with _ONE_BLAS_THREAD, multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(sx_at_end, (p,)).get(timeout=60) == (sx, 1)


def test_forked_child_makes_no_thread_call(monkeypatch, two_blas_threads):
    # each call of the pin's get and set functions is counted; a child
    # forked while the pin is held runs a trace of 40 chunks and reports
    # its count down a pipe
    counts = [0]

    def counted(call):
        def wrapper(*args):
            counts[0] += 1
            return call(*args)
        return wrapper

    monkeypatch.setattr(_ONE_BLAS_THREAD, "calls", tuple(map(counted, _ONE_BLAS_THREAD.calls)))
    p = ModelParams(G=3.0, N=8, t_max=100.0, dt=0.02)
    h, psi0 = build_minimal_hamiltonian(p), initial_state("z", 1, p.N)
    read, write = os.pipe()
    with _ONE_BLAS_THREAD:
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read)
                counts[0] = 0
                observable_trace(h, psi0)
                os.write(write, str(counts[0]).encode())
            finally:
                os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        report = pipe.read()
    os.waitpid(pid, 0)
    assert report == b"0"


def test_one_width_rule_sizes_both_maps(tmp_path, monkeypatch, one_blas_thread, render_cpus,
                                        forks):
    # at 1, 2 and 3 usable CPUs, with and without the pin's thread calls: the
    # default-length evolve at N=8 (40 chunks, a trace.csv of three blocks)
    # and a sweep of four G; one child per CPU past the first for every map,
    # and one chunk thread per CPU past the first for the trace (the calling
    # thread is the map's first worker), unless its BLAS calls cannot be
    # pinned; a sweep's traces run in their jobs.  Each chunk thread's first
    # chunk waits for the others, so that none takes every chunk before the
    # next starts (a pool then reuses it)
    started, start, chunk = [], threading.Thread.start, model._Propagator.chunk

    def recorded(thread):
        started.append(thread)
        return start(thread)

    outputs = {}
    for calls in (True, False):
        for cpus in (1, 2, 3):
            threads = cpus - 1 if calls else 0
            gathering, waited = threading.Barrier(max(threads, 1), timeout=30), set()

            def gathered(self, *args):
                if is_chunk_thread(threading.current_thread()) and \
                        threading.current_thread() not in waited:
                    waited.add(threading.current_thread())
                    gathering.wait()
                return chunk(self, *args)

            with monkeypatch.context() as patch:
                patch.setattr(threading.Thread, "start", recorded)
                patch.setattr(model._Propagator, "chunk", gathered)
                if not calls:
                    patch.setattr(_ONE_BLAS_THREAD, "calls", False)
                render_cpus(cpus)
                out = tmp_path / f"{calls}-{cpus}"
                for argv, want_forks, want_threads in (
                        (["evolve", "--set", "N=8"], cpus - 1, threads),
                        (SWEEP, cpus - 1, 0)):
                    del forks[:], started[:]
                    assert cli.main([*argv, "--out", str(out / argv[0])]) == 0
                    assert len(forks) == want_forks, (argv[0], calls, cpus)
                    assert sum(map(is_chunk_thread, started)) == want_threads, \
                        (argv[0], calls, cpus)
            outputs[calls, cpus] = {p.name: p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    assert len(outputs[True, 1]) == 3          # trace, heatmap, diagnostics
    for case, files in outputs.items():
        assert files == outputs[True, 1], case
    assert one_blas_thread() == 1 and _ONE_BLAS_THREAD.users == 0
