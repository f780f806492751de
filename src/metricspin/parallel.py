"""The CPUs a run may use: the BLAS pin and the two maps that spread work.

Every eigensolve and chunk product runs with numpy's OpenBLAS pinned to
one thread, so the output does not depend on the BLAS thread setting.
The pin, :data:`_ONE_BLAS_THREAD`, also says how many CPUs its holder may
use: the first holder gets :func:`usable_cpus`, and a holder that enters
while it is held (a kernel beside a running one, or any work in a child
forked while it was held) gets one.

Two maps spread independent jobs over those CPUs, and :func:`_width`
alone says how many threads or processes one uses: one per CPU the pin
gave, never more than the jobs.

- :func:`_threaded` runs a trace's time chunks on threads started for
  the call, in the pin its caller holds.  Each thread takes the next
  chunk from one shared queue under a lock and works in its own buffers,
  so a thread slowed down takes fewer chunks.  Without the pin's thread
  calls each BLAS call may start threads of its own, so the map then
  stays in the calling thread.
- :func:`_rendered` maps jobs (a file's row blocks or a sweep's G
  values) over processes, since formatting holds the interpreter lock
  and threads cannot share it: the caller runs jobs 0, W, 2W, ... and
  each of W - 1 forked children its own residue class.  A job's result
  is any picklable value; a child pickles each one, or the failure that
  ends its jobs, down a pipe and flushes it at once, so the caller never
  waits on a later job for it.  The caller yields the results in job
  order, so the bytes are those of one process, and raises a failure as
  the same exception.  A map of two or more jobs holds the pin while it
  forks, so every job runs its kernels on one thread and a map inside a
  job, nested, stays in its process.  A map of one job, or while another
  Python thread is alive (a fork copies only the calling thread), or
  without ``os.fork`` takes no pin and stays in one process.  The
  children share the caller's pages copy-on-write and are killed and
  reaped before the map returns or fails; on Linux they also die with
  the caller's process, killed by ``SIGKILL`` or not.

A chunk thread that cannot start, a failed fork, and a child that ends
without its result (say, one the OOM killer ended) raise ``MemoryError``.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one.

    ``os.cpu_count()`` counts the machine's CPUs, also under ``taskset``
    or a cgroup's cpuset, so it would oversubscribe a pinned run.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _OneBlasThread:
    """Numpy's OpenBLAS held at one thread, and the CPUs its holder may use.

    ``with _ONE_BLAS_THREAD as cpus:`` counts its holders under a lock.
    The first gets :func:`usable_cpus`, saves the caller's thread count
    and sets 1; a holder that enters while the pin is held gets 1 and
    calls no thread function, also in a child forked while it was held.
    The last to leave restores the count, so one trace ending never
    unpins another still running.  The thread calls are looked up on
    first use; where none exist, holders are counted but nothing pinned.
    """

    def __init__(self):
        self.calls = None           # (get, set), or False once found missing
        self.users = 0
        self._renew_lock()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._renew_lock)

    def _renew_lock(self):
        # in a forked child too, where a thread that held it at the fork is gone
        self.lock = threading.Lock()

    def _library_calls(self):
        try:
            lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            return False
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_

    def __enter__(self) -> int:
        with self.lock:
            self.users += 1
            if self.users > 1:
                return 1
            if self.calls is None:
                self.calls = self._library_calls()
            if self.calls:
                self.saved = self.calls[0]()
                self.calls[1](1)
            return usable_cpus()

    def __exit__(self, *exc):
        with self.lock:
            self.users -= 1
            if self.users == 0 and self.calls:
                self.calls[1](self.saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _width(cpus: int, jobs: int, threads: bool) -> int:
    """How many threads (``threads``) or processes run ``jobs`` jobs under a pin that gave ``cpus``.

    One per CPU, never more than the jobs; a thread map without the pin's
    thread calls gets one, as the module docstring says.
    """
    return 1 if threads and not _ONE_BLAS_THREAD.calls else min(cpus, jobs)


def _threaded(run, jobs, cpus: int, buffers) -> None:
    """``run(*job, *scratch)`` for each tuple of ``jobs``, on threads, ``cpus`` from the held pin.

    Each thread's ``scratch`` is one ``buffers()`` call, made here before
    any thread starts; a map of width one runs in the calling thread.
    Leaving waits for every thread, even after one fails, and then raises
    the first failure.
    """
    pending, taking = iter(jobs), threading.Lock()

    def taken():
        with taking:
            return next(pending, None)

    def worker(scratch) -> None:
        for job in iter(taken, None):       # the next job, until none is left
            run(*job, *scratch)

    width = _width(cpus, len(jobs), threads=True)
    if width == 1:
        return worker(buffers())
    with ThreadPoolExecutor(width, thread_name_prefix="metricspin-chunk") as pool:
        try:
            done = pool.map(worker, [buffers() for _ in range(width)])     # starts the threads
        except RuntimeError as exc:     # "can't start new thread": out of memory
            raise MemoryError(f"cannot start a chunk thread: {exc}") from exc
        list(done)


def _rendered(render, jobs):
    """``render(job)``, a picklable value, for each of the sequence ``jobs``, in job order.

    Spread over forked processes as the module docstring says.  A child's
    failure is raised here as the exception it raised (as ``RuntimeError``
    naming its type if it cannot be pickled); closing the generator early
    kills the children.
    """
    if len(jobs) > 1 and threading.active_count() == 1 and hasattr(os, "fork"):
        with _ONE_BLAS_THREAD as cpus:
            if (width := _width(cpus, len(jobs), threads=False)) > 1:
                yield from _forked(render, jobs, width)
                return
    yield from map(render, jobs)


def _forked(render, jobs, width: int):
    """:func:`_rendered` over this process and ``width - 1`` forked children."""
    pids, pipes, parent = [], [], os.getpid()

    def received(child: int):
        try:
            value = pickle.load(pipes[child])
        except (EOFError, pickle.UnpicklingError):      # no message, or a truncated one
            _, status = os.waitpid(pids[child], 0)
            pids[child] = None          # reaped, so its pid may be reused
            raise MemoryError(f"a render process ended without its result (wait status {status})")
        if isinstance(value, BaseException):
            raise value
        return value

    try:
        # no signal handler runs until every child is recorded: one raising
        # before its pid is kept would lose the child, and one in an at-fork
        # hook would be ignored, the signal with it; mask is the caller's own
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        try:
            for k in range(1, width):
                read, write = os.pipe()
                pipes.append(os.fdopen(read, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(render, jobs[k::width], write, pipes, parent, mask)
                finally:
                    os.close(write)         # the child never gets here
                pids.append(pid)
        except OSError as exc:      # no process or descriptor left: EAGAIN, ENOMEM, EMFILE
            raise MemoryError(f"cannot start a render process: {exc}") from exc
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, job in enumerate(jobs):
            # no local holds a result while the caller has it
            yield received(i % width - 1) if i % width else render(job)
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(render, jobs, fd: int, pipes, parent: int, mask) -> None:
    """In a forked child: pickle ``render(job)`` for each of ``jobs`` down the pipe ``fd``.

    On Linux the child first asks for ``SIGKILL`` when ``parent`` dies, and
    leaves at once if it has died already, so a child dies with a command
    killed by ``SIGKILL``; then it takes back the caller's signal ``mask``.

    Each value is flushed as soon as it is pickled: ``pickle.dump`` leaves
    at least its last byte in the file's write buffer, and without the
    flush the caller, which needs that byte, would wait for the child's
    next job as well.  A failure ends the messages: the exception itself,
    or ``RuntimeError("Type: text")`` if it does not survive pickling.
    Never returns: the child leaves through ``os._exit``, so it runs no
    exit handler and flushes no buffer of the caller's.
    """
    try:
        if sys.platform == "linux":
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            # PR_SET_PDEATHSIG (1) fires when the forking *thread* ends; that
            # is the process's end, since _rendered forks only as the one thread
            prctl(1, signal.SIGKILL)
            if os.getppid() != parent:  # it died before the call
                return
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pipe in pipes:              # the read ends, the caller's alone
            pipe.close()
        with os.fdopen(fd, "wb") as out:
            try:
                for job in jobs:
                    pickle.dump(render(job), out)
                    out.flush()
            except Exception as exc:    # raised by the caller
                try:
                    pickle.dump(pickle.loads(pickle.dumps(exc)), out)
                except Exception:       # it does not survive pickling
                    pickle.dump(RuntimeError(f"{type(exc).__name__}: {exc}"), out)
        os._exit(0)
    finally:                            # an exception, or the early return
        os._exit(1)
