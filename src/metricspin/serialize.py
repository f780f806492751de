"""Deterministic text output: CSV rows, manifests, checksums.

Floats are rendered as shortest round-trip decimals (Python ``repr``)
so re-running a manifest reproduces files byte for byte on any platform
with IEEE-754 doubles.  Every output is rendered to bytes (CSVs in
ASCII, manifests in UTF-8) and written through :func:`write_partial`.

Every CSV goes through :func:`render_csv`, which takes the file's columns
as 1-D arrays: floats, integers, or bytes texts written as they are.  A
float's text is its magnitude's text with ``-`` prepended where its sign
bit is set; NaN, whatever its sign bit, prints ``nan``.  So the distinct
values of a float column are found over the whole column by bit pattern
(``0.0`` and ``-0.0`` keep their own text), and the distinct magnitudes of
all such columns of a call are formatted together, each exactly once, into
one fixed-width bytes table per column that the rows index.  A column
with more than ``_TABLE_SHARE`` of its rows distinct has no table, and
neither has an integer column: they are formatted as their rows are
rendered.  Rows are rendered and yielded in blocks of ``_BLOCK_ROWS``, so
the text of the whole file is never held; the bytes are those of
rendering every number on its own.

Floats are formatted as arrays, never one Python call per value:
``_texts`` (:func:`metricspin.floattext.texts`) gives a whole array's
texts as a fixed-width ``S24`` array whose bytes are ``repr``'s,
formatted 2048 values at a time in the calling process.  Its fast path
scales each magnitude by a power of ten as a double-double and picks the
shortest digits that round back to it, or hands the value to ``repr``:
NaN, infinities, zeros, subnormals, powers of two, magnitudes outside
[1e-280, 1e280], and any value whose rounding interval ends or
last-digit rounding lie within 1e-9 of a tie (none of 100,000 uniform
draws in [0, 1)).  A block's rows are laid out in one buffer of
fixed-width slots, each cell's text NUL-padded and followed by its ``,``
or the row's newline; dropping the NUL bytes leaves the block's text.

Formatting holds the interpreter lock, so threads cannot share it;
forked processes can.  :func:`_rendered` maps jobs (a file's row blocks,
or a sweep's G values) over W processes: the caller runs jobs 0, W, 2W,
... and each of W - 1 forked children its own residue class, sending the
results down a pipe; the caller yields them in job order, so the bytes
are those of one process.  A map of two or more jobs holds the model's
BLAS pin while it forks, with W = min(the CPUs the pin gives, jobs), so
every job runs its kernels on one thread and a map inside a job, nested,
stays in its process.  A map of one job, or while another Python thread
is alive (a fork copies only the calling thread), or without ``os.fork``
takes no pin and stays in one process.  The children share the caller's
pages copy-on-write and are killed and reaped before the map returns or
fails; a failed fork, or a child that ends without its result (say, one
the OOM killer ended), raises ``MemoryError``.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

from .errors import NumericalConsistencyError
from .floattext import WIDTH as _WIDTH
from .floattext import texts as _texts
from .model import _ONE_BLAS_THREAD

#: rows rendered together; bounds a block's cell buffer and text
_BLOCK_ROWS = 2048

#: clears the sign bit of a float64 bit pattern read as int64, leaving its magnitude's
_MAGNITUDE = np.int64(2 ** 63 - 1)

#: bit pattern of +inf; a larger magnitude is a NaN
_INF_BITS = np.float64(np.inf).view(np.int64)

#: the longest text of an integer column's value, ``-9223372036854775808``
_INT_WIDTH = 20

#: largest share of a column's rows that may be distinct in a table; a
#: table costs each row a lookup, so it must spare a quarter of the
#: formatting (a symmetric band grid spares half, a trace column none)
_TABLE_SHARE = 0.75

def fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _checked(column) -> np.ndarray:
    """A CSV column as a 1-D array: float64, integer or bytes texts."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {values.shape}")
    if values.dtype.kind == "f":
        return values.astype(np.float64, copy=False)
    if values.dtype.kind in "iS":       # bytes texts are written as they are
        return values
    raise TypeError(f"CSV columns must be real, integer or bytes, got dtype {values.dtype}")


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the int64 ``keys``."""
    # np.unique(keys) took 25x as long as this sort on a 20,001-row column (numpy 2.4)
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))[:keys.size]]


def _tables(columns) -> list:
    """Per column, its table (sorted distinct bit patterns, their texts) or None."""
    keys = []
    for values in columns:
        distinct = _distinct(values.view(np.int64)) if values.dtype.kind == "f" else None
        repeats = distinct is not None and distinct.size <= _TABLE_SHARE * values.size
        keys.append(distinct if repeats else None)
    tabled = [k for k in keys if k is not None]
    if not tabled:
        return keys
    magnitudes = _distinct(np.concatenate(tabled) & _MAGNITUDE)
    texts = _texts(magnitudes.view(np.float64))
    return [None if k is None else (k, _signed(k, magnitudes, texts)) for k in keys]


def _signed(keys: np.ndarray, magnitudes: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """Texts of the float bit patterns ``keys`` from the ``texts`` of the sorted ``magnitudes``."""
    magnitude = keys & _MAGNITUDE
    signed = texts[np.searchsorted(magnitudes, magnitude)]
    chars = signed.view(np.uint8).reshape(signed.size, _WIDTH)
    minus = (keys < 0) & (magnitude <= _INF_BITS)      # NaN prints nan
    chars[minus, 1:] = chars[minus, :-1]        # a magnitude's text is at most 23 long
    chars[minus, 0] = ord("-")
    return signed


def render_csv(header: str | None, columns):
    """ASCII CSV, one line per row of the equal-length 1-D ``columns``, as bytes blocks.

    Floats render as ``fmt`` does, integers as ``repr(int)``, bytes (``S``)
    texts as they are (a text holds no NUL byte).  The columns are checked
    and their value tables built here; the returned iterator yields the
    ``header`` line on its own (nothing for ``header=None``), then one
    bytes object per ``_BLOCK_ROWS`` rows (the last may be shorter), every
    row ending in a newline.
    """
    columns = [_checked(c) for c in columns]
    n = columns[0].size if columns else 0
    if any(c.size != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    return _blocks(header, n, columns, _tables(columns))


def _blocks(header, n, columns, tables):
    """The blocks of :func:`render_csv`: rows ``_BLOCK_ROWS`` at a time.

    A block's cells go into one buffer, a row of fixed-width slots (each
    column's widest text, NUL-padded, then its ``,`` or the row's newline);
    dropping the NUL bytes leaves the rows' text.
    """
    if header is not None:
        yield header.encode() + b"\n"

    def width(v: np.ndarray, table) -> int:
        if v.dtype.kind == "S":
            return v.dtype.itemsize
        if v.dtype.kind == "i":
            return _INT_WIDTH
        if table is None:
            return _WIDTH
        # a table's longest text (texts are left-aligned); a constant column's is short
        return max(1, np.count_nonzero(table[1].view(np.uint8).reshape(-1, _WIDTH).any(axis=0)))

    widths = [width(v, table) for v, table in zip(columns, tables)]
    slots = np.cumsum([0] + [w + 1 for w in widths])

    def cells(v: np.ndarray, table, start: int) -> np.ndarray:
        part = v[start:start + _BLOCK_ROWS]
        if v.dtype.kind == "S":
            return np.ascontiguousarray(part)
        if v.dtype.kind == "i":
            return part.astype(f"S{_INT_WIDTH}")
        if table is None:
            return _texts(part)
        return table[1][np.searchsorted(table[0], part.view(np.int64))]

    def rows(start: int) -> bytes:
        buffer = np.empty((min(_BLOCK_ROWS, n - start), slots[-1]), dtype=np.uint8)
        for v, table, w, at in zip(columns, tables, widths, slots):
            texts = cells(v, table, start)
            buffer[:, at:at + w] = texts.view(np.uint8).reshape(texts.size, -1)[:, :w]
            buffer[:, at + w] = ord(",")
        buffer[:, -1] = ord("\n")
        data = buffer.tobytes()
        del buffer              # so that no more than two copies of the block are held
        return data.translate(None, b"\0")

    yield from _rendered(rows, range(0, n, _BLOCK_ROWS))


def _rendered(render, jobs):
    """``render(job)``, bytes, for each of the sequence ``jobs``, yielded in job order.

    Spread over forked processes as the module docstring says.  A child's
    ``MemoryError`` and ``NumericalConsistencyError`` are raised here as
    such, any other failure as ``RuntimeError``; closing the generator
    early kills the children.
    """
    if len(jobs) > 1 and threading.active_count() == 1 and hasattr(os, "fork"):
        with _ONE_BLAS_THREAD as cpus:
            if cpus > 1:
                yield from _forked(render, jobs, min(cpus, len(jobs)))
                return
    yield from map(render, jobs)


def _forked(render, jobs, width: int):
    """:func:`_rendered` over this process and ``width - 1`` forked children."""
    import signal       # loaded only by a map that forks

    pids, pipes = [], []

    def received(child: int) -> bytes:
        data = _received(pipes[child])
        if data is None:
            _, status = os.waitpid(pids[child], 0)
            pids[child] = None          # reaped, so its pid may be reused
            raise MemoryError(f"a render process ended without its result (wait status {status})")
        return data

    try:
        try:
            for k in range(1, width):
                read, write = os.pipe()
                pipes.append(os.fdopen(read, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(render, jobs[k::width], write, pipes)
                finally:
                    os.close(write)         # the child never gets here
                pids.append(pid)
        except OSError as exc:      # no process or descriptor left: EAGAIN, ENOMEM, EMFILE
            raise MemoryError(f"cannot start a render process: {exc}") from exc
        for i, job in enumerate(jobs):
            # no local holds a result while the caller has it
            yield received(i % width - 1) if i % width else render(job)
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(render, jobs, fd: int, pipes) -> None:
    """In a forked child: send ``render(job)`` for each of ``jobs`` down the pipe ``fd``.

    Each message is a tag (``R`` a result, ``M`` a ``MemoryError``, ``N``
    a ``NumericalConsistencyError``, ``E`` any other failure), an 8-byte
    length and that many bytes: the result, or the error's text.  Never
    returns: the child leaves through ``os._exit``, so it runs no exit
    handler and flushes no buffer of the caller's.
    """
    status = 1
    try:
        for pipe in pipes:              # the read ends, the caller's alone
            pipe.close()
        with os.fdopen(fd, "wb") as out:
            try:
                for job in jobs:
                    _send(out, b"R", render(job))
            except (MemoryError, NumericalConsistencyError) as exc:    # exits 2 and 3
                tag = b"M" if isinstance(exc, MemoryError) else b"N"
                _send(out, tag, str(exc).encode(errors="replace"))
            except Exception as exc:    # reported to the caller, which raises
                _send(out, b"E", f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        status = 0
    finally:
        os._exit(status)


def _send(out, tag: bytes, data: bytes) -> None:
    out.write(tag + len(data).to_bytes(8, "little"))
    out.write(data)


def _received(pipe) -> bytes | None:
    """The next result sent down ``pipe``, None if its child ended; a sent failure is raised."""
    head = pipe.read(9)
    size = int.from_bytes(head[1:], "little")
    data = pipe.read(size)
    if len(head) < 9 or len(data) < size:
        return None
    if head[:1] == b"M":
        raise MemoryError(data.decode() or "in a render process")
    if head[:1] == b"N":
        raise NumericalConsistencyError(data.decode())
    if head[:1] == b"E":
        raise RuntimeError(f"a render process failed: {data.decode()}")
    return data


def render_manifest(pairs) -> bytes:
    """Flat key=value text, one pair per line."""
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()


def write_partial(path, data, digest=None) -> Path:
    """Write ``data``, bytes or an iterable of bytes blocks, to ``<name>.partial``; return it.

    The blocks go to the file beside ``path`` as they come, each also fed
    to ``digest``, a ``hashlib`` object, if one is given.  On any
    exception, a failing block included, the partial file is removed and a
    generator ``data`` is closed (which stops its render, forked processes
    included).
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    blocks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    try:
        with open(partial, "wb") as fh:
            for block in blocks:
                fh.write(block)
                if digest is not None:
                    digest.update(block)
                del block       # not held while the next block renders
    except BaseException:
        partial.unlink(missing_ok=True)
        if hasattr(blocks, "close"):
            blocks.close()
        raise
    return partial
