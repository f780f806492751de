"""Deterministic text output: CSV rows, manifests, checksums.

Floats are rendered as shortest round-trip decimals (Python ``repr``)
so re-running a manifest reproduces files byte for byte on any platform
with IEEE-754 doubles.  Every output is rendered to bytes (CSVs in
ASCII, manifests in UTF-8) and written through :func:`write_text`.

Every CSV goes through :func:`render_csv`, which takes the file's columns
as 1-D arrays: floats, integers, or bytes texts written as they are.  A
float's text is its magnitude's text with ``-`` prepended where its sign
bit is set; NaN, whatever its sign bit, prints ``nan``.  So the distinct
values of a float column are found over the whole column by bit pattern
(``0.0`` and ``-0.0`` keep their own text), and the distinct magnitudes of
all such columns of a call are formatted together, each exactly once, into
one fixed-width bytes table per column that the rows index.  A column
with more than ``_TABLE_SHARE`` of its rows distinct has no table, and
neither has an integer column: they are formatted row by row.  Rows are
rendered and yielded in blocks of ``_BLOCK_ROWS``, so the text of the whole
file is never held; the bytes are those of rendering every number on its
own.

``repr`` holds the interpreter lock, so threads cannot share the
formatting; forked processes can.  :func:`_rendered` spreads a list of
jobs (a file's row blocks, slices of its table magnitudes, parts of a
sweep's G rows) over W = min(:func:`~metricspin.model.usable_cpus`, jobs)
processes: the caller renders jobs 0, W, 2W, ... itself, and each of W - 1
forked children renders its own residue class and sends every result
down a pipe.  The caller yields the results in job order, so the bytes
are those of rendering every job in one process.  The render stays in
one process when W is 1, when another Python thread is alive (a fork
copies only the calling thread), inside a job of a forked render (no
nested forks), or where there is no ``os.fork``.  A child shares the
caller's pages copy-on-write and holds one job's text at a time; every
child is killed and reaped before the render returns or fails.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import numpy as np

from .model import usable_cpus

#: rows rendered together; bounds the per-block cell objects and text
_BLOCK_ROWS = 2048

#: clears the sign bit of a float64 bit pattern read as int64, leaving its magnitude's
_MAGNITUDE = np.int64(2 ** 63 - 1)

#: bit pattern of +inf; a larger magnitude is a NaN
_INF_BITS = np.float64(np.inf).view(np.int64)

#: text of one Python float or int; every CSV cell is formatted by it
_text = repr

#: the longest such text, e.g. ``-2.2250738585072014e-308``
_WIDTH = 24

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
    texts = np.empty(magnitudes.size, dtype=f"S{_WIDTH}")
    floats = magnitudes.view(np.float64)

    def formatted(start: int) -> bytes:     # a slice bounds the transient str objects
        values = floats[start:start + _BLOCK_ROWS].tolist()
        return np.array(list(map(_text, values)), dtype=texts.dtype).tobytes()

    starts = range(0, texts.size, _BLOCK_ROWS)
    for start, part in zip(starts, _rendered(formatted, starts)):
        texts[start:start + _BLOCK_ROWS] = np.frombuffer(part, dtype=texts.dtype)
    return [None if k is None else (k, _signed(k, magnitudes, texts)) for k in keys]


def _signed(keys: np.ndarray, magnitudes: np.ndarray, texts: np.ndarray) -> np.ndarray:
    """Texts of the float bit patterns ``keys`` from the ``texts`` of the sorted ``magnitudes``."""
    magnitude = keys & _MAGNITUDE
    signed = texts[np.searchsorted(magnitudes, magnitude)]
    chars = signed.view(np.uint8).reshape(signed.size, _WIDTH)
    minus = (keys < 0) & (magnitude <= _INF_BITS)      # NaN prints nan
    chars[minus, 1:] = chars[minus, :-1]        # a magnitude's text is at most 23 long
    chars[minus, 0] = ord("-")
    # rows of a table no larger than a block share its bytes objects
    # instead of each making its own
    return signed.astype(object) if signed.size <= _BLOCK_ROWS else signed


def render_csv(header: str | None, columns):
    """ASCII CSV, one line per row of the equal-length 1-D ``columns``, as bytes blocks.

    Floats render as ``fmt`` does, integers as ``repr(int)``, bytes (``S``)
    texts as they are.  The columns are checked and their value tables
    built here; the returned iterator yields the ``header`` line on its own
    (nothing for ``header=None``), then one bytes object per ``_BLOCK_ROWS``
    rows (the last may be shorter), every row ending in a newline.
    """
    columns = [_checked(c) for c in columns]
    n = columns[0].size if columns else 0
    if any(c.size != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    return _blocks(header, n, columns, _tables(columns))


def _blocks(header, n, columns, tables):
    """The blocks of :func:`render_csv`: rows ``_BLOCK_ROWS`` at a time."""
    if header is not None:
        yield header.encode() + b"\n"

    def rows(start: int) -> bytes:
        stop = start + _BLOCK_ROWS
        cells = [v[start:stop].tolist() if v.dtype.kind == "S"
                 else list(map(str.encode, map(_text, v[start:stop].tolist()))) if table is None
                 else table[1][np.searchsorted(table[0], v[start:stop].view(np.int64))].tolist()
                 for v, table in zip(columns, tables)]
        return b"\n".join([*map(b",".join, zip(*cells)), b""])    # every row ends in "\n"

    yield from _rendered(rows, range(0, n, _BLOCK_ROWS))


#: set in a render child, and in the caller while it renders its own jobs
#: of a forked render, so that a render inside a job stays in its process
_inside_render = False


def _rendered(render, jobs):
    """``render(job)``, bytes, for each of the sequence ``jobs``, yielded in job order.

    Spread over forked processes as the module docstring says.  A child's
    ``MemoryError`` is raised here as a ``MemoryError``, any other failure
    as ``RuntimeError``; closing the generator early kills the children.
    """
    global _inside_render
    forkable = not _inside_render and threading.active_count() == 1 and hasattr(os, "fork")
    width = min(usable_cpus(), len(jobs)) if forkable else 1
    if width < 2:
        yield from map(render, jobs)
        return
    import signal       # loaded only by a render that forks

    pids, pipes = [], []
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
        for i, job in enumerate(jobs):
            if i % width:
                yield _received(pipes[i % width - 1])
                continue
            _inside_render = True
            try:
                data = render(job)
            finally:
                _inside_render = False
            yield data
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(render, jobs, fd: int, pipes) -> None:
    """In a forked child: send ``render(job)`` for each of ``jobs`` down the pipe ``fd``.

    Each message is a tag (``R`` a result, ``M`` a ``MemoryError``, ``E``
    any other failure), an 8-byte length and that many bytes: the result,
    or the error's text.  Never returns: the child leaves through
    ``os._exit``, so it runs no exit handler and flushes no buffer of the
    caller's.
    """
    global _inside_render
    status = 1
    try:
        _inside_render = True
        for pipe in pipes:              # the read ends, the caller's alone
            pipe.close()
        with os.fdopen(fd, "wb") as out:
            try:
                for job in jobs:
                    _send(out, b"R", render(job))
            except MemoryError as exc:
                _send(out, b"M", str(exc).encode(errors="replace"))
            except Exception as exc:    # reported to the caller, which raises
                _send(out, b"E", f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        status = 0
    finally:
        os._exit(status)


def _send(out, tag: bytes, data: bytes) -> None:
    out.write(tag + len(data).to_bytes(8, "little"))
    out.write(data)


def _received(pipe) -> bytes:
    """The next result a render child sent down ``pipe``; a failure it sent is raised."""
    head = pipe.read(9)
    size = int.from_bytes(head[1:], "little")
    data = pipe.read(size)
    if len(head) < 9 or len(data) < size:
        raise RuntimeError("a render process ended without sending its result")
    if head[:1] == b"M":
        raise MemoryError(data.decode() or "in a render process")
    if head[:1] == b"E":
        raise RuntimeError(f"a render process failed: {data.decode()}")
    return data


def render_manifest(pairs) -> bytes:
    """Flat key=value text, one pair per line."""
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()


def write_text(path, data, digest=None) -> Path:
    """Write ``data``, bytes or an iterable of bytes blocks, to ``path``; return ``path``.

    The blocks go as they come to ``<name>.partial`` beside ``path``,
    which replaces ``path`` only once the last block is written, so
    ``path`` is never left half written.  Each block is also fed to
    ``digest``, a ``hashlib`` object, if one is given.  On any exception,
    a failing block included, the partial file is removed, a generator
    ``data`` is closed (which stops its render, forked processes
    included) and ``path`` keeps what it held.
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
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        if hasattr(blocks, "close"):
            blocks.close()
        raise
    return path
