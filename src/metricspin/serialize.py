"""Deterministic text output: CSV rows and manifests.

Floats are rendered as shortest round-trip decimals (Python ``repr``)
so re-running a manifest reproduces files byte for byte on any platform
with IEEE-754 doubles.  Every output is rendered to bytes (CSVs in
ASCII, manifests in UTF-8); this module opens no file, and the command
line (:func:`metricspin.cli._write_outputs`) writes what it renders.

Every CSV is a stream of self-contained blocks of ``_BLOCK_ROWS`` rows:
:func:`render_rows` renders rows ``[lo, hi)`` from the columns a
function gives for them, and :func:`render_csv` is that stream over the
slices of whole columns.  A column is 1-D floats, integers, or bytes
texts written as they are.  A block shares nothing with another block:
each float column finds the distinct values of its block's rows by bit
pattern (``0.0`` and ``-0.0`` keep their own text), and it has a value
table when at most ``_TABLE_SHARE`` of them are distinct.
:func:`float_texts` gives a block's float columns their texts: one
``_texts`` call formats the distinct values of the tabled columns and
the rows of the others, and a tabled column's rows index its table's
texts, cut to its longest text.  A caller that builds a block's texts
itself (the lattice's bands) calls it too.  So a render holds one
block's columns, texts and tables at a time, and never the text of the
whole file; the bytes are those of rendering every number on its own.

The layout sees one kind of column: texts.  Per block, every column gives
its cells' texts as one fixed-width bytes array: a float column's from its
table or from ``_texts``, an integer column's from numpy's ``astype("S")``
(``repr``'s text, 21 wide for int64), a bytes column's as they are.  The
block's rows are laid out in one buffer, a slot per column as wide as its
texts, each text NUL-padded and followed by its ``,`` or the row's
newline; dropping the NUL bytes leaves the block's text.

Floats are formatted as arrays, never one Python call per value:
``_texts`` (:func:`metricspin.floattext.texts`) gives a whole array's
texts as a fixed-width ``S24`` array whose bytes are ``repr``'s,
formatted 2048 values at a time in the calling process.  Its fast path
scales each magnitude by a power of ten as a double-double and picks the
shortest digits that round back to it, or hands the value to ``repr``:
NaN, infinities, zeros, subnormals, powers of two, magnitudes outside
[1e-280, 1e280], and any value whose rounding interval ends or
last-digit rounding lie within 1e-9 of a tie (none of 100,000 uniform
draws in [0, 1)).

A file's blocks are jobs of :func:`metricspin.parallel._rendered`, the
map over forked processes, which yields them in order; so the bytes are
those of a one-process render.
"""

from __future__ import annotations

import numpy as np

from .floattext import texts as _texts
from .parallel import _rendered

#: rows rendered together; bounds a block's cell buffer, texts and tables
_BLOCK_ROWS = 2048

#: largest share of a block's rows that may be distinct in a column's
#: table; a table costs each row a lookup, so it must spare a quarter of
#: the formatting (a symmetric band grid spares half, a trace column none)
_TABLE_SHARE = 0.75

def fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _checked(columns, n: int | None = None) -> list:
    """``columns`` as 1-D arrays of ``n`` rows (the first's if None): float64, integer or bytes."""
    checked = []
    for column in columns:
        values = np.asarray(column)
        if values.ndim != 1:
            raise ValueError(f"CSV columns must be 1-D, got shape {values.shape}")
        if values.dtype.kind == "f":
            values = values.astype(np.float64, copy=False)
        elif values.dtype.kind not in "iS":     # bytes texts are written as they are
            raise TypeError(f"CSV columns must be real, integer or bytes, got dtype {values.dtype}")
        checked.append(values)
    if any(c.size != (checked[0].size if n is None else n) for c in checked):
        raise ValueError("CSV columns must have equal lengths")
    return checked


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the int64 ``keys``."""
    # np.unique(keys) took 25x as long as this sort on a 20,001-row column (numpy 2.4)
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))[:keys.size]]


def render_csv(header: str | None, columns):
    """ASCII CSV, one line per row of the equal-length 1-D ``columns``, as bytes blocks.

    Floats render as ``fmt`` does, integers as ``repr(int)``, bytes (``S``)
    texts as they are (a text holds no NUL byte).  The columns are checked
    here; the returned iterator is :func:`render_rows` over their slices.
    """
    columns = _checked(columns)
    n = columns[0].size if columns else 0
    return render_rows(header, n, lambda lo, hi: [c[lo:hi] for c in columns])


def render_rows(header: str | None, n: int, block_columns):
    """ASCII CSV of ``n`` rows, as bytes blocks, from their columns block by block.

    Yields the ``header`` line on its own (nothing for ``header=None``),
    then one bytes object per ``_BLOCK_ROWS`` rows (the last may be
    shorter), every row ending in a newline.  Rows ``[lo, hi)`` render
    from ``block_columns(lo, hi)``, ``hi - lo`` rows of the columns that
    :func:`render_csv` takes, laid out as the module docstring says; each
    block is a :func:`_rendered` job.
    """
    if header is not None:
        yield header.encode() + b"\n"

    def block(lo: int) -> bytes:
        hi = min(lo + _BLOCK_ROWS, n)
        return _block(_checked(block_columns(lo, hi), hi - lo))

    yield from _rendered(block, range(0, n, _BLOCK_ROWS))


def float_texts(columns) -> list:
    """The texts of one block's 1-D float64 ``columns``, a fixed-width bytes array each.

    A column is tabled as the module docstring says, and one ``_texts``
    call formats the tabled columns' distinct values and the others' rows.
    """
    keys = [_distinct(v.view(np.int64)) for v in columns]
    tabled = [k.size <= _TABLE_SHARE * v.size for k, v in zip(keys, columns)]
    shown = [k.view(np.float64) if t else v for k, v, t in zip(keys, columns, tabled)]
    ends = np.cumsum([s.size for s in shown])
    formatted = np.split(_texts(np.concatenate(shown)), ends[:-1]) if shown else []
    return [narrowed(f)[np.searchsorted(k, v.view(np.int64))] if t else f
            for v, k, t, f in zip(columns, keys, tabled, formatted)]


def narrowed(texts: np.ndarray) -> np.ndarray:
    """The left-aligned fixed-width bytes ``texts`` cut to the longest of them, as a view."""
    cells = texts.view(np.uint8).reshape(texts.size, texts.itemsize)
    width = max(1, cells.any(axis=0).sum())       # a view needs a width, also with no texts
    return cells[:, :width].view(f"S{width}")[:, 0]


def _block(columns) -> bytes:
    """The text of one block's rows, from its checked ``columns``, as the module docstring says."""
    floats = iter(float_texts([v for v in columns if v.dtype.kind == "f"]))
    # an integer's text is repr's; bytes stay as they are
    texts = [next(floats) if v.dtype.kind == "f" else v.astype("S") for v in columns]
    buffer = np.empty((texts[0].size, sum(t.itemsize + 1 for t in texts)), dtype=np.uint8)
    at = 0
    for t in texts:
        w = t.itemsize
        buffer[:, at:at + w] = t.view(np.uint8).reshape(t.size, w)
        buffer[:, at + w] = ord(",")
        at += w + 1
    buffer[:, -1] = ord("\n")
    data = buffer.tobytes()
    del texts, buffer       # so that no more than two copies of the block are held
    return data.translate(None, b"\0")


def render_manifest(pairs) -> bytes:
    """Flat key=value text, one pair per line."""
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()
