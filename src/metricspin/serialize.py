"""Deterministic text output: CSV rows, manifests, checksums.

Floats are rendered as shortest round-trip decimals (Python ``repr``)
so re-running a manifest reproduces files byte for byte on any platform
with IEEE-754 doubles.  Every output is rendered to bytes (CSVs in
ASCII, manifests in UTF-8) and written through :func:`write_text`.

Every CSV goes through :func:`render_csv`, which takes the file's columns
as 1-D arrays: numbers, or bytes texts written as they are.  The distinct
values of a number column are found over the whole column by bit
pattern, so ``0.0`` and ``-0.0`` keep their own text, and each is
formatted once per call into one fixed-width bytes array that the rows
index.  A float whose exact negation an earlier column of the call
formatted takes that text with a leading ``-`` added or dropped: that is
``repr(-x)`` for every double ``x`` but NaN, signed zeros and infinities
included.  A column that would still format more than ``_TABLE_SHARE``
of its rows has no table and is formatted row by row.  Rows are rendered
and yielded in blocks of ``_BLOCK_ROWS``, so the text of the whole file
is never held; the bytes are those of rendering every number on its own.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

#: rows rendered together; bounds the per-block cell objects and text
_BLOCK_ROWS = 2048

#: the sign bit of a float64 bit pattern read as int64
_SIGN_BIT = np.int64(-2 ** 63)

#: text of one Python float or int; every CSV cell is formatted by it
_text = repr

#: the longest such text, e.g. ``-2.2250738585072014e-308``
_WIDTH = 24

#: largest share of a column's rows whose values a table may format; a
#: table costs each row a lookup, so it must spare a quarter of the
#: formatting (a symmetric band grid spares half, a trace column none)
_TABLE_SHARE = 0.75


def fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _keyed(column) -> tuple[np.ndarray, np.ndarray | None]:
    """A column as (values, int64 keys): floats keyed by their bits, bytes texts by None."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {values.shape}")
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        return values, values.view(np.int64)
    if values.dtype.kind == "i":
        return values, values.astype(np.int64, copy=False)
    if values.dtype.kind == "S":        # texts, written as they are
        return values, None
    raise TypeError(f"CSV columns must be real, integer or bytes, got dtype {values.dtype}")


def _sign_flipped(texts: np.ndarray) -> np.ndarray:
    """``texts`` with a leading ``-`` dropped where present and added elsewhere."""
    src = texts.view(np.uint8).reshape(texts.size, _WIDTH)
    out = np.zeros_like(src)
    minus = src[:, 0] == ord("-")
    out[minus, :-1] = src[minus, 1:]
    out[~minus, 0] = ord("-")
    out[~minus, 1:] = src[~minus, :-1]      # a text without "-" is at most 23 long
    return out.view(texts.dtype).reshape(texts.size)


def _negations(keys: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """(positions, texts) of the sorted float ``keys`` whose exact negation a table holds.

    ``tables`` are the (sorted keys, texts) of earlier columns; each text
    found has its leading ``-`` flipped.  NaN is never matched: its
    text is ``nan`` whatever its sign bit.
    """
    positions, texts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=f"S{_WIDTH}")]
    negated = keys ^ _SIGN_BIT
    todo = ~np.isnan(keys.view(np.float64))
    for table_keys, table_texts in tables:
        at = np.minimum(np.searchsorted(table_keys, negated), table_keys.size - 1)
        hit = todo & (table_keys[at] == negated)
        todo &= ~hit
        positions.append(np.flatnonzero(hit))
        texts.append(_sign_flipped(table_texts[at[hit]]))
    return np.concatenate(positions), np.concatenate(texts)


def _table(keys: np.ndarray, is_float: bool, tables):
    """(sorted distinct keys, their texts), or None for a column that
    would format more than ``_TABLE_SHARE`` of its rows anyway.  A float
    table, keys and fixed-width texts, is appended to ``tables`` for the
    columns after it."""
    # np.unique(keys) took 25x as long as this sort on a 20,001-row column (numpy 2.4)
    uniq = np.sort(keys)
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))[:uniq.size]]
    sources = tables if is_float else []
    most = _TABLE_SHARE * keys.size
    if uniq.size - sum(k.size for k, _ in sources) > most:     # even if all were reused
        return None
    reused, reused_texts = _negations(uniq, sources)
    if uniq.size - reused.size > most:
        return None
    texts = np.empty(uniq.size, dtype=f"S{_WIDTH}")
    texts[reused] = reused_texts
    fresh = np.delete(np.arange(uniq.size), reused)
    values = uniq.view(np.float64) if is_float else uniq
    for i in range(0, fresh.size, _BLOCK_ROWS):     # bounds the transient str objects
        at = fresh[i:i + _BLOCK_ROWS]
        texts[at] = list(map(_text, values[at].tolist()))
    if is_float:
        tables.append((uniq, texts))
    # rows of a table no larger than a block share its bytes objects
    # instead of each making its own
    return uniq, texts.astype(object) if uniq.size <= _BLOCK_ROWS else texts


def render_csv(header: str | None, columns):
    """ASCII CSV, one line per row of the equal-length 1-D ``columns``, as bytes blocks.

    Floats render as ``fmt`` does, integers as ``repr(int)``, bytes (``S``)
    texts as they are.  The columns are checked and their value tables
    built here; the returned iterator yields the ``header`` line on its own
    (nothing for ``header=None``), then one bytes object per ``_BLOCK_ROWS``
    rows (the last may be shorter), every row ending in a newline.
    """
    keyed = [_keyed(c) for c in columns]
    n = keyed[0][0].size if keyed else 0
    if any(v.size != n for v, _ in keyed):
        raise ValueError("CSV columns must have equal lengths")
    tables = []         # float tables of earlier columns, for negation reuse
    plans = [None if k is None else _table(k, v.dtype.kind == "f", tables) for v, k in keyed]
    return _blocks(header, n, keyed, plans)


def _blocks(header, n, keyed, plans):
    """The blocks of :func:`render_csv`: rows ``_BLOCK_ROWS`` at a time."""
    if header is not None:
        yield header.encode() + b"\n"
    for start in range(0, n, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        cells = [v[start:stop].tolist() if k is None
                 else list(map(str.encode, map(_text, v[start:stop].tolist()))) if plan is None
                 else plan[1][np.searchsorted(plan[0], k[start:stop])].tolist()
                 for (v, k), plan in zip(keyed, plans)]
        yield b"\n".join([*map(b",".join, zip(*cells)), b""])    # every row ends in "\n"


def render_manifest(pairs) -> bytes:
    """Flat key=value text, one pair per line."""
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()


def write_text(path, data) -> Path:
    """Write ``data``, bytes or an iterable of bytes blocks, to ``path``; return ``path``.

    The blocks go as they come to ``<name>.partial`` beside ``path``,
    which replaces ``path`` only once the last block is written, so
    ``path`` is never left half written.  On any exception, a failing
    block included, the partial file is removed and ``path`` keeps what
    it held.
    """
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    blocks = (data,) if isinstance(data, (bytes, bytearray, memoryview)) else data
    try:
        with open(partial, "wb") as fh:
            for block in blocks:
                fh.write(block)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path
