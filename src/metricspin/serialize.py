"""Deterministic text output: CSV rows, manifests, checksums.

Floats are rendered as shortest round-trip decimals (Python ``repr``)
so re-running a manifest reproduces files byte for byte on any platform
with IEEE-754 doubles.

Every CSV goes through :func:`render_csv`, which takes the file's columns
as 1-D arrays and renders them in blocks of ``_BLOCK_ROWS`` rows.  Within
a block each distinct value of a column is formatted once and its text
is scattered back to the rows that hold it; the bytes are those of
rendering every number on its own.  Values are told apart by bit
pattern, so ``0.0`` and ``-0.0`` keep their own text.  Blocks bound the
transient cell strings to a few thousand rows.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

#: rows rendered together; bounds the per-block cell strings
_BLOCK_ROWS = 2048


def fmt(x) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


def _cells(values: np.ndarray, keys: np.ndarray) -> list[str]:
    """Text of each entry of ``values``, formatting each distinct key once."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    if uniq.size == values.size:
        return list(map(repr, values.tolist()))
    texts = np.array(list(map(repr, uniq.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def _keyed(column) -> tuple[np.ndarray, np.ndarray]:
    """A column as (values, keys): floats as float64 keyed by their bits."""
    values = np.asarray(column)
    if values.ndim != 1:
        raise ValueError(f"CSV columns must be 1-D, got shape {values.shape}")
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        return values, values.view(np.int64)
    if values.dtype.kind == "i":
        return values, values
    raise TypeError(f"CSV columns must be real or integer, got dtype {values.dtype}")


def render_csv(header: str | None, columns) -> str:
    """CSV text with one line per row of the equal-length 1-D ``columns``.

    Floats render as ``fmt`` does, integers as ``repr(int)``.  The
    ``header`` line comes first; with ``header=None`` only the rows are
    returned, each ending in a newline.
    """
    keyed = [_keyed(c) for c in columns]
    n = keyed[0][0].size if keyed else 0
    if any(v.size != n for v, _ in keyed):
        raise ValueError("CSV columns must have equal lengths")
    parts = [] if header is None else [header + "\n"]
    for start in range(0, n, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        cells = [_cells(v[start:stop], k[start:stop]) for v, k in keyed]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)


def sha256_hex(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def render_manifest(pairs) -> str:
    """Flat key=value text, one pair per line."""
    return "".join(f"{k}={v}\n" for k, v in pairs)


def write_text(path, text: str) -> Path:
    """Write with unix newlines regardless of platform."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
