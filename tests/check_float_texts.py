"""Differential check of the CSV float formatter against Python ``repr``.

    python tests/check_float_texts.py [COUNT] [SEED]

Formats COUNT (default 5,000,000) seeded float64 values with
``metricspin.floattext.texts`` and compares every text with ``repr``;
prints the first mismatches and exits 1 if there is any.  The draws mix
the value families a CSV of this package holds and those the formatter's
fast path must get right or hand to ``repr``: uniform [0, 1), signed
values over every decimal scale, raw bit patterns (NaN payloads and
subnormals included), 0.02 * k time grids, short decimals, and a list of
edge values.  ``tests/test_floattext.py`` runs the same check on fewer
values.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

#: the layout switches (1e-4/1e-5, 1e15/1e16), powers of ten that doubles
#: hold exactly or not (1e22, 1e23), the largest double below 1e16,
#: subnormals, the normal and fast-path range ends, powers of two, zeros,
#: infinities and NaN with payloads and either sign
EDGES = np.concatenate([
    [1e-4, 1e-5, 9.999999999999999e-5, 1e15, 1e16, 9999999999999998.0, 1e22, 1e23,
     1e21, 1e17, 123456789012345678.0, 0.1, 0.3, 2 / 3, 1.0, 3.0, 0.5, 1e-3, 1e-280, 1e280,
     5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, 0.0, float("inf"), float("nan")],
    np.ldexp(1.0, np.arange(-1074, 1024, 7)),
    np.nextafter(np.array([1e-280, 1e280, 1e-4, 1e16]), 0.0),
    np.nextafter(np.array([1e-280, 1e280, 1e-4, 1e16]), np.inf),
    np.array([0x7FF8_0000_0000_0001, 0x7FF0_0000_0000_0002, 0x7FFF_FFFF_FFFF_FFFF,
              0x0000_0000_0000_0001, 0x000F_FFFF_FFFF_FFFF], dtype=np.int64).view(np.float64),
])


def draws(count: int, seed: int) -> np.ndarray:
    """``count`` seeded float64 values from every family above, edges first, both signs."""
    rng = np.random.default_rng(seed)
    edges = np.concatenate([EDGES, -EDGES])
    part = -(-max(0, count - edges.size) // 5)
    families = [
        rng.random(part),
        rng.standard_normal(part) * 10.0 ** rng.integers(-300, 300, part),
        rng.integers(-2 ** 63, 2 ** 63 - 1, part, dtype=np.int64, endpoint=True).view(np.float64),
        np.arange(part) * 0.02,
    ]
    digits = 10.0 ** rng.integers(0, 7, part)
    short = np.round(rng.random(part) * 10.0 ** rng.integers(-3, 6, part) * digits) / digits
    return np.concatenate([edges, *families, short])[:max(count, 0)]


def mismatches(values: np.ndarray, limit: int = 10) -> list[tuple[float, bytes, bytes]]:
    """Up to ``limit`` (value, formatter text, ``repr`` text) that differ."""
    from metricspin.floattext import texts

    found = []
    for start in range(0, values.size, 1 << 16):
        part = values[start:start + (1 << 16)]
        got = texts(part).tolist()
        want = [repr(x).encode() for x in part.tolist()]
        found.extend((x, g, w) for x, g, w in zip(part.tolist(), got, want) if g != w)
        if len(found) >= limit:
            break
    return found[:limit]


def main(argv: list[str]) -> int:
    count = int(argv[1]) if len(argv) > 1 else 5_000_000
    seed = int(argv[2]) if len(argv) > 2 else 0
    values = draws(count, seed)
    bad = mismatches(values)
    for x, got, want in bad:
        print(f"mismatch: {x!r}: got {got!r}, repr {want!r}")
    print(f"{values.size} values, seed {seed}: {'MISMATCHES' if bad else 'all equal to repr'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv))
