"""Shortest round-trip decimal texts of float64 arrays, byte for byte Python ``repr``.

:func:`texts` formats a whole array with numpy, never one Python call per
value, into a fixed-width ``S24`` array.  Its fast path scales each
magnitude by a power of ten as a double-double and picks the shortest
digits that round back to it; a value it cannot prove goes to ``repr``,
the exact fallback (Loitsch's Grisu3 pattern).  It formats ``_SLICE``
(2048) values at a time in the calling process, so its working set beyond
the result is bounded whatever the array's size.  The CSV writer,
:mod:`metricspin.serialize`, renders every float through it.
"""

from __future__ import annotations

import functools

import numpy as np

#: the longest text of a float, e.g. ``-2.2250738585072014e-308``
WIDTH = 24

#: magnitudes :func:`texts` formats itself, as bit patterns; in between,
#: no product of its scaling overflows or underflows
_LOWEST, _HIGHEST = np.array([1e-280, 1e280]).view(np.int64)

#: values :func:`texts` formats together; bounds the temporaries of a call
_SLICE = 2048

#: a formatting decision closer than this to a tie is left to ``repr``
_TIE = 1e-9

#: Dekker's splitting constant, 2^27 + 1
_SPLIT = 134217729.0

#: texts are assembled as three little-endian 64-bit words, 8 bytes each
_WORD = np.dtype("<u8")
_B1, _B8, _B16, _B32, _B56 = (_WORD.type(b) for b in (1, 8, 16, 32, 56))


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of the doubles ``x`` into two halves of at most 26 bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _constants() -> dict:
    """The tables of :func:`texts`, built on its first call (about 2 ms).

    Per biased binary exponent ``e`` of a magnitude a: the k that puts
    a·10^k in [1e16, 2e17), 10^k as the double-double ``hi + lo`` with
    ``hi`` Dekker-split, and ``half``, half an ulp of a times 10^k.  Then
    the ASCII of every 4-digit group as a word, and its trailing zeros
    (4 for 0000).  Per key ``dot * 25 + end`` (byte positions), for each of
    the three words: the masks that keep the bytes before ``dot``, that
    keep those after it once moved one byte later, and the ``.`` at
    ``dot``, all cut at ``end``.  Last the text put in front, per
    ``6 * negative + n``: ``-`` if negative, then ``0.000`` cut to n bytes.
    """
    e = np.arange(2048)
    k = np.clip(16 - np.floor((e - 1023) * np.log10(2.0)).astype(np.int64), -300, 300)
    exact = [10 ** j for j in range(int(np.abs(k).max()) + 1)]
    up = np.array([float(n) for n in exact])
    up_lo = np.array([float(n - int(h)) for n, h in zip(exact, up.tolist())])
    # 10^-j = 1/(up + up_lo) is its rounding ``down`` times 1 + r, where
    # r = 1 - down·(up + up_lo) has its down·up part exact (Dekker); the
    # pair down + down·r is within 2^-104 of 10^-j
    down = 1.0 / up
    (dh, dl), (uh, ul) = _split(down), _split(up)
    product = down * up
    error = ((dh * uh - product) + dh * ul + dl * uh) + dl * ul
    down_lo = (((1.0 - product) - error) - down * up_lo) * down
    j = np.abs(k)
    hi = np.where(k >= 0, up[j], down[j])
    lo = np.where(k >= 0, up_lo[j], down_lo[j])
    hi_hi, hi_lo = _split(hi)
    with np.errstate(over="ignore", under="ignore"):
        half = np.ldexp(hi, e - 1076)

    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack([np.tile(np.repeat(digit, 10 ** (3 - j)), 10 ** j) for j in range(4)], 1)
    groups = np.arange(10_000, dtype=np.int16)
    zeros = sum((groups % 10 ** j == 0).astype(np.int8) for j in range(1, 5))

    at = np.arange(26)[:, None] - 8 * np.arange(3)     # byte position within each word
    before = (_WORD.type(2 ** 64 - 1) >> (8 * (8 - np.clip(at, 0, 8))).astype(_WORD)) \
        * (at > 0)                                      # the bytes before ``at``, per word
    point = np.where((at >= 0) & (at < 8), _WORD.type(ord(".")) << (8 * np.clip(at, 0, 7))
                     .astype(_WORD), _WORD.type(0))

    def per_key(masks: np.ndarray) -> list:
        return [(masks[:25, i, None] & before[None, :25, i]).ravel() for i in range(3)]

    tables = {
        "k": k, "hi": hi, "lo": lo, "hi_hi": hi_hi, "hi_lo": hi_lo, "half": half,
        "quads": quads.view("<u4").ravel().astype(_WORD), "zeros": zeros,
        "keep": per_key(before), "move": per_key(~before[1:]), "dot": per_key(point),
        "prefix": np.array([int.from_bytes(sign + b"0.000"[:n], "little")
                            for sign in (b"", b"-") for n in range(6)], dtype=_WORD),
    }
    for table in tables.values():       # shared by every call: read-only
        for array in table if isinstance(table, list) else [table]:
            array.flags.writeable = False
    return tables


def texts(values) -> np.ndarray:
    """The ``repr`` texts of the float64 ``values``, as an ``S24`` array.

    Formatted ``_SLICE`` values at a time, so that beyond its 24 B-per-value
    result a call holds the temporaries of one slice, whatever its size.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    out = np.empty(values.size, dtype=f"S{WIDTH}")
    for start in range(0, values.size, _SLICE):
        out[start:start + _SLICE] = _slice_texts(values[start:start + _SLICE])
    return out


def _slice_texts(values: np.ndarray) -> np.ndarray:
    """:func:`texts` of the 1-D float64 ``values``, all at once.

    A magnitude a in [1e-280, 1e280] that is no power of two rounds to
    itself from anywhere in (a - u/2, a + u/2), u its ulp.  Scaled by 10^k
    into P = a·10^k in [1e16, 2e17), held as a double-double, that interval
    is (P - h, P + h) with 0.55 < h < 23, and the shortest text of a is the
    integer of most trailing zeros in it, the nearest to P among those of
    as many: ``repr``'s digits (Loitsch's Grisu3 pattern: a fast path that
    proves its answer, else the exact fallback).  The digits come from a
    4-digit group table and are laid out as ``repr`` lays them out: an
    exponent from decpt <= -4 or decpt > 16 on, with at least two digits;
    ``.0`` on an integral value.  Every other value (NaN, infinities,
    zeros, subnormals, powers of two, magnitudes out of that range), and
    any value whose interval ends or rounding lie within ``_TIE`` of a tie,
    goes to ``repr``.
    """
    c = _constants()
    magnitude = np.abs(values).view(np.int64)
    ok = (magnitude >= _LOWEST) & (magnitude <= _HIGHEST) & (magnitude & (2 ** 52 - 1) != 0)
    magnitude = np.where(ok, magnitude, np.float64(1.5).view(np.int64))
    a = magnitude.view(np.float64)
    e = magnitude >> 52

    # P = a·10^k as s + t, |t| <= ulp(s)/2, from Dekker's exact product
    hi = c["hi"][e]
    p = a * hi
    a_hi, a_lo = _split(a)
    hi_hi, hi_lo = c["hi_hi"][e], c["hi_lo"][e]
    q = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * c["lo"][e]
    s = p + q
    t = q - (s - p)
    # P = whole + frac, frac in [0, 1]; the interval (P - h, P + h)
    t_floor = np.floor(t)
    whole = s.astype(np.int64) + t_floor.astype(np.int64)
    frac = t - t_floor
    half = c["half"][e]
    up, down = frac + half, frac - half
    up_floor, down_floor = np.floor(up), np.floor(down)
    ok &= np.abs(up - up_floor - 0.5) < 0.5 - _TIE
    ok &= np.abs(down - down_floor - 0.5) < 0.5 - _TIE
    # the integers in it are top - span + 1 .. top: at most one multiple of 100
    top = whole + up_floor.astype(np.int64)
    span = (up_floor - down_floor).astype(np.int64)
    hundreds = top // 100 * 100
    tens_in = top - hundreds
    hundred = tens_in < span
    ten = ~hundred & (tens_in - tens_in // 10 * 10 < span)
    whole_tens = whole // 10 * 10
    units = (whole - whole_tens) + frac
    ok &= np.abs(np.where(ten, units - 5.0, frac - 0.5)) > _TIE
    digits = np.where(hundred, hundreds,
                      np.where(ten, whole_tens + 10 * (units > 5.0), whole + (frac > 0.5)))
    wide = digits >= 10 ** 17           # 18 digits, the last a zero
    digits = np.where(wide, digits // 10, digits)
    decpt = 17 - c["k"][e] + wide

    # the 17 digits as ASCII: the first, then four groups of four
    first = digits // 10 ** 16
    rest = digits - first * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g1 = high // 10_000
    g3 = low // 10_000
    g2, g4 = high - g1 * 10_000, low - g3 * 10_000
    quads, zeros = c["quads"], c["zeros"]
    x = quads[g1] | (quads[g2] << _B32)
    y = quads[g3] | (quads[g4] << _B32)
    words = [(first + ord("0")).astype(_WORD) | (x << _B8), (x >> _B56) | (y << _B8), y >> _B56]
    count = 17 - zeros[g4] - (g4 == 0) * (zeros[g3] + (g3 == 0) * (
        zeros[g2] + (g2 == 0) * zeros[g1]))

    # a dot inserted before byte ``dot``, the text cut at byte ``end``
    fixed = (decpt > -4) & (decpt <= 16)
    small = fixed & (decpt <= 0)        # 0.000ddd: the prefix is added below
    dot = np.where(fixed, np.where(small, 24, decpt), 1)
    end = np.where(fixed, np.where(small, count, np.maximum(count, decpt + 1) + 1),
                   count + (count > 1))
    key = dot * 25 + end
    moved = [words[0] << _B8, (words[0] >> _B56) | (words[1] << _B8),
             (words[1] >> _B56) | (words[2] << _B8)]
    words = [(w & c["keep"][i][key]) | c["dot"][i][key] | (m & c["move"][i][key])
             for i, (w, m) in enumerate(zip(words, moved))]
    sci = np.flatnonzero(~fixed)
    if sci.size:                        # e+dd or e-ddd at byte ``end``
        exponent = decpt[sci] - 1
        size = np.abs(exponent)
        suffix = (ord("e") | np.where(exponent < 0, ord("-") << 8, ord("+") << 8)).astype(_WORD)
        suffix |= np.where(size >= 100, quads[size] >> _B8, quads[size] >> _B16) << _B16
        at = end[sci]
        shift = (8 * (at % 8)).astype(_WORD)
        for i, part in ((0, suffix << shift), (1, (suffix >> _B1) >> (_B56 + 7 - shift))):
            for w in range(3):
                words[w][sci] |= np.where(at // 8 + i == w, part, _WORD.type(0))

    # the sign and the 0.000 prefix, negative + pre bytes in all, go in front
    out = np.empty((values.size, 3), dtype=_WORD)
    negative = np.signbit(values)
    pre = np.where(small, 2 - decpt, 0)
    shift = (8 * (negative + pre)).astype(_WORD)
    back = _B56 + 7 - shift
    out[:, 0] = (words[0] << shift) | c["prefix"][6 * negative + pre]
    out[:, 1] = (words[1] << shift) | ((words[0] >> _B1) >> back)
    out[:, 2] = (words[2] << shift) | ((words[1] >> _B1) >> back)
    chars = out.view(np.uint8)
    fallback = np.flatnonzero(~ok)
    if fallback.size:
        chars[fallback] = np.array(list(map(repr, values[fallback].tolist())),
                                   dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return chars.view(f"S{WIDTH}").ravel()
