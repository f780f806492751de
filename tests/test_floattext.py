import tracemalloc

import numpy as np
from check_float_texts import EDGES, draws, mismatches
from hypothesis import given, settings
from hypothesis import strategies as st

from metricspin import floattext
from metricspin.floattext import WIDTH, texts


def test_texts_equal_repr_on_seeded_draws():
    # the check CI runs at 5,000,000 values, here at 250,000
    assert mismatches(draws(250_000, seed=0)) == []


@settings(max_examples=200, deadline=None)
@given(floats=st.lists(st.floats(), max_size=40),
       patterns=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
def test_texts_equal_repr_on_any_double(floats, patterns):
    values = np.concatenate([np.array(floats, dtype=np.float64),
                             np.array(patterns, dtype=np.int64).view(np.float64)])
    got = texts(values)
    assert got.dtype == np.dtype(f"S{WIDTH}")
    assert got.tolist() == [repr(x).encode() for x in values.tolist()]


def fallback_share(monkeypatch, values) -> float:
    """The share of ``values`` that :func:`texts` hands to ``repr``."""
    handed = []

    def counting(x):
        handed.append(x)
        return repr(x)

    with monkeypatch.context() as patch:
        patch.setattr(floattext, "repr", counting, raising=False)
        got = texts(values).tolist()
    assert got == [repr(x).encode() for x in values.tolist()]
    return len(handed) / values.size


def test_edges_go_to_repr_and_uniform_draws_rarely_do(monkeypatch):
    # zeros, infinities, NaN, subnormals, powers of two and magnitudes out
    # of [1e-280, 1e280] are never formatted by the fast path
    magnitudes = np.abs(EDGES)
    outside = ~np.isfinite(magnitudes) | (magnitudes < 1e-280) | (magnitudes > 1e280) \
        | (np.frexp(magnitudes)[0] == 0.5)
    assert outside.sum() > 100
    assert fallback_share(monkeypatch, np.concatenate([EDGES[outside], -EDGES[outside]])) == 1.0
    uniform = np.random.default_rng(5).random(100_000)
    assert fallback_share(monkeypatch, uniform) < 0.01


def test_texts_of_no_values():
    assert texts(np.array([])).shape == (0,)


def test_working_set_does_not_grow_with_the_array():
    # beyond its 24 B-per-value result a call holds one slice's temporaries,
    # so formatting 8 times the values takes no more room besides the result
    rng = np.random.default_rng(3)
    texts(np.ones(1))                   # builds the shared tables

    def overhead(n: int) -> int:
        values = rng.random(n)
        tracemalloc.start()
        try:
            texts(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - WIDTH * n

    small, large = overhead(50_000), overhead(400_000)
    assert large <= 1.1 * small + 4096, f"{small} B at 50,000 values, {large} B at 400,000"
