"""Property tests of ``config.parse_config`` at parse level: no command runs."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from metricspin.config import RunConfig, parse_config
from metricspin.errors import ConfigError
from metricspin.serialize import fmt

KEYS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
FLOAT_KEYS = sorted(k for k, kind in KEYS.items() if kind == "float")
INT_KEYS = sorted(k for k, kind in KEYS.items() if kind == "int")

#: texts that random text seldom hits: non-finite, overflowing, too many
#: digits for ``int``, other bases, digit groups, a lone surrogate, NUL
EDGE_TEXTS = ["nan", "-inf", "1e999", "9" * 5000, "0x10", " 1_0 ", "\ud800", "\x00", "=x"]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(FLOAT_KEYS), value=st.floats(allow_nan=False, allow_infinity=False))
def test_a_finite_float_round_trips_through_set(key, value):
    got = getattr(parse_config(None, [f"{key}={fmt(value)}"]), key)
    assert isinstance(got, float) and fmt(got) == fmt(value)     # -0.0 keeps its sign


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(INT_KEYS), value=st.integers(-10 ** 300, 10 ** 300))
def test_an_int_round_trips_through_set(key, value):
    got = getattr(parse_config(None, [f"{key}={value}"]), key)
    assert type(got) is int and got == value


@settings(max_examples=500, deadline=None)
@given(key=st.one_of(st.sampled_from(sorted(KEYS)), st.text()),
       text=st.one_of(st.text(), st.sampled_from(EDGE_TEXTS)))
def test_any_text_parses_or_raises_config_error(key, text):
    item = f"{key}={text}"
    try:
        cfg = parse_config(None, [item])
    except ConfigError:
        return
    assert item.split("=", 1)[0].strip() in KEYS
    assert cfg.direction in ("x", "y", "z") and cfg.sign in ("+", "-")
