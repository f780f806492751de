"""Plain-text run configuration: one key=value per line, '#' comments.

Every key has a default except the output directory, which must come
from the config file or the --out flag.  Unknown keys are rejected so a
typo cannot silently fall back to a default.  Parsing checks syntax only:
ints and finite floats, and the text choices of ``direction`` and
``sign``.  The range of each number is checked by the library code that
consumes it, when the command builds its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

_K_EDGE = math.sqrt(2.0) * math.pi


@dataclass
class RunConfig:
    out: str = ""
    # single-run / shared
    direction: str = "x"
    sign: str = "+"
    G: float = 0.05
    mu: float = 1.0
    N: int = 14
    t_max: float = 100.0
    dt: float = 0.02
    # sweep
    G_min: float = 0.01
    G_max: float = 100.0
    G_count: int = 60
    G_list: str = ""
    t_min: float = 2.0
    # lattice
    lattice_G: float = 0.0
    alpha_c: float = 0.0
    beta_c: float = 0.0
    kx_min: float = -_K_EDGE
    kx_max: float = _K_EDGE
    ky_min: float = -_K_EDGE
    ky_max: float = _K_EDGE
    kx_count: int = 41
    ky_count: int = 41
    fd_step: float = 1e-5
    # mode-sector report
    mu_list: str = "0.5,1,2,4"
    N_mode: int = 80
    levels: int = 8
    # convergence
    N_list: str = "10,14,20"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _finite_float(key: str, raw: str, text: str) -> float:
    """``float(text)``, refusing nan and +-inf: no run may start from them."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r} ({exc})") from exc
    if not math.isfinite(value):
        raise ConfigError(f"bad value for key {key!r}: {raw!r} (not a finite number)")
    return value


def _convert(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "float":
        return _finite_float(key, raw, raw)
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {raw!r} ({exc})") from exc
    return raw


def _apply(cfg: RunConfig, key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(cfg, key, _convert(key, raw))


def parse_config(path: str | None = None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = stripped.split("=", 1)
            _apply(cfg, key.strip(), raw.strip())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(cfg, key.strip(), raw.strip())
    if cfg.direction not in ("x", "y", "z"):
        raise ConfigError(f"key 'direction' must be x, y or z, got {cfg.direction!r}")
    if cfg.sign not in ("+", "-"):
        raise ConfigError(f"key 'sign' must be + or -, got {cfg.sign!r}")
    return cfg


def parse_float_list(raw: str, key: str) -> tuple[float, ...]:
    return tuple(_finite_float(key, raw, x) for x in raw.split(",") if x.strip())


def parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r} ({exc})") from exc
