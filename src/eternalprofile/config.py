"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  One table, ``_KEYS``, drives the
grammar: it maps each key to the parser of its value and to the phrase
that says what the value must be.  An unknown key, then a duplicate, is
rejected with its line number; a value its parser refuses is reported
as ``line {n}: {key} must be {expected}, got {raw!r}``.  The keys:

    m, q, N          problem parameters (N a positive integer)
    beta             exponent for classify (optional elsewhere)
    beta_tol         relative width of the reported bracket
                     (default shooting.BETA_TOL, at least
                     shooting.MIN_BETA_TOL); below about 1e-10 the
                     bracket gets no narrower, only costlier
    rtol             forward-run tolerance of classify, sweep and the
                     certification samples of a solve (default
                     integrate.CLASSIFY_RTOL; the coarse stage of a
                     solve runs at rtol >= shooting.COARSE_TOL**2)
    sweep_betas      comma-separated beta list (sweep mode)
    sweep_params     semicolon-separated m:q:N triples (sweep mode)

``mode``, ``output_dir`` and ``emit_plots`` are unknown keys: the command
line alone sets the mode, the output directory and the charts (``cli``).
``horizon`` is unknown too: every forward run stops at
``integrate.HORIZON_FACTOR`` absorption scales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ConfigError
from .integrate import CLASSIFY_RTOL
from .shooting import BETA_TOL, MIN_BETA_TOL


@dataclass
class RunConfig:
    """Validated run configuration with defaults resolved."""

    m: float = 0.0
    q: float = 0.0
    N: int = 0
    beta: Optional[float] = None
    beta_tol: float = BETA_TOL
    rtol: float = CLASSIFY_RTOL
    sweep_betas: List[float] = field(default_factory=list)
    sweep_params: List[Tuple[float, float, int]] = field(default_factory=list)


def _floats(raw: str) -> List[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


def _triples(raw: str) -> List[Tuple[float, float, int]]:
    out = []
    for chunk in raw.split(";"):
        if not chunk.strip():
            continue
        m, q, N = chunk.split(":")  # ValueError unless exactly three parts
        out.append((float(m), float(q), int(N)))
    return out


_NUMBER = (float, "a number")

#: key -> (parser, what the value must be); a parser signals a bad value
#: with ValueError.
_KEYS = {
    "m": _NUMBER,
    "q": _NUMBER,
    "N": (int, "an integer"),
    "beta": _NUMBER,
    "beta_tol": _NUMBER,
    "rtol": _NUMBER,
    "sweep_betas": (_floats, "comma-separated numbers"),
    "sweep_params": (_triples, "semicolon-separated m:q:N triples"),
}


def load_config(path) -> RunConfig:
    """Parse a configuration file; ``validate`` checks it for a mode."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    seen = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parse, expected = _KEYS[key]
        try:
            setattr(cfg, key, parse(raw))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key} must be {expected}, got {raw!r}"
            ) from None
    return cfg


def validate(cfg: RunConfig, mode: str) -> None:
    """Raise ConfigError unless ``cfg`` is complete for ``mode``."""
    if mode == "sweep":
        if not cfg.sweep_betas and not cfg.sweep_params:
            raise ConfigError("sweep mode requires sweep_betas or sweep_params")
        if cfg.sweep_betas and not (cfg.m and cfg.q and cfg.N):
            raise ConfigError("sweep over betas requires m, q and N")
    else:
        if not (cfg.m and cfg.q and cfg.N):
            raise ConfigError(f"mode {mode!r} requires m, q and N")
    if mode == "classify" and cfg.beta is None:
        raise ConfigError("classify mode requires beta")
    if cfg.beta is not None and cfg.beta <= 0:
        raise ConfigError(f"beta must be > 0, got {cfg.beta}")
    if not cfg.beta_tol >= MIN_BETA_TOL:
        raise ConfigError(
            f"beta_tol must be >= {MIN_BETA_TOL!r} (4 eps), got {cfg.beta_tol}"
        )
    if not cfg.rtol > 0:
        raise ConfigError(f"rtol must be > 0, got {cfg.rtol}")
