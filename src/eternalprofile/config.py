"""Flat key-value run configuration.

Grammar: one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Keys are validated against the table
below and unknown keys are rejected with their line number.  The
integrator keys (``INTEGRATOR_KEYS``) take their defaults from
``integrate.IntegratorOptions``.

    m, q, N          problem parameters (N a positive integer)
    mode             solve | classify | asymptotics | phase | verify |
                     sweep
    beta             exponent for classify (optional elsewhere)
    beta_tol         relative width of the reported bracket
                     (default shooting.BETA_TOL, at least
                     shooting.MIN_BETA_TOL)
    rtol, atol       integrator tolerances (the coarse stage of a
                     solve runs at rtol >= shooting.COARSE_TOL**2)
    delta0           series launch offset
    contact_eps      contact threshold in f units
    slope_tol        tangency tolerance
    horizon          integration cap, > delta0 (default: derived)
    output_dir       artifact directory                  (default ".")
    emit_plots       true | false                        (default false)
    sweep_betas      comma-separated beta list (sweep mode)
    sweep_params     semicolon-separated m:q:N triples (sweep mode)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ConfigError
from .integrate import IntegratorOptions
from .shooting import BETA_TOL, MIN_BETA_TOL

MODES = ("solve", "classify", "asymptotics", "phase", "verify", "sweep")

#: Keys passed on to ``IntegratorOptions`` under the same names.
INTEGRATOR_KEYS = (
    "rtol", "atol", "delta0", "contact_eps", "slope_tol", "horizon"
)


@dataclass
class RunConfig:
    """Validated run configuration with defaults resolved."""

    m: float = 0.0
    q: float = 0.0
    N: int = 0
    mode: str = "solve"
    beta: Optional[float] = None
    beta_tol: float = BETA_TOL
    rtol: float = IntegratorOptions.rtol
    atol: float = IntegratorOptions.atol
    delta0: float = IntegratorOptions.delta0
    contact_eps: float = IntegratorOptions.contact_eps
    slope_tol: float = IntegratorOptions.slope_tol
    horizon: Optional[float] = IntegratorOptions.horizon
    output_dir: str = "."
    emit_plots: bool = False
    sweep_betas: List[float] = field(default_factory=list)
    sweep_params: List[Tuple[float, float, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {}
        for f_ in fields(self):
            out[f_.name] = getattr(self, f_.name)
        return out


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(key: str, raw: str, lineno: int) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"line {lineno}: {key} must be a boolean, got {raw!r}"
        ) from None


def _parse_float(key: str, raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: {key} must be a number, got {raw!r}"
        ) from None


def _parse_triples(raw: str, lineno: int) -> List[Tuple[float, float, int]]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"line {lineno}: sweep_params entries must be m:q:N, got {chunk!r}"
            )
        try:
            out.append((float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise ConfigError(
                f"line {lineno}: malformed sweep_params entry {chunk!r}"
            ) from None
    return out


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
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
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "m":
            cfg.m = _parse_float(key, raw, lineno)
        elif key == "q":
            cfg.q = _parse_float(key, raw, lineno)
        elif key == "N":
            try:
                cfg.N = int(raw)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: N must be an integer, got {raw!r}"
                ) from None
        elif key == "mode":
            if raw not in MODES:
                raise ConfigError(
                    f"line {lineno}: mode must be one of {'|'.join(MODES)}, got {raw!r}"
                )
            cfg.mode = raw
        elif key == "beta":
            cfg.beta = _parse_float(key, raw, lineno)
        elif key == "beta_tol" or key in INTEGRATOR_KEYS:
            setattr(cfg, key, _parse_float(key, raw, lineno))
        elif key == "output_dir":
            cfg.output_dir = raw
        elif key == "emit_plots":
            cfg.emit_plots = _parse_bool(key, raw, lineno)
        elif key == "sweep_betas":
            try:
                cfg.sweep_betas = [float(x) for x in raw.split(",") if x.strip()]
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: sweep_betas must be comma-separated numbers"
                ) from None
        elif key == "sweep_params":
            cfg.sweep_params = _parse_triples(raw, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.mode == "sweep":
        if not cfg.sweep_betas and not cfg.sweep_params:
            raise ConfigError("sweep mode requires sweep_betas or sweep_params")
        if cfg.sweep_betas and not (cfg.m and cfg.q and cfg.N):
            raise ConfigError("sweep over betas requires m, q and N")
    else:
        if not (cfg.m and cfg.q and cfg.N):
            raise ConfigError(f"mode {cfg.mode!r} requires m, q and N")
    if cfg.mode == "classify" and cfg.beta is None:
        raise ConfigError("classify mode requires beta")
    if cfg.beta is not None and cfg.beta <= 0:
        raise ConfigError(f"beta must be > 0, got {cfg.beta}")
    if not cfg.beta_tol >= MIN_BETA_TOL:
        raise ConfigError(
            f"beta_tol must be >= {MIN_BETA_TOL!r} (4 eps), got {cfg.beta_tol}"
        )
    for key in ("rtol", "atol", "delta0", "contact_eps", "slope_tol"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be > 0, got {getattr(cfg, key)}")
