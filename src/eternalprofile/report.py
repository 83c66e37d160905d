"""Deterministic export of run results.

JSON is emitted with sorted keys and floats printed at 17 significant
digits; CSV rows use shortest round-trip decimals.  Identical inputs
therefore produce byte-identical artifacts; wall-clock timing is kept on
the in-memory report only and never serialized.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .equation import f_from_F
from .solution import ProfileSolution

CSV_HEADER = "xi,F,Fprime,f,fprime"


@dataclass
class RunReport:
    """Everything a run produced, plus the effective configuration."""

    config: dict
    mode: str
    status: str = "ok"
    results: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    wall_time: Optional[float] = None


@functools.cache
def _scipy_version() -> str:
    """scipy's version, read without importing scipy, which a solve does
    not load; the lookup scans the installed distributions, so it is
    done once per process."""
    from importlib import metadata

    return metadata.version("scipy")


def collect_versions() -> dict:
    from . import __version__

    return {
        "eternalprofile": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
    }


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(x, ".17g")


def _jsonable(obj):
    """Normalize nested values to plain JSON-compatible types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "dense"
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if callable(obj) and not isinstance(obj, (str, int, float, bool)):
        return repr(obj)
    return obj


def dumps(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    return _dumps_norm(_jsonable(obj), 0)


def _dumps_norm(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {_dumps_norm(v, indent + 2)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [f"{inner}{_dumps_norm(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_report(report: RunReport, path) -> None:
    """Write the report as deterministic JSON (wall_time excluded)."""
    payload = {
        "config": report.config,
        "mode": report.mode,
        "status": report.status,
        "results": report.results,
        "versions": report.versions,
    }
    Path(path).write_text(dumps(payload) + "\n")


def export_profile_csv(sol: ProfileSolution, path) -> None:
    """Write the profile grid with a metadata preamble.

    Floats use shortest round-trip decimals so parsing the file
    reproduces the stored values bit-exactly.
    """
    p = sol.params
    lines = [
        f"# m={p.m!r}",
        f"# q={p.q!r}",
        f"# N={p.N!r}",
        f"# beta={sol.exps.beta!r}",
        f"# xi0={'' if sol.xi0 is None else repr(sol.xi0)}",
        f"# classification={sol.classification.value}",
        CSV_HEADER,
    ]
    f, fp = f_from_F(p.m, sol.F_values, sol.Fprime_values)
    rows = np.column_stack((sol.grid, sol.F_values, sol.Fprime_values, f, fp))
    lines += (",".join(map(repr, row)) for row in rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def parse_profile_csv(path):
    """Read back a profile CSV; returns (metadata dict, column arrays)."""
    meta = {}
    rows = []
    header_seen = False
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key.strip()] = val.strip()
        elif not header_seen:
            if line != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {line!r}")
            header_seen = True
        elif line:
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    cols = {
        name: data[:, i] for i, name in enumerate(CSV_HEADER.split(","))
    }
    return meta, cols
