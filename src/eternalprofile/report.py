"""Deterministic export of run results.

JSON is written by the standard encoder with sorted keys, floats as
shortest round-trip decimals and every string escaped; a non-finite
float is written as the string "NaN", "Infinity" or "-Infinity".  CSV
rows use shortest round-trip decimals too.  Identical inputs therefore
produce byte-identical artifacts, and parsing them gives back the same
doubles.  That holds across CPUs too (see ``equation``), except for the
``asymptotics`` fits under another BLAS kernel: their samples come from
scipy's LSODA, which calls BLAS.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equation import f_from_F
from .solution import ProfileSolution

CSV_HEADER = "xi,F,Fprime,f,fprime"


@dataclass
class RunReport:
    """Everything a run produced; ``config`` is the configuration file's
    settings with defaults resolved, whatever ``--out`` and ``--plots``."""

    config: dict
    mode: str
    status: str = "ok"
    results: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)


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


def _jsonable(obj):
    """Normalize nested values to plain JSON-compatible types; a
    non-finite float becomes the string "NaN", "Infinity" or "-Infinity".
    A profile's evaluators, ``dense`` and ``odesol``, are left out; any
    other callable reaches the encoder and fails there."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in ("dense", "odesol")
        }
    if isinstance(obj, enum.Enum):
        return _jsonable(obj.value)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def dumps(obj) -> str:
    """Serialize as indented JSON with sorted keys."""
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)


def write_report(report: RunReport, path) -> None:
    """Write the report as deterministic JSON."""
    Path(path).write_text(dumps(report) + "\n")


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
