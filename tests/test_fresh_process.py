"""Runs in fresh interpreters: what a solve imports, and its bits under
another BLAS kernel.

The solve path needs no scipy, so a fresh ``import eternalprofile`` and
every solve must leave it unloaded.

Its triangular solves and Newton's 2x2 step are written out instead of
calling LAPACK, so no LAPACK kernel picks their rounding.  The ``@``
products in ``equation`` still go through BLAS, and on some triples
other than the reference cases they do round differently under another
kernel.  The byte test pins what holds for the four reference cases:
their CLI ``solve`` artifacts are the same under the host's default
OpenBLAS kernel and under its baseline x86-64 kernel (Prescott).  Which
pair of kernels it compares depends on the host (SkylakeX on AVX-512
machines, Haswell or Zen on others), and it is skipped where numpy is
not built on OpenBLAS, since the kernel variable would do nothing.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eternalprofile

from conftest import CASES

SRC = str(Path(eternalprofile.__file__).resolve().parent.parent)

SCIPY_MODULES = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def run_child(code, env=None):
    """stdout of ``python -c code`` with the package's sources on its path."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout


def write_cfg(path, case, extra=""):
    m, q, N = case
    path.write_text(f"m = {m}\nq = {q}\nN = {N}\n{extra}")
    return str(path)


def cli_code(mode, cfg, out):
    return (f"from eternalprofile.cli import main\n"
            f"assert main([{mode!r}, '--config', {cfg!r}, '--out', {out!r}]) == 0\n")


def test_import_loads_no_scipy():
    assert run_child("import eternalprofile.cli\n" + SCIPY_MODULES) == "[]\n"


def test_solve_loads_no_scipy():
    code = ("from eternalprofile import make_params, solve\n"
            "solve(make_params(2, 0.5, 1))\n")
    assert run_child(code + SCIPY_MODULES) == "[]\n"


@pytest.mark.parametrize("mode", ["solve", "classify", "verify"])
def test_cli_mode_loads_no_scipy(tmp_path, mode):
    extra = "beta = 0.1\n" if mode == "classify" else ""
    cfg = write_cfg(tmp_path / "run.cfg", (1.2, 0.3, 1), extra)
    out = str(tmp_path / "out")
    assert run_child(cli_code(mode, cfg, out) + SCIPY_MODULES) == "[]\n"
    assert json.loads((tmp_path / "out" / "report.json").read_text())[
        "status"] == "ok"


def built_on_openblas():
    """Whether numpy's BLAS is OpenBLAS, as numpy >= 1.26 reports it."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in info["name"].lower()


def solve_artifacts(tmp_path, name, case, env):
    out = tmp_path / name
    cfg = write_cfg(tmp_path / f"{name}.cfg", case)
    run_child(cli_code("solve", cfg, str(out)), env)
    return {f: (out / f).read_bytes() for f in ("report.json", "profile.csv")}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the Prescott kernel is OpenBLAS's x86-64 baseline")
@pytest.mark.skipif(not built_on_openblas(),
                    reason="OPENBLAS_CORETYPE selects a kernel only in OpenBLAS")
@pytest.mark.parametrize("case", CASES)
def test_solve_artifacts_same_under_baseline_blas_kernel(tmp_path, case):
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    baseline = dict(default, OPENBLAS_CORETYPE="Prescott")
    ours = solve_artifacts(tmp_path, "default", case, default)
    assert ours == solve_artifacts(tmp_path, "prescott", case, baseline)
