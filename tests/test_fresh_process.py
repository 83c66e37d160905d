"""Runs in fresh interpreters: what a solve imports, and its bits under
another BLAS kernel.

The solve path needs no scipy, so a fresh ``import eternalprofile`` and
every solve must leave it unloaded.

Its triangular solves and Newton's 2x2 step are written out instead of
calling LAPACK, so no LAPACK kernel picks their rounding.  The ``@``
products in ``equation`` still go through BLAS, and on some triples
other than the reference cases they do round differently under another
kernel.  The byte test pins what holds for the four reference cases:
the files that the CLI modes ``solve``, ``classify`` (at beta = 0.5) and
``verify`` write with charts, and ``phase`` on (1.2, 0.3, 1), are the
same under the host's default OpenBLAS kernel and under its baseline
x86-64 kernel (Prescott).  ``asymptotics`` is left out: its interface
fit calls ``np.polyfit`` and ``np.linalg.lstsq``, whose LAPACK kernel
moves the fitted values in their last bits.  Which pair of kernels it
compares depends on the host (SkylakeX on AVX-512 machines, Haswell or
Zen on others), and it is skipped where numpy is not built on
OpenBLAS, since the kernel variable would do nothing.
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


def cli_code(mode, cfg, out, *flags):
    return (f"from eternalprofile.cli import main\n"
            f"assert main([{mode!r}, '--config', {cfg!r}, '--out', {out!r}"
            f"{''.join(f', {flag!r}' for flag in flags)}]) == 0\n")


def test_import_loads_no_scipy():
    assert run_child("import eternalprofile.cli\n" + SCIPY_MODULES) == "[]\n"


def test_import_loads_no_network_or_xml_stack():
    # xml.sax.saxutils would pull in urllib.request, http.client and email
    code = ("import sys\nimport eternalprofile.cli\n"
            "print(sorted(m for m in ('xml.sax', 'urllib.request',"
            " 'http.client', 'email') if m in sys.modules))\n")
    assert run_child(code) == "[]\n"


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


def reference_modes(case):
    phase = ["phase"] if case == (1.2, 0.3, 1) else []
    return ["solve", "classify", "verify"] + phase


def reference_artifacts(tmp, env):
    """The bytes of every file the CLI writes for each reference case's
    modes, all run in one child process under ``env``."""
    runs = [(case, mode, tmp / f"{i}-{mode}")
            for i, case in enumerate(CASES) for mode in reference_modes(case)]
    run_child("".join(
        cli_code(mode, write_cfg(out.with_suffix(".cfg"), case,
                                 "beta = 0.5\n" if mode == "classify" else ""),
                 str(out), "--plots")
        for case, mode, out in runs), env)
    artifacts = {case: {} for case in CASES}
    for case, mode, out in runs:
        artifacts[case].update(
            {(mode, f.name): f.read_bytes() for f in sorted(out.iterdir())})
    return artifacts


@pytest.fixture(scope="module")
def artifacts_by_kernel(tmp_path_factory):
    """Reference artifacts under the default kernel and under Prescott."""
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    baseline = dict(default, OPENBLAS_CORETYPE="Prescott")
    return [reference_artifacts(tmp_path_factory.mktemp(name), env)
            for name, env in (("default", default), ("prescott", baseline))]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the Prescott kernel is OpenBLAS's x86-64 baseline")
@pytest.mark.skipif(not built_on_openblas(),
                    reason="OPENBLAS_CORETYPE selects a kernel only in OpenBLAS")
@pytest.mark.parametrize("case", CASES)
def test_solve_artifacts_same_under_baseline_blas_kernel(artifacts_by_kernel, case):
    ours, baseline = (artifacts[case] for artifacts in artifacts_by_kernel)
    assert ("verify", "residual.svg") in ours
    assert ours == baseline
