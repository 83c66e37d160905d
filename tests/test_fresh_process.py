"""Runs in fresh interpreters: what a solve imports and compiles, and its
bits under another BLAS kernel or without numpy's SIMD extensions.

The solve path needs no scipy, so a fresh ``import eternalprofile`` and
every solve must leave it unloaded.

The solve path calls no BLAS or LAPACK and none of numpy's
SIMD-dispatched ``exp``, ``log`` or array ``**``: its products are
fixed-order sums and its powers ``np.float_power``.  So its bits must not
depend on the CPU.  Three child processes check this: one under the
host's defaults, one under OpenBLAS's baseline x86-64 kernel (Prescott;
skipped off x86-64, and where numpy is not built on OpenBLAS, since the
kernel variable would do nothing), and one with ``NPY_DISABLE_CPU_FEATURES`` naming every
SIMD extension beyond its baseline that numpy found (skipped when it
found none).  Each child writes the files that the CLI modes ``solve``,
``classify`` (at beta = 0.5) and ``verify`` write with charts for the
four reference cases, ``asymptotics`` too, and ``phase`` on
(1.2, 0.3, 1), and solves BITS_TRIPLES in-process: beta*, xi0, both
bracket ends and a hash of the stored profile.  Files and bits must be
the same in every child, but for the ``asymptotics`` files under
another BLAS kernel: their samples come from scipy's LSODA, whose
LINPACK routines call BLAS.
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


def test_import_and_solve_build_no_generic_step():
    # the package's right-hand sides carry their own DOP853 step, so the
    # generic one, whose template calls ``fun``, is never compiled
    code = (
        "import builtins\n"
        "sources = []\n"
        "def counted(source, filename, *args, _compile=builtins.compile, **kw):\n"
        "    if filename == '<dop853 step>':\n"
        "        sources.append(source)\n"
        "    return _compile(source, filename, *args, **kw)\n"
        "builtins.compile = counted\n"
        "from eternalprofile import integrate_limit_profile, make_params, solve\n"
        "at_import = len(sources)\n"
        "solve(make_params(2, 0.5, 1))\n"
        "solve(make_params(1.2, 0.3, 1))\n"
        "integrate_limit_profile(make_params(2, 0.5, 3), 10.0)\n"
        "print(at_import, len(sources),"
        " sum('fun(x, (F, Fp))' in s for s in sources))\n"
    )
    assert run_child(code) == "2 2 0\n"


@pytest.mark.parametrize("mode", ["solve", "classify", "verify"])
def test_cli_mode_loads_no_scipy(tmp_path, mode):
    extra = "beta = 0.1\n" if mode == "classify" else ""
    cfg = write_cfg(tmp_path / "run.cfg", (1.2, 0.3, 1), extra)
    out = str(tmp_path / "out")
    assert run_child(cli_code(mode, cfg, out) + SCIPY_MODULES) == "[]\n"
    assert json.loads((tmp_path / "out" / "report.json").read_text())[
        "status"] == "ok"


def numpy_simd_extensions():
    """The SIMD extensions beyond its baseline that numpy found on this
    CPU: ``simd_extensions.found`` of ``np.show_runtime()``."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def built_on_openblas():
    """Whether numpy's BLAS is OpenBLAS, as numpy >= 1.26 reports it."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in info["name"].lower()


def reference_modes(case):
    phase = ["phase"] if case == (1.2, 0.3, 1) else []
    return ["solve", "classify", "verify", "asymptotics"] + phase


#: Triples whose bits depend on the CPU when the solve path's products go
#: through BLAS and its powers through numpy's SIMD kernels.
BITS_TRIPLES = [(1.7, 0.5, 2), (1.202, 0.202, 1), (1.1, 0.7, 3), (1.5, 0.3, 1),
                (1.5, 0.5, 1)]

SOLVE_BITS = f"""
import hashlib, json, sys
from eternalprofile import make_params, solve
bits = {{}}
for case in {BITS_TRIPLES!r}:
    r = solve(make_params(*case))
    s = r.final_profile
    arrays = (s.grid, s.F_values, s.Fprime_values)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    bits[repr(case)] = [r.beta_star, s.xi0, r.bracket_lo, r.bracket_hi, digest]
sys.stdout.write(json.dumps(bits))
"""


def child_run(tmp, env):
    """The bytes of every file the CLI writes for each reference case's
    modes, and the solve bits of BITS_TRIPLES, all from one child process
    under ``env``."""
    runs = [(case, mode, tmp / f"{i}-{mode}")
            for i, case in enumerate(CASES) for mode in reference_modes(case)]
    bits = run_child("".join(
        cli_code(mode, write_cfg(out.with_suffix(".cfg"), case,
                                 "beta = 0.5\n" if mode == "classify" else ""),
                 str(out), "--plots")
        for case, mode, out in runs) + SOLVE_BITS, env)
    artifacts = {case: {} for case in CASES}
    for case, mode, out in runs:
        artifacts[case].update(
            {(mode, f.name): f.read_bytes() for f in sorted(out.iterdir())})
    return artifacts, json.loads(bits)


def child_env(setting):
    """The environment of the child for ``setting``: the host's defaults,
    plus at most one variable."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    if setting == "prescott":
        env["OPENBLAS_CORETYPE"] = "Prescott"
    elif setting == "numpy-baseline":
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(numpy_simd_extensions())
    return env


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """``child(setting)``: the artifacts and solve bits of the child for
    ``setting``, each child run once."""
    runs = {}

    def run(setting):
        if setting not in runs:
            runs[setting] = child_run(tmp_path_factory.mktemp(setting),
                                      child_env(setting))
        return runs[setting]

    return run


needs_prescott = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64")
    or not built_on_openblas(),
    reason="Prescott is OpenBLAS's x86-64 baseline kernel")
needs_simd = pytest.mark.skipif(
    not numpy_simd_extensions(),
    reason="numpy found no SIMD extension beyond its baseline")


@pytest.mark.parametrize("case", CASES)
@needs_prescott
def test_solve_artifacts_same_under_baseline_blas_kernel(child, case):
    # LSODA's BLAS calls move the asymptotics samples in their last bits
    ours, baseline = (
        {key: data for key, data in child(s)[0][case].items()
         if key[0] != "asymptotics"}
        for s in ("default", "prescott"))
    assert ("verify", "residual.svg") in ours
    assert ours == baseline


@pytest.mark.parametrize("case", CASES)
@needs_simd
def test_solve_artifacts_same_without_numpy_simd(child, case):
    ours, baseline = (child(s)[0][case] for s in ("default", "numpy-baseline"))
    assert ("verify", "residual.svg") in ours
    assert ours == baseline


@pytest.mark.parametrize("setting", [
    pytest.param("prescott", marks=needs_prescott),
    pytest.param("numpy-baseline", marks=needs_simd),
])
def test_solve_bits_same_in_every_child(child, setting):
    ours, theirs = child("default")[1], child(setting)[1]
    assert list(ours) == [repr(case) for case in BITS_TRIPLES]
    assert ours == theirs
